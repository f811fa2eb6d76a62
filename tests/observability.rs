//! Observability contract of the pipeline (DESIGN.md §11):
//!
//! 1. Installing a metrics sink must not perturb the clustering — the
//!    partition is bit-identical with and without an [`Obs`] handle.
//! 2. Under a logical clock ([`ManualClock`]), the rendered snapshot is
//!    **byte-stable across execution policies**: the same seed produces
//!    the same JSON under `Serial` and `Parallel { threads: 7 }`. Nothing
//!    thread-schedule-dependent may leak into library-level metrics.
//! 3. One instrumented run covers every pipeline stage: ingestion, corpus
//!    construction, seeding and clustering all leave metrics behind.
//! 4. Each pipeline shape — every clustering algorithm, raw HTML with and
//!    without ingest limits, graph input with anchor text — records
//!    exactly the metric and span names pinned below.
//!
//! Each run calls the stage functions the way `cafc cluster` does, with
//! the clustering call inside a `cluster` span.

use cafc::obs::SpanSnapshot;
use cafc::{
    cafc_c, cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace,
    HacOptions, HubClusterOptions, IngestLimits, KMeansOptions, Linkage, ManualClock, ModelOptions,
    Obs, Partition,
};
use cafc_cluster::{bisecting_kmeans, hac, BisectOptions};
use cafc_corpus::{generate, mutate_page, page_rng, CorpusConfig, Mutation, SyntheticWeb};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn web() -> SyntheticWeb {
    generate(&CorpusConfig::small(7))
}

/// An enabled handle on a logical clock that never ticks: every duration is
/// exactly 0, so snapshots cannot depend on wall clock or thread schedule.
fn logical_obs() -> Obs {
    Obs::with_clock(Arc::new(ManualClock::new()))
}

/// Run `algorithm` over `corpus`'s combined space with a seed-`seed`
/// generator, inside a `cluster` span as `cafc cluster` opens it.
fn clustered<T>(
    corpus: &FormPageCorpus,
    seed: u64,
    obs: &Obs,
    algorithm: impl FnOnce(&FormPageSpace<'_>, &mut StdRng) -> T,
) -> T {
    let space = FormPageSpace::new(corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(seed);
    let _cluster_span = obs.span("cluster");
    algorithm(&space, &mut rng)
}

/// CAFC-CH at k = 8 with seed 2 over the web's target pages.
fn graph_cafc_ch(web: &SyntheticWeb, policy: ExecPolicy, obs: &Obs) -> Partition {
    let targets = web.form_page_ids();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        policy,
        obs,
    );
    clustered(&corpus, 2, obs, |space, rng| {
        cafc_ch(&web.graph, &targets, space, &hub_config(), rng, policy, obs)
            .outcome
            .partition
    })
}

/// Same seed, same corpus, different `ExecPolicy` → byte-identical JSON.
#[test]
fn snapshot_json_identical_across_policies() {
    let web = web();
    let render = |policy: ExecPolicy| {
        let obs = logical_obs();
        graph_cafc_ch(&web, policy, &obs);
        obs.snapshot().render_json()
    };
    let serial = render(ExecPolicy::Serial);
    let mut policies = vec![
        ExecPolicy::Parallel { threads: 1 },
        ExecPolicy::Parallel { threads: 7 },
    ];
    if let Ok(v) = std::env::var("CAFC_TEST_THREADS") {
        let threads: usize = v.parse().expect("CAFC_TEST_THREADS must be a count");
        policies.push(ExecPolicy::Parallel { threads });
    }
    for policy in policies {
        assert_eq!(
            render(policy),
            serial,
            "metrics snapshot diverged under {policy:?}"
        );
    }
}

/// The text rendering is deterministic too (it feeds `--trace`).
#[test]
fn snapshot_text_identical_across_policies() {
    let web = web();
    let render = |policy: ExecPolicy| {
        let obs = logical_obs();
        graph_cafc_ch(&web, policy, &obs);
        obs.snapshot().render_text()
    };
    assert_eq!(
        render(ExecPolicy::Serial),
        render(ExecPolicy::Parallel { threads: 7 })
    );
}

/// A graph run covers corpus construction, hub seeding and the k-means
/// loop; the snapshot must carry metrics from each stage, and the four
/// top-level JSON keys must always be present.
#[test]
fn graph_snapshot_covers_all_stages() {
    let web = web();
    let obs = logical_obs();
    let partition = graph_cafc_ch(&web, ExecPolicy::Serial, &obs);
    assert_eq!(partition.num_clusters(), 8);
    let json = obs.snapshot().render_json();
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"spans\"",
        // corpus construction
        "\"corpus.vectorize.items\"",
        "\"corpus.pages\"",
        "\"corpus.terms\"",
        // seeding
        "\"seed.hub_candidates\"",
        "\"seed.hub_seeds\"",
        // clustering
        "\"kmeans.iterations\"",
        "\"kmeans.moved_fraction\"",
        "\"kmeans.converged\"",
        // span tree
        "\"seed.select_hub_clusters\"",
        "\"kmeans.assign\"",
        "\"corpus.tfidf\"",
    ] {
        assert!(json.contains(key), "snapshot missing {key}:\n{json}");
    }
}

/// An HTML run through hardened ingestion records the per-page accounting.
#[test]
fn ingest_snapshot_covers_outcome_counters() {
    let web = web();
    let targets = web.form_page_ids();
    let menu = Mutation::parse_list("all").expect("'all' names the full menu");
    let mutated: Vec<String> = targets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let html = web.graph.html(*p).unwrap_or("");
            mutate_page(html, &menu, 2, &mut page_rng(5, i))
        })
        .collect();
    let pages: Vec<&str> = mutated.iter().map(String::as_str).collect();

    let obs = logical_obs();
    let policy = ExecPolicy::Serial;
    let (corpus, report) = FormPageCorpus::from_shards(
        [&pages],
        &ModelOptions::default(),
        &IngestLimits::new(),
        policy,
        &obs,
    );
    clustered(&corpus, 3, &obs, |space, rng| {
        cafc_c(space, 8, &KMeansOptions::default(), rng, policy, &obs)
    });
    assert!(report.is_accounted());

    let snap = obs.snapshot();
    let json = snap.render_json();
    for key in [
        "\"ingest.pages_total\"",
        "\"ingest.pages_ok\"",
        "\"ingest.pages_degraded\"",
        "\"ingest.pages_quarantined\"",
        "\"ingest.sanitize_us\"",
        "\"ingest.parse_us\"",
        "\"ingest.analyze_us\"",
    ] {
        assert!(json.contains(key), "snapshot missing {key}:\n{json}");
    }
    // The counters must mirror the report exactly.
    let total_line = format!("\"ingest.pages_total\": {}", report.total());
    let ok_line = format!("\"ingest.pages_ok\": {}", report.ok());
    assert!(json.contains(&total_line), "{json}");
    assert!(json.contains(&ok_line), "{json}");
}

/// The disabled handle records nothing — its snapshot is empty even after
/// a full pipeline run.
#[test]
fn disabled_obs_snapshot_stays_empty() {
    let web = web();
    let obs = Obs::disabled();
    graph_cafc_ch(&web, ExecPolicy::Serial, &obs);
    assert!(!obs.is_enabled());
    assert!(obs.snapshot().is_empty());
}

/// Every counter, gauge, histogram and span one run leaves behind, in that
/// order, each kind sorted. Spans are listed by their path from the root
/// (`cluster/kmeans.assign`), so a stage that moved out of its parent
/// shows up too.
fn metric_names(obs: &Obs) -> Vec<String> {
    fn span_paths(prefix: &str, spans: &[SpanSnapshot], out: &mut Vec<String>) {
        for span in spans {
            let path = format!("{prefix}{}", span.name);
            span_paths(&format!("{path}/"), &span.children, out);
            out.push(path);
        }
    }
    let snap = obs.snapshot();
    let mut spans = Vec::new();
    span_paths("", &snap.spans, &mut spans);
    let kinds = [
        (
            "counter",
            snap.counters.iter().map(|(n, _)| n.clone()).collect(),
        ),
        (
            "gauge",
            snap.gauges.iter().map(|(n, _)| n.clone()).collect(),
        ),
        (
            "histogram",
            snap.histograms.iter().map(|(n, _)| n.clone()).collect(),
        ),
        ("span", spans),
    ];
    let mut out = Vec::new();
    for (kind, mut names) in kinds {
        names.sort();
        out.extend(names.iter().map(|n| format!("{kind} {n}")));
    }
    out
}

/// The metric names one run leaves under a logical clock.
fn names_of_run(run: impl FnOnce(&Obs)) -> Vec<String> {
    let obs = logical_obs();
    run(&obs);
    metric_names(&obs)
}

fn hub_config() -> CafcChConfig {
    CafcChConfig::paper_default(8).with_hub(HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    })
}

/// The clean and the mutated HTML of the fixture's target pages.
fn target_html() -> (Vec<String>, Vec<String>) {
    let web = web();
    let menu = Mutation::parse_list("all").expect("'all' names the full menu");
    let clean: Vec<String> = web
        .form_page_ids()
        .iter()
        .map(|&p| web.graph.html(p).unwrap_or("").to_owned())
        .collect();
    let mutated = clean
        .iter()
        .enumerate()
        .map(|(i, html)| mutate_page(html, &menu, 2, &mut page_rng(5, i)))
        .collect();
    (clean, mutated)
}

/// CAFC-C over raw HTML, no ingest limits: `from_html` and `cafc_c`.
const CAFC_C_HTML: &[&str] = &[
    "counter corpus.vectorize.chunks",
    "counter corpus.vectorize.items",
    "counter kmeans.assign.chunks",
    "counter kmeans.assign.items",
    "counter kmeans.iterations",
    "counter kmeans.update.chunks",
    "counter kmeans.update.items",
    "gauge corpus.pages",
    "gauge corpus.terms",
    "gauge kmeans.converged",
    "histogram corpus.vectorize.chunk_us",
    "histogram kmeans.assign.chunk_us",
    "histogram kmeans.moved_fraction",
    "histogram kmeans.update.chunk_us",
    "span cluster",
    "span cluster/kmeans.assign",
    "span cluster/kmeans.update",
    "span corpus.tfidf",
    "span corpus.vectorize",
];

/// CAFC-C over mutated HTML with ingest limits: `from_shards` and `cafc_c`.
const CAFC_C_INGEST: &[&str] = &[
    "counter ingest.chunks",
    "counter ingest.degraded.control-chars-stripped",
    "counter ingest.degraded.depth-capped",
    "counter ingest.degraded.input-truncated",
    "counter ingest.degraded.missing-title",
    "counter ingest.degraded.no-form-content",
    "counter ingest.degraded.term-budget-exceeded",
    "counter ingest.items",
    "counter ingest.pages_degraded",
    "counter ingest.pages_ok",
    "counter ingest.pages_quarantined",
    "counter ingest.pages_total",
    "counter kmeans.assign.chunks",
    "counter kmeans.assign.items",
    "counter kmeans.iterations",
    "counter kmeans.update.chunks",
    "counter kmeans.update.items",
    "gauge corpus.pages",
    "gauge corpus.terms",
    "gauge kmeans.converged",
    "histogram ingest.analyze_us",
    "histogram ingest.chunk_us",
    "histogram ingest.parse_us",
    "histogram ingest.sanitize_us",
    "histogram kmeans.assign.chunk_us",
    "histogram kmeans.moved_fraction",
    "histogram kmeans.update.chunk_us",
    "span cluster",
    "span cluster/kmeans.assign",
    "span cluster/kmeans.update",
    "span corpus.tfidf",
    "span ingest",
];

/// CAFC-CH over the graph: `from_graph`, `select_hub_clusters` and `kmeans`.
const CAFC_CH_GRAPH: &[&str] = &[
    "counter corpus.vectorize.chunks",
    "counter corpus.vectorize.items",
    "counter kmeans.assign.chunks",
    "counter kmeans.assign.items",
    "counter kmeans.iterations",
    "counter kmeans.update.chunks",
    "counter kmeans.update.items",
    "counter seed.hub_candidates",
    "counter seed.hub_seeds",
    "counter seed.padded_seeds",
    "counter seed.quality_rejected",
    "gauge corpus.pages",
    "gauge corpus.terms",
    "gauge kmeans.converged",
    "histogram corpus.vectorize.chunk_us",
    "histogram kmeans.assign.chunk_us",
    "histogram kmeans.moved_fraction",
    "histogram kmeans.update.chunk_us",
    "span cluster",
    "span cluster/kmeans.assign",
    "span cluster/kmeans.update",
    "span cluster/seed.select_hub_clusters",
    "span corpus.tfidf",
    "span corpus.vectorize",
];

/// CAFC-CH over the graph with anchor-text vectors.
const CAFC_CH_ANCHORS: &[&str] = &[
    "counter corpus.vectorize.chunks",
    "counter corpus.vectorize.items",
    "counter kmeans.assign.chunks",
    "counter kmeans.assign.items",
    "counter kmeans.iterations",
    "counter kmeans.update.chunks",
    "counter kmeans.update.items",
    "counter seed.hub_candidates",
    "counter seed.hub_seeds",
    "counter seed.padded_seeds",
    "counter seed.quality_rejected",
    "gauge corpus.pages",
    "gauge corpus.terms",
    "gauge kmeans.converged",
    "histogram corpus.vectorize.chunk_us",
    "histogram kmeans.assign.chunk_us",
    "histogram kmeans.moved_fraction",
    "histogram kmeans.update.chunk_us",
    "span cluster",
    "span cluster/kmeans.assign",
    "span cluster/kmeans.update",
    "span cluster/seed.select_hub_clusters",
    "span corpus.anchors",
    "span corpus.tfidf",
    "span corpus.vectorize",
];

/// HAC (average linkage) over the graph.
const HAC_GRAPH: &[&str] = &[
    "counter corpus.vectorize.chunks",
    "counter corpus.vectorize.items",
    "counter hac.dissimilarity_matrix.chunks",
    "counter hac.dissimilarity_matrix.items",
    "counter hac.merges",
    "gauge corpus.pages",
    "gauge corpus.terms",
    "gauge hac.final_groups",
    "gauge hac.initial_groups",
    "histogram corpus.vectorize.chunk_us",
    "histogram hac.dissimilarity_matrix.chunk_us",
    "span cluster",
    "span cluster/hac.dissimilarity_matrix",
    "span cluster/hac.merge_scan",
    "span corpus.tfidf",
    "span corpus.vectorize",
];

/// Bisecting k-means over the graph.
const BISECT_GRAPH: &[&str] = &[
    "counter bisect.splits",
    "counter bisect.trials",
    "counter corpus.vectorize.chunks",
    "counter corpus.vectorize.items",
    "counter kmeans.assign.chunks",
    "counter kmeans.assign.items",
    "counter kmeans.iterations",
    "counter kmeans.update.chunks",
    "counter kmeans.update.items",
    "gauge corpus.pages",
    "gauge corpus.terms",
    "gauge kmeans.converged",
    "histogram corpus.vectorize.chunk_us",
    "histogram kmeans.assign.chunk_us",
    "histogram kmeans.moved_fraction",
    "histogram kmeans.update.chunk_us",
    "span cluster",
    "span cluster/bisect.split",
    "span cluster/bisect.split/kmeans.assign",
    "span cluster/bisect.split/kmeans.update",
    "span corpus.tfidf",
    "span corpus.vectorize",
];

/// Every pipeline shape records the same metric and span names as before
/// the `x` / `x_exec` / `x_obs` triplets were folded into one function
/// each: a stage that now receives a disabled handle drops its names from
/// the list. The lists above were recorded from the triplet-era code.
#[test]
fn metric_names_match_the_recorded_lists() {
    let (clean, mutated) = target_html();
    let clean: Vec<&str> = clean.iter().map(String::as_str).collect();
    let mutated: Vec<&str> = mutated.iter().map(String::as_str).collect();
    let web = web();
    let targets = web.form_page_ids();
    let model = ModelOptions::default();
    let policy = ExecPolicy::Serial;
    let html = |pages: &[&str], obs: &Obs| {
        FormPageCorpus::from_html(pages.iter().copied(), &model, policy, obs)
    };
    let ingest = |pages: &[&str], obs: &Obs| {
        FormPageCorpus::from_shards([pages], &model, &IngestLimits::new(), policy, obs).0
    };
    let graph = |anchors: bool, obs: &Obs| {
        FormPageCorpus::from_graph(&web.graph, &targets, &model, anchors, policy, obs)
    };
    let kmeans = KMeansOptions::default();
    let run_cafc_c = |corpus: &FormPageCorpus, obs: &Obs| {
        clustered(corpus, 2, obs, |space, rng| {
            cafc_c(space, 8, &kmeans, rng, policy, obs);
        })
    };
    let run_cafc_ch = |corpus: &FormPageCorpus, obs: &Obs| {
        clustered(corpus, 2, obs, |space, rng| {
            cafc_ch(&web.graph, &targets, space, &hub_config(), rng, policy, obs);
        })
    };
    let run_hac = |corpus: &FormPageCorpus, obs: &Obs| {
        let opts = HacOptions {
            target_clusters: 8,
            linkage: Linkage::Average,
        };
        clustered(corpus, 2, obs, |space, _| {
            hac(space, &[], &opts, policy, obs);
        })
    };
    let run_bisect = |corpus: &FormPageCorpus, obs: &Obs| {
        let opts = BisectOptions {
            target_clusters: 8,
            trials: 2,
            kmeans,
        };
        clustered(corpus, 2, obs, |space, rng| {
            bisecting_kmeans(space, &opts, rng, policy, obs);
        })
    };
    let cases = [
        (
            "CAFC_C_HTML",
            names_of_run(|obs| run_cafc_c(&html(&clean, obs), obs)),
            CAFC_C_HTML,
        ),
        (
            "CAFC_C_INGEST",
            names_of_run(|obs| run_cafc_c(&ingest(&mutated, obs), obs)),
            CAFC_C_INGEST,
        ),
        (
            "CAFC_CH_GRAPH",
            names_of_run(|obs| run_cafc_ch(&graph(false, obs), obs)),
            CAFC_CH_GRAPH,
        ),
        (
            "CAFC_CH_ANCHORS",
            names_of_run(|obs| run_cafc_ch(&graph(true, obs), obs)),
            CAFC_CH_ANCHORS,
        ),
        (
            "HAC_GRAPH",
            names_of_run(|obs| run_hac(&graph(false, obs), obs)),
            HAC_GRAPH,
        ),
        (
            "BISECT_GRAPH",
            names_of_run(|obs| run_bisect(&graph(false, obs), obs)),
            BISECT_GRAPH,
        ),
    ];
    for (case, names, expected) in cases {
        assert_eq!(names, expected, "metric names of {case}");
    }
}
