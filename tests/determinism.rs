//! Determinism contract of the execution layer: every [`ExecPolicy`] —
//! serial, one worker, an awkward prime number of workers, auto-detected —
//! must produce *byte-identical* results: the same partitions, the same
//! ingestion reports in the same order, the same floating-point quality
//! numbers down to the last bit. Each run calls the stage functions the
//! way `cafc cluster` does: a corpus constructor, then `FormPageSpace`,
//! then one clustering algorithm.
//!
//! CI runs this suite under `CAFC_TEST_THREADS=1` and `=4`; the variable
//! adds one more policy to every sweep.

use cafc::{
    cafc_c, cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace,
    HacOptions, HubClusterOptions, IngestLimits, KMeansOptions, Linkage, ModelOptions, Obs,
    Partition,
};
use cafc_cluster::{bisecting_kmeans, hac, BisectOptions};
use cafc_corpus::{generate, mutate_page, page_rng, CorpusConfig, Mutation, SyntheticWeb};
use cafc_eval::EntropyBase;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The policies every assertion sweeps. `CAFC_TEST_THREADS=N` (CI matrix)
/// appends one more `Parallel { threads: N }` entry.
fn policies() -> Vec<ExecPolicy> {
    let mut ps = vec![
        ExecPolicy::Serial,
        ExecPolicy::Parallel { threads: 1 },
        ExecPolicy::Parallel { threads: 7 },
        ExecPolicy::Auto,
    ];
    if let Ok(v) = std::env::var("CAFC_TEST_THREADS") {
        let threads: usize = v
            .parse()
            .expect("CAFC_TEST_THREADS must be a positive thread count");
        assert!(threads >= 1, "CAFC_TEST_THREADS must be >= 1");
        ps.push(ExecPolicy::Parallel { threads });
    }
    ps
}

fn web() -> SyntheticWeb {
    generate(&CorpusConfig::small(7))
}

fn quality_bits(partition: &Partition, labels: &[cafc_corpus::Domain]) -> (u64, u64) {
    let clusters = partition.clusters();
    (
        cafc_eval::entropy(clusters, labels, EntropyBase::Two).to_bits(),
        cafc_eval::f_measure(clusters, labels).to_bits(),
    )
}

/// CAFC-CH at k = 8 (hub clusters of at least 4 pages) over the web's
/// target pages, with `seed` and the given policy and handle.
fn graph_cafc_ch(web: &SyntheticWeb, seed: u64, policy: ExecPolicy, obs: &Obs) -> Partition {
    let targets = web.form_page_ids();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        policy,
        obs,
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let config = CafcChConfig::paper_default(8).with_hub(HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let out = cafc_ch(&web.graph, &targets, &space, &config, &mut rng, policy, obs);
    out.outcome.partition
}

/// CAFC-CH end to end over a web graph: partitions, hub statistics and
/// quality numbers must not depend on the thread count.
#[test]
fn graph_cafc_ch_bitwise_identical_across_policies() {
    let web = web();
    let labels = web.labels();
    let run = |policy: ExecPolicy| graph_cafc_ch(&web, 2, policy, &Obs::disabled());
    let baseline = run(ExecPolicy::Serial);
    let baseline_q = quality_bits(&baseline, &labels);
    for policy in policies() {
        let out = run(policy);
        assert_eq!(out, baseline, "partition diverged under {policy:?}");
        assert_eq!(
            quality_bits(&out, &labels),
            baseline_q,
            "entropy/F bits diverged under {policy:?}"
        );
    }
}

/// Hardened ingestion of adversarial HTML: the `IngestReport` — outcome
/// order, kept indices, degradation reasons, accounting — must be
/// identical under every policy, as must the clustering of the survivors.
#[test]
fn html_ingest_identical_across_policies() {
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

    let run = |policy: ExecPolicy| {
        let obs = Obs::disabled();
        let (corpus, report) = FormPageCorpus::from_shards(
            [&pages],
            &ModelOptions::default(),
            &IngestLimits::new(),
            policy,
            &obs,
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let mut rng = StdRng::seed_from_u64(3);
        let opts = KMeansOptions::default();
        let out = cafc_c(&space, 8, &opts, &mut rng, policy, &obs);
        (report, out.partition)
    };
    let (baseline_report, baseline) = run(ExecPolicy::Serial);
    assert!(baseline_report.is_accounted());
    assert_eq!(baseline_report.total(), pages.len());
    for policy in policies() {
        let (report, partition) = run(policy);
        assert_eq!(
            report, baseline_report,
            "IngestReport diverged under {policy:?}"
        );
        assert_eq!(
            partition, baseline,
            "survivor partition diverged under {policy:?}"
        );
    }
}

/// One clustering algorithm at k = 6 over a corpus's space.
type Algorithm = fn(&FormPageSpace<'_>, &mut StdRng, ExecPolicy) -> Partition;

/// Every algorithm that clusters raw HTML is policy-invariant.
#[test]
fn html_algorithms_identical_across_policies() {
    let web = web();
    let targets = web.form_page_ids();
    let htmls: Vec<&str> = targets
        .iter()
        .map(|p| web.graph.html(*p).unwrap_or(""))
        .collect();
    let algorithms: [(&str, Algorithm); 3] = [
        ("cafc-c", |space, rng, policy| {
            let opts = KMeansOptions::default();
            cafc_c(space, 6, &opts, rng, policy, &Obs::disabled()).partition
        }),
        ("hac", |space, _, policy| {
            let opts = HacOptions {
                target_clusters: 6,
                linkage: Linkage::Average,
            };
            hac(space, &[], &opts, policy, &Obs::disabled())
        }),
        ("bisect", |space, rng, policy| {
            let opts = BisectOptions {
                target_clusters: 6,
                trials: 2,
                kmeans: KMeansOptions::default(),
            };
            bisecting_kmeans(space, &opts, rng, policy, &Obs::disabled())
        }),
    ];
    for (algorithm, cluster) in algorithms {
        let run = |policy: ExecPolicy| {
            let corpus = FormPageCorpus::from_html(
                htmls.iter().copied(),
                &ModelOptions::default(),
                policy,
                &Obs::disabled(),
            );
            let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
            cluster(&space, &mut StdRng::seed_from_u64(11), policy)
        };
        let baseline = run(ExecPolicy::Serial);
        for policy in policies() {
            let out = run(policy);
            assert_eq!(out, baseline, "{algorithm} diverged under {policy:?}");
        }
    }
}

/// Observability is read-only: a run with a metrics sink installed (as
/// `cafc cluster --metrics` does) must produce a byte-identical partition
/// to the same run with no sink, under every policy.
#[test]
fn metrics_sink_does_not_perturb_clustering() {
    let web = web();
    let labels = web.labels();
    let silent = graph_cafc_ch(&web, 2, ExecPolicy::Serial, &Obs::disabled());
    let silent_q = quality_bits(&silent, &labels);
    for policy in policies() {
        let obs = Obs::enabled();
        let instrumented = graph_cafc_ch(&web, 2, policy, &obs);
        assert_eq!(
            instrumented, silent,
            "metrics sink changed the partition under {policy:?}"
        );
        assert_eq!(
            quality_bits(&instrumented, &labels),
            silent_q,
            "metrics sink changed quality bits under {policy:?}"
        );
        assert!(
            !obs.snapshot().is_empty(),
            "instrumented run must actually record metrics"
        );
    }
}
