//! Determinism contract of the execution layer: every [`ExecPolicy`] —
//! serial, one worker, an awkward prime number of workers, auto-detected —
//! must produce *byte-identical* results: the same partitions, the same
//! ingestion reports in the same order, the same floating-point quality
//! numbers down to the last bit. Also proves the [`Pipeline`] front door
//! reproduces the free functions it wires exactly.
//!
//! CI runs this suite under `CAFC_TEST_THREADS=1` and `=4`; the variable
//! adds one more policy to every sweep.

use cafc::prelude::*;
use cafc::{cafc_c, cafc_ch, HubClusterOptions};
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

/// CAFC-CH end to end over a web graph: partitions, hub statistics and
/// quality numbers must not depend on the thread count.
#[test]
fn graph_cafc_ch_bitwise_identical_across_policies() {
    let web = web();
    let targets = web.form_page_ids();
    let labels = web.labels();
    let run = |policy: ExecPolicy| {
        Pipeline::builder()
            .algorithm(Algorithm::CafcCh(CafcChConfig::paper_default(8).with_hub(
                HubClusterOptions {
                    min_cardinality: 4,
                    ..Default::default()
                },
            )))
            .exec(policy)
            .seed(2)
            .build()
            .run_graph(&web.graph, &targets)
            .expect("graph input satisfies CAFC-CH")
    };
    let baseline = run(ExecPolicy::Serial);
    let baseline_q = quality_bits(&baseline.partition, &labels);
    for policy in policies() {
        let out = run(policy);
        assert_eq!(
            out.partition, baseline.partition,
            "partition diverged under {policy:?}"
        );
        assert_eq!(
            quality_bits(&out.partition, &labels),
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
        Pipeline::builder()
            .algorithm(Algorithm::CafcC { k: 8 })
            .ingest_limits(IngestLimits::new())
            .exec(policy)
            .seed(3)
            .build()
            .run_html(&pages)
            .expect("CafcC accepts HTML input")
    };
    let baseline = run(ExecPolicy::Serial);
    let baseline_report = baseline.ingest.as_ref().expect("limits configured");
    assert!(baseline_report.is_accounted());
    assert_eq!(baseline_report.total(), pages.len());
    for policy in policies() {
        let out = run(policy);
        let report = out.ingest.as_ref().expect("limits configured");
        assert_eq!(
            report, baseline_report,
            "IngestReport diverged under {policy:?}"
        );
        assert_eq!(
            out.partition, baseline.partition,
            "survivor partition diverged under {policy:?}"
        );
    }
}

/// Every HTML-capable algorithm behind the pipeline is policy-invariant.
#[test]
fn html_algorithms_identical_across_policies() {
    let web = web();
    let targets = web.form_page_ids();
    let htmls: Vec<&str> = targets
        .iter()
        .map(|p| web.graph.html(*p).unwrap_or(""))
        .collect();
    let algorithms = [
        Algorithm::CafcC { k: 6 },
        Algorithm::Hac {
            k: 6,
            linkage: Linkage::Average,
        },
        Algorithm::Bisect { k: 6, trials: 2 },
    ];
    for algorithm in algorithms {
        let run = |policy: ExecPolicy| {
            Pipeline::builder()
                .algorithm(algorithm.clone())
                .exec(policy)
                .seed(11)
                .build()
                .run_html(&htmls)
                .expect("HTML input suffices")
        };
        let baseline = run(ExecPolicy::Serial);
        for policy in policies() {
            let out = run(policy);
            assert_eq!(
                out.partition, baseline.partition,
                "{algorithm:?} diverged under {policy:?}"
            );
        }
    }
}

/// Observability is read-only: a pipeline with a metrics sink installed
/// (as `cafc cluster --metrics` does) must produce a byte-identical
/// partition to the same pipeline with no sink, under every policy.
#[test]
fn metrics_sink_does_not_perturb_clustering() {
    let web = web();
    let targets = web.form_page_ids();
    let labels = web.labels();
    let run = |policy: ExecPolicy, obs: cafc::Obs| {
        Pipeline::builder()
            .algorithm(Algorithm::CafcCh(CafcChConfig::paper_default(8).with_hub(
                HubClusterOptions {
                    min_cardinality: 4,
                    ..Default::default()
                },
            )))
            .exec(policy)
            .seed(2)
            .obs(obs)
            .build()
            .run_graph(&web.graph, &targets)
            .expect("graph input satisfies CAFC-CH")
    };
    let silent = run(ExecPolicy::Serial, cafc::Obs::disabled());
    let silent_q = quality_bits(&silent.partition, &labels);
    for policy in policies() {
        let obs = cafc::Obs::enabled();
        let instrumented = run(policy, obs.clone());
        assert_eq!(
            instrumented.partition, silent.partition,
            "metrics sink changed the partition under {policy:?}"
        );
        assert_eq!(
            quality_bits(&instrumented.partition, &labels),
            silent_q,
            "metrics sink changed quality bits under {policy:?}"
        );
        assert!(
            !obs.snapshot().is_empty(),
            "instrumented run must actually record metrics"
        );
    }
}

/// The pipeline is a *wrapper*, not a reimplementation: with the same seed
/// it must reproduce the `cafc_c` free function exactly.
#[test]
fn pipeline_matches_legacy_cafc_c() {
    let web = web();
    let targets = web.form_page_ids();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(4);
    let direct = cafc_c(
        &space,
        8,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );

    for policy in policies() {
        let out = Pipeline::builder()
            .algorithm(Algorithm::CafcC { k: 8 })
            .exec(policy)
            .seed(4)
            .build()
            .run_graph(&web.graph, &targets)
            .expect("CafcC accepts graph input");
        assert_eq!(
            out.partition, direct.partition,
            "pipeline CafcC != cafc_c under {policy:?}"
        );
    }
}

/// Same for the `cafc_ch` free function, including the seeding statistics
/// the outcome reports.
#[test]
fn pipeline_matches_legacy_cafc_ch() {
    let web = web();
    let targets = web.form_page_ids();
    let config = CafcChConfig::paper_default(8).with_hub(HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    });
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(6);
    let direct = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &config,
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );

    for policy in policies() {
        let out = Pipeline::builder()
            .algorithm(Algorithm::CafcCh(config.clone()))
            .exec(policy)
            .seed(6)
            .build()
            .run_graph(&web.graph, &targets)
            .expect("graph input satisfies CAFC-CH");
        assert_eq!(
            out.partition, direct.outcome.partition,
            "pipeline CafcCh != cafc_ch under {policy:?}"
        );
        match out.details {
            AlgorithmDetails::CafcCh {
                hub_seeds,
                padded_seeds,
                iterations,
                ..
            } => {
                assert_eq!(hub_seeds, direct.hub_seeds);
                assert_eq!(padded_seeds, direct.padded_seeds);
                assert_eq!(iterations, direct.outcome.iterations);
            }
            other => panic!("CafcCh must report CafcCh details, got {other:?}"),
        }
    }
}
