//! The crash-recovery matrix: every resumable pipeline stage (crawl,
//! ingest, k-means, HAC) × every injected I/O fault kind.
//!
//! The contract under test, for each cell of the matrix: a run whose
//! checkpoint store faults at *any* mutating operation either completes
//! with the uninterrupted result (silent faults) or fails with a typed
//! [`StoreError`] — it never panics — and a subsequent `--resume` on the
//! real filesystem always succeeds and reproduces the uninterrupted run
//! **bit-identically** (digests below are `Debug` renderings of every
//! output field).
//!
//! Fixed injection points cover the early store operations where the
//! journal fingerprint and first snapshots live; the `cafc-check`
//! property sweeps randomized seeded fault schedules (replayable via the
//! printed `CAFC_CHECK_SEED`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cafc::{
    ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, IngestLimits, ModelOptions, Obs,
};
use cafc_check::gen::{f64s, pairs, usizes};
use cafc_check::{check, require, require_eq, CheckConfig};
use cafc_cluster::{
    hac_resumable, kmeans_resumable, random_singleton_seeds, HacOptions, KMeansOptions, Linkage,
};
use cafc_corpus::{generate, CorpusConfig, SyntheticWeb};
use cafc_crawler::{crawl_resumable, ChaosFetcher, FaultConfig, ResilientConfig};
use cafc_store::{ChaosFs, FaultKind, FaultPlan, StdFs, Store, StoreConfig, StoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STAGES: [&str; 4] = ["crawl", "ingest", "kmeans", "hac"];

/// A fresh directory for one call. Tests run concurrently and several
/// call `baseline(stage)` for the same stage, so the name carries a
/// process-wide sequence number: no two calls share (or delete) a store.
fn tmpdir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cafc-crash-recovery-{name}-{}-{call}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic inputs shared by every stage.
struct Fixture {
    web: SyntheticWeb,
    htmls: Vec<String>,
    corpus: FormPageCorpus,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let web = generate(&CorpusConfig::small(seed));
        let targets = web.form_page_ids();
        let htmls: Vec<String> = targets
            .iter()
            .map(|p| web.graph.html(*p).unwrap_or("").to_owned())
            .collect();
        let corpus = FormPageCorpus::from_graph(
            &web.graph,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Auto,
            &Obs::disabled(),
        );
        Fixture { web, htmls, corpus }
    }
}

/// Fetch faults for the crawl stage — transient, permanent, truncation
/// and redirect chaos all active, so dead-letters and retries exercise
/// the journal.
fn fetch_faults() -> FaultConfig {
    FaultConfig {
        transient_rate: 0.25,
        permanent_rate: 0.05,
        truncate_rate: 0.1,
        redirect_rate: 0.05,
        seed: 1234,
        ..FaultConfig::default()
    }
}

/// Digest an ingest outcome field by field. The corpus's `Debug` cannot
/// be used directly: `TermDict` renders its term→id hash map in map
/// iteration order, which varies run to run. Its id-order iterator is
/// deterministic, and every vector stores entries in term-id order.
fn ingest_digest(corpus: &FormPageCorpus, report: &cafc::IngestReport) -> String {
    let dict: Vec<(u32, &str)> = corpus.dict.iter().map(|(id, term)| (id.0, term)).collect();
    format!(
        "{dict:?} {:?} {:?} {:?} {report:?}",
        corpus.pc, corpus.fc, corpus.anchor
    )
}

/// Run one full stage against `store`, digesting its complete outcome.
fn digest_stage(
    stage: &str,
    fx: &Fixture,
    store: &mut Store,
    resume: bool,
) -> Result<String, StoreError> {
    let policy = ExecPolicy::Auto;
    match stage {
        "crawl" => {
            let mut fetcher = ChaosFetcher::over_graph(&fx.web.graph, fetch_faults());
            crawl_resumable(
                &fx.web.graph,
                &mut fetcher,
                fx.web.portal,
                &ResilientConfig::default(),
                &Obs::disabled(),
                store,
                resume,
            )
            .map(|o| format!("{o:?}"))
        }
        "ingest" => FormPageCorpus::from_html_ingest_resumable(
            fx.htmls.iter().map(String::as_str),
            &ModelOptions::default(),
            &IngestLimits::default(),
            policy,
            &Obs::disabled(),
            store,
            resume,
        )
        .map(|(corpus, report)| ingest_digest(&corpus, &report)),
        "kmeans" => {
            let space = FormPageSpace::new(&fx.corpus, FeatureConfig::combined());
            let seeds = random_singleton_seeds(&space, 5, &mut StdRng::seed_from_u64(11));
            kmeans_resumable(
                &space,
                &seeds,
                &KMeansOptions::default(),
                policy,
                &Obs::disabled(),
                store,
                resume,
            )
            .map(|o| format!("{:?} {} {}", o.partition, o.iterations, o.converged))
        }
        "hac" => {
            let space = FormPageSpace::new(&fx.corpus, FeatureConfig::combined());
            hac_resumable(
                &space,
                &[],
                &HacOptions {
                    target_clusters: 5,
                    linkage: Linkage::Average,
                },
                policy,
                &Obs::disabled(),
                store,
                resume,
            )
            .map(|p| format!("{p:?}"))
        }
        other => unreachable!("unknown stage {other}"),
    }
}

/// Uninterrupted baseline digest for a stage, from a clean store.
fn baseline(stage: &str, fx: &Fixture, cfg: StoreConfig) -> String {
    let dir = tmpdir(&format!("{stage}-baseline"));
    let mut store = Store::open(&dir, cfg, Obs::disabled()).expect("open baseline store");
    let digest = digest_stage(stage, fx, &mut store, false).expect("uninterrupted run");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    digest
}

/// The fixed-point matrix: every stage × every fault kind × each of the
/// first store operations. Crash (or corrupt), resume, compare.
#[test]
fn every_stage_recovers_from_every_fault_kind() {
    let fx = Fixture::new(41);
    let cfg = StoreConfig::new().with_checkpoint_every(3);
    for stage in STAGES {
        let expected = baseline(stage, &fx, cfg);
        for kind in FaultKind::ALL {
            for op in 0..5u64 {
                let label = format!("{stage}/{}/op{op}", kind.label());
                let dir = tmpdir(&label.replace('/', "-"));
                let chaos = ChaosFs::new(StdFs, FaultPlan::AtOp { op, kind });
                let first = match Store::open_with_vfs(Box::new(chaos), &dir, cfg, Obs::disabled())
                {
                    Ok(mut store) => digest_stage(stage, &fx, &mut store, false),
                    Err(e) => Err(e),
                };
                // Reaching this line means the faulted run did not panic:
                // it either completed — in which case its in-memory result
                // must already match the baseline — or it returned a typed
                // StoreError (the "crash").
                if let Ok(digest) = &first {
                    assert_eq!(digest, &expected, "{label}: completed faulted run diverged");
                }
                let mut store = Store::open(&dir, cfg, Obs::disabled()).expect("reopen");
                let resumed = digest_stage(stage, &fx, &mut store, true)
                    .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
                assert_eq!(resumed, expected, "{label}: resume diverged from baseline");
                drop(store);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Randomized seeded fault schedules: whatever the schedule breaks, a
/// resume on the real filesystem reproduces the uninterrupted result.
#[test]
fn randomized_fault_schedules_always_recover() {
    let fx = Fixture::new(17);
    let cfg = StoreConfig::new().with_checkpoint_every(2);
    let baselines: Vec<String> = STAGES.iter().map(|s| baseline(s, &fx, cfg)).collect();

    let cases = pairs(
        &usizes(0, STAGES.len() - 1),
        &pairs(&usizes(0, 1 << 20), &f64s(0.02, 0.5)),
    );
    check!(CheckConfig::new().with_cases(12), cases, |case| {
        let (stage_i, (fault_seed, rate)) = *case;
        let stage = STAGES[stage_i];
        let dir = tmpdir(&format!("seeded-{stage}-{fault_seed}"));
        let chaos = ChaosFs::new(
            StdFs,
            FaultPlan::Seeded {
                seed: fault_seed as u64,
                rate,
            },
        );
        // The faulted leg is allowed to crash anywhere (or nowhere).
        if let Ok(mut store) = Store::open_with_vfs(Box::new(chaos), &dir, cfg, Obs::disabled()) {
            let _ = digest_stage(stage, &fx, &mut store, false);
        }
        let resumed = Store::open(&dir, cfg, Obs::disabled())
            .and_then(|mut store| digest_stage(stage, &fx, &mut store, true));
        let _ = std::fs::remove_dir_all(&dir);
        match resumed {
            Err(e) => require!(false, "{stage} seed {fault_seed}: resume failed: {e}"),
            Ok(digest) => require_eq!(digest, baselines[stage_i].clone()),
        }
        Ok(())
    });
}

/// The store's observability counters tell the recovery story: snapshots
/// and journal appends during the run, recoveries on resume, corrupt
/// discards when silent bit flips are found and thrown away.
#[test]
fn store_counters_cover_snapshots_journal_recovery_and_corruption() {
    let fx = Fixture::new(23);
    let cfg = StoreConfig::new().with_checkpoint_every(2);
    let expected = baseline("ingest", &fx, cfg);
    let obs = Obs::enabled();

    // Sweep bit flips over the early store ops: every run completes (the
    // fault is silent), at least one flip lands in a journal or snapshot
    // payload, and every resume must detect it, discard, and still match.
    for op in 0..6u64 {
        let dir = tmpdir(&format!("counters-{op}"));
        let chaos = ChaosFs::new(
            StdFs,
            FaultPlan::AtOp {
                op,
                kind: FaultKind::BitFlip,
            },
        );
        let mut store =
            Store::open_with_vfs(Box::new(chaos), &dir, cfg, obs.clone()).expect("open chaos");
        digest_stage("ingest", &fx, &mut store, false).expect("silent fault run completes");
        drop(store);
        let mut store = Store::open(&dir, cfg, obs.clone()).expect("reopen");
        let resumed = digest_stage("ingest", &fx, &mut store, true).expect("resume");
        assert_eq!(resumed, expected, "bit flip at op {op} changed the result");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let snap = obs.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    assert!(counter("store.snapshots") > 0, "no snapshots recorded");
    assert!(
        counter("store.journal_appends") > 0,
        "no journal appends recorded"
    );
    assert!(counter("store.recoveries") > 0, "no recoveries recorded");
    assert!(
        counter("store.corrupt_discards") > 0,
        "no bit flip was ever detected and discarded:\n{:?}",
        snap.counters
    );
}

/// Resuming against different inputs is refused with a typed error, not
/// silently blended into the wrong run.
#[test]
fn resume_with_different_inputs_is_a_typed_refusal() {
    let fx = Fixture::new(29);
    let cfg = StoreConfig::new();
    let dir = tmpdir("refusal");
    let mut store = Store::open(&dir, cfg, Obs::disabled()).expect("open");
    digest_stage("ingest", &fx, &mut store, false).expect("first run");
    drop(store);

    let reversed: Vec<&str> = fx.htmls.iter().rev().map(String::as_str).collect();
    let mut store = Store::open(&dir, cfg, Obs::disabled()).expect("reopen");
    let err = FormPageCorpus::from_html_ingest_resumable(
        reversed,
        &ModelOptions::default(),
        &IngestLimits::default(),
        ExecPolicy::Auto,
        &Obs::disabled(),
        &mut store,
        true,
    )
    .expect_err("different pages must not resume this checkpoint");
    assert!(
        matches!(err, StoreError::FingerprintMismatch { .. }),
        "expected FingerprintMismatch, got {err:?}"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
