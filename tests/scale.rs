//! The scale tier (ROADMAP item 3): seeded runs of the sharded batch
//! pipeline at 10^4 pages in CI, with the 10^5 leg behind `--ignored`
//! (run it with `cargo test --test scale -- --ignored`, or via
//! `CAFC_SCALE_FULL=1` on the smoke test).
//!
//! What every size asserts, end to end:
//! * the accounting identity — every generated page is ok, degraded or
//!   quarantined, and the report balances;
//! * partition validity — every kept page in exactly one cluster;
//! * batched ≡ per-pair — k-means scoring each centroid against runs of
//!   items (`FormPageSpace::similarities`, a gather over a dense scatter)
//!   is bit-identical to k-means scoring one `similarity` call per
//!   (item, centroid) pair on the real `FormPageSpace`;
//! * policy invariance — `ExecPolicy::Serial` and `Parallel` produce
//!   byte-identical corpora and partitions.

use cafc::{
    ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, IngestLimits, KMeansOptions,
    ModelOptions,
};
use cafc::{MultiCentroid, Obs};
use cafc_cluster::{kmeans, random_singleton_seeds, ClusterSpace};
use cafc_corpus::{generate_sharded, ShardedCorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 8;
const SEED: u64 = 10;

/// The per-pair reference: `FormPageSpace` with the default
/// `ClusterSpace::similarities`, so k-means scores one `similarity` call
/// (a sparse merge per feature space) per (item, centroid) pair.
struct PerPair<'a>(&'a FormPageSpace<'a>);

impl ClusterSpace for PerPair<'_> {
    type Centroid = MultiCentroid;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn centroid(&self, members: &[usize]) -> MultiCentroid {
        self.0.centroid(members)
    }

    fn similarity(&self, centroid: &MultiCentroid, item: usize) -> f64 {
        self.0.similarity(centroid, item)
    }

    fn centroid_similarity(&self, a: &MultiCentroid, b: &MultiCentroid) -> f64 {
        self.0.centroid_similarity(a, b)
    }
}

fn corpus_cfg(pages: usize) -> ShardedCorpusConfig {
    ShardedCorpusConfig::new()
        .with_total_form_pages(pages)
        .with_shard_pages(512)
        .with_seed(SEED)
}

/// Build from shards under `policy`, returning the corpus and report.
fn build(pages: usize, policy: ExecPolicy) -> (FormPageCorpus, cafc::IngestReport) {
    let shards = generate_sharded(&corpus_cfg(pages), ExecPolicy::Serial);
    FormPageCorpus::from_shards(
        shards,
        &ModelOptions::default(),
        &IngestLimits::new(),
        policy,
        &Obs::disabled(),
    )
}

/// The full battery at one corpus size.
fn run_at(pages: usize) {
    // ---- sharded build, serial vs parallel --------------------------
    let (corpus, report) = build(pages, ExecPolicy::Serial);
    let (par_corpus, par_report) = build(pages, ExecPolicy::Parallel { threads: 4 });

    // Accounting identity: every page accounted, reports identical.
    assert!(report.is_accounted(), "unbalanced ingest report");
    assert_eq!(report.total(), pages);
    assert_eq!(
        report.ok() + report.degraded() + report.quarantined(),
        pages
    );
    assert_eq!(
        report.outcomes, par_report.outcomes,
        "policy changed outcomes"
    );

    // Corpus bit-equality across policies: dictionary and vectors.
    assert_eq!(corpus.dict.len(), par_corpus.dict.len());
    assert_eq!(corpus.len(), par_corpus.len());
    for i in 0..corpus.len() {
        assert_eq!(
            corpus.pc[i].entries(),
            par_corpus.pc[i].entries(),
            "pc[{i}]"
        );
        assert_eq!(
            corpus.fc[i].entries(),
            par_corpus.fc[i].entries(),
            "fc[{i}]"
        );
    }

    // ---- clustering: batched ≡ per-pair ≡ every policy --------------
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let n = space.len();
    assert_eq!(n, report.kept.len());
    let seeds = random_singleton_seeds(&space, K, &mut StdRng::seed_from_u64(SEED));
    let opts = KMeansOptions::default();
    let per_pair = kmeans(
        &PerPair(&space),
        &seeds,
        &opts,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let batched = kmeans(&space, &seeds, &opts, ExecPolicy::Serial, &Obs::disabled());
    let batched_par = kmeans(
        &space,
        &seeds,
        &opts,
        ExecPolicy::Parallel { threads: 4 },
        &Obs::disabled(),
    );

    assert_eq!(
        per_pair.partition.clusters(),
        batched.partition.clusters(),
        "batched scoring diverged from the per-pair reference"
    );
    assert_eq!(per_pair.iterations, batched.iterations);
    assert_eq!(per_pair.converged, batched.converged);
    assert_eq!(
        batched.partition.clusters(),
        batched_par.partition.clusters(),
        "batched scoring diverged across policies"
    );

    // Partition validity: every kept page in exactly one cluster.
    let mut assigned: Vec<usize> = batched
        .partition
        .clusters()
        .iter()
        .flatten()
        .copied()
        .collect();
    assigned.sort_unstable();
    assert_eq!(assigned, (0..n).collect::<Vec<_>>());
    assert!(batched.partition.num_clusters() <= K);
}

/// The CI smoke leg: 10^4 seeded pages through the whole battery. Set
/// `CAFC_SCALE_FULL=1` to extend this run to 10^5 pages in-process.
#[test]
fn scale_smoke_1e4() {
    run_at(10_000);
    if std::env::var("CAFC_SCALE_FULL").as_deref() == Ok("1") {
        run_at(100_000);
    }
}

/// The 10^5 leg, too slow for every CI run:
/// `cargo test --test scale -- --ignored`.
#[test]
#[ignore = "10^5 pages: minutes in debug builds; run explicitly"]
fn scale_full_1e5() {
    run_at(100_000);
}

/// Empty and singleton shards are legal inputs to the sharded build and
/// change nothing: the merge is invariant to the partition of pages into
/// shards, including degenerate ones.
#[test]
fn empty_and_singleton_shards_are_no_ops() {
    let cfg = corpus_cfg(60);
    let pages: Vec<String> = generate_sharded(&cfg, ExecPolicy::Serial)
        .into_iter()
        .flatten()
        .collect();
    let opts = ModelOptions::default();
    let limits = IngestLimits::new();
    let (base, base_report) = FormPageCorpus::from_shards(
        [&pages],
        &opts,
        &limits,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );

    // Interleave empty shards with singletons and one big tail shard.
    let mut shards: Vec<Vec<String>> = vec![Vec::new()];
    for p in &pages[..10] {
        shards.push(vec![p.clone()]);
        shards.push(Vec::new());
    }
    shards.push(pages[10..].to_vec());
    shards.push(Vec::new());
    let (sharded, report) =
        FormPageCorpus::from_shards(shards, &opts, &limits, ExecPolicy::Serial, &Obs::disabled());

    assert_eq!(base_report.outcomes, report.outcomes);
    assert_eq!(base.dict.len(), sharded.dict.len());
    for i in 0..base.len() {
        assert_eq!(base.pc[i].entries(), sharded.pc[i].entries());
        assert_eq!(base.fc[i].entries(), sharded.fc[i].entries());
    }
}

/// The memory budget degrades a build predictably: over-budget pages are
/// quarantined (never a panic, never an OOM-style unbounded keep), the
/// kept bytes stay under the budget, and the decision sequence is
/// identical across policies and shard sizes.
#[test]
fn budget_degrades_predictably_at_scale() {
    let cfg = corpus_cfg(200);
    let shards = generate_sharded(&cfg, ExecPolicy::Serial);
    let opts = ModelOptions::default();
    // Probe the unbudgeted cost, then halve it.
    let (_, free_report) = FormPageCorpus::from_shards(
        shards.clone(),
        &opts,
        &IngestLimits::new(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(free_report.quarantined(), 0, "unbudgeted run must keep all");
    let budget = {
        // Cost of the kept corpus: recompute from a zero-budget probe.
        let probe_limits = IngestLimits::new().with_max_corpus_bytes(0);
        let (_, probe) = FormPageCorpus::from_shards(
            shards.clone(),
            &opts,
            &probe_limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let total: usize = probe
            .outcomes
            .iter()
            .filter_map(|o| match o {
                cafc::PageOutcome::Quarantined {
                    error: cafc::IngestError::BudgetExhausted { needed, .. },
                    ..
                } => Some(*needed),
                _ => None,
            })
            .sum();
        assert!(total > 0);
        total / 2
    };
    let limits = IngestLimits::new().with_max_corpus_bytes(budget);
    let (squeezed, squeezed_report) = FormPageCorpus::from_shards(
        shards.clone(),
        &opts,
        &limits,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert!(
        squeezed_report.quarantined() > 0,
        "half the byte budget must quarantine pages"
    );
    assert!(squeezed.len() < free_report.kept.len());
    let kept_bytes: usize = squeezed
        .pc
        .iter()
        .zip(&squeezed.fc)
        .map(|(p, f)| p.heap_bytes() + f.heap_bytes())
        .sum();
    assert!(
        kept_bytes <= budget,
        "kept {kept_bytes} bytes against budget {budget}"
    );
    // Same decisions under a parallel policy and a different shard size.
    let (_, par_report) = FormPageCorpus::from_shards(
        shards,
        &opts,
        &limits.with_shard_pages(7),
        ExecPolicy::Parallel { threads: 3 },
        &Obs::disabled(),
    );
    assert_eq!(squeezed_report.outcomes, par_report.outcomes);
}
