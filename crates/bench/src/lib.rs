//! # cafc-bench
//!
//! Shared experiment machinery for regenerating every table and figure of
//! the paper. Each bench target (`benches/*.rs`, built with
//! `harness = false`) calls into this crate, runs one experiment on the
//! default 454-page synthetic corpus, and prints the same rows/series the
//! paper reports; `EXPERIMENTS.md` records paper-vs-measured.

#![warn(missing_docs)]

use cafc::obs::json::Value;
use cafc::{
    cafc_c, cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace,
    KMeansOptions, LocationWeights, ModelOptions, Obs, Partition,
};
use cafc_corpus::{generate, CorpusConfig, Domain, SyntheticWeb};
use cafc_eval::EntropyBase;
use cafc_webgraph::{HubClusterOptions, PageId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's cluster count (8 domains).
pub const K: usize = 8;
/// CAFC-C runs are averaged over this many random seedings (paper: 20).
pub const CAFC_C_RUNS: u64 = 20;

/// A prepared experiment environment: the synthetic web plus vectorized
/// corpora under both weighting schemes.
pub struct Bench {
    /// The generated web.
    pub web: SyntheticWeb,
    /// Form-page targets aligned with corpus items.
    pub targets: Vec<PageId>,
    /// Gold labels aligned with corpus items.
    pub labels: Vec<Domain>,
    /// Corpus with differentiated LOC weights (the paper's default).
    pub corpus: FormPageCorpus,
    /// Corpus with uniform weights (the §4.4 ablation).
    pub corpus_uniform: FormPageCorpus,
    /// Corpus with the anchor-text extension vectors.
    pub corpus_anchors: FormPageCorpus,
}

impl Bench {
    /// Build the default paper-scale environment (454 pages).
    pub fn paper_scale() -> Bench {
        Bench::with_config(&CorpusConfig::default())
    }

    /// Build from an explicit corpus configuration.
    pub fn with_config(config: &CorpusConfig) -> Bench {
        let web = generate(config);
        let targets = web.form_page_ids();
        let labels = web.labels();
        let build = |opts: ModelOptions, anchors| {
            let (policy, obs) = (ExecPolicy::Serial, &Obs::disabled());
            FormPageCorpus::from_graph(&web.graph, &targets, &opts, anchors, policy, obs)
        };
        let corpus = build(ModelOptions::default(), false);
        let corpus_uniform = build(
            ModelOptions::new().with_weights(LocationWeights::uniform()),
            false,
        );
        let corpus_anchors = build(ModelOptions::default(), true);
        Bench {
            web,
            targets,
            labels,
            corpus,
            corpus_uniform,
            corpus_anchors,
        }
    }

    /// A space over the default corpus.
    pub fn space(&self, config: FeatureConfig) -> FormPageSpace<'_> {
        FormPageSpace::new(&self.corpus, config)
    }
}

/// Cluster-quality summary for one clustering.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Equation-5 entropy (log base 2).
    pub entropy: f64,
    /// Equation-6 F-measure (cluster-weighted, per the paper).
    pub f_measure: f64,
    /// Larsen–Aone class-weighted F.
    pub f_by_class: f64,
    /// Purity.
    pub purity: f64,
}

impl From<Quality> for Value {
    fn from(q: Quality) -> Value {
        Value::object([
            ("entropy", q.entropy.into()),
            ("f_measure", q.f_measure.into()),
            ("f_by_class", q.f_by_class.into()),
            ("purity", q.purity.into()),
        ])
    }
}

/// Evaluate a partition against gold labels.
pub fn quality(partition: &Partition, labels: &[Domain]) -> Quality {
    let clusters = partition.clusters();
    Quality {
        entropy: cafc_eval::entropy(clusters, labels, EntropyBase::Two),
        f_measure: cafc_eval::f_measure(clusters, labels),
        f_by_class: cafc_eval::f_measure_by_class(clusters, labels),
        purity: cafc_eval::purity(clusters, labels),
    }
}

/// Mean of a set of quality summaries.
pub fn mean_quality(qs: &[Quality]) -> Quality {
    let n = qs.len().max(1) as f64;
    Quality {
        entropy: qs.iter().map(|q| q.entropy).sum::<f64>() / n,
        f_measure: qs.iter().map(|q| q.f_measure).sum::<f64>() / n,
        f_by_class: qs.iter().map(|q| q.f_by_class).sum::<f64>() / n,
        purity: qs.iter().map(|q| q.purity).sum::<f64>() / n,
    }
}

/// CAFC-C averaged over [`CAFC_C_RUNS`] random seedings.
pub fn run_cafc_c_avg(space: &FormPageSpace<'_>, labels: &[Domain], base_seed: u64) -> Quality {
    let qs: Vec<Quality> = (0..CAFC_C_RUNS)
        .map(|run| {
            let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(run));
            let out = cafc_c(
                space,
                K,
                &KMeansOptions::default(),
                &mut rng,
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            quality(&out.partition, labels)
        })
        .collect();
    mean_quality(&qs)
}

/// One CAFC-C run (for callers that need the partition itself).
pub fn run_cafc_c_once(space: &FormPageSpace<'_>, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    cafc_c(
        space,
        K,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    )
    .partition
}

/// CAFC-CH with the given minimum hub-cluster cardinality.
pub fn run_cafc_ch(
    bench: &Bench,
    space: &FormPageSpace<'_>,
    min_cardinality: usize,
    seed: u64,
) -> (Quality, cafc::CafcChOutcome) {
    let config = CafcChConfig::paper_default(K).with_hub(HubClusterOptions {
        min_cardinality,
        ..HubClusterOptions::default()
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = cafc_ch(
        &bench.web.graph,
        &bench.targets,
        space,
        &config,
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    (quality(&outcome.outcome.partition, &bench.labels), outcome)
}

/// Pretty-print one metric row.
pub fn print_row(label: &str, q: &Quality) {
    println!(
        "{label:<28} entropy {:>6.3}   F {:>5.3}   F(class) {:>5.3}   purity {:>5.3}",
        q.entropy, q.f_measure, q.f_by_class, q.purity
    );
}

/// Make seed clusters disjoint: an item claimed by an earlier seed is
/// dropped from later ones (HAC needs a partition; k-means does not care).
pub fn disjoint_seeds(seeds: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut claimed = std::collections::HashSet::new();
    seeds
        .iter()
        .map(|s| {
            s.iter()
                .copied()
                .filter(|&i| claimed.insert(i))
                .collect::<Vec<usize>>()
        })
        .filter(|s| !s.is_empty())
        .collect()
}

/// Persist experiment output as indented JSON under `experiments/` at the
/// workspace root (next to `EXPERIMENTS.md`). Tuples become arrays and row
/// structs objects, via their `Into<Value>` conversions. Failures are
/// reported, not fatal — the printed tables are the primary artifact.
pub fn write_json(name: &str, value: impl Into<Value>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    let path = dir.join(format!("{name}.json"));
    let result = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, value.into().render_pretty()));
    match result {
        Ok(()) => println!("\n[wrote {}]", path.display()),
        Err(e) => eprintln!("\n[could not write {}: {e}]", path.display()),
    }
}

/// Standard experiment header.
pub fn print_header(title: &str, paper_says: &str) {
    println!("================================================================");
    println!("{title}");
    println!("paper: {paper_says}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_builds_on_small_corpus() {
        let b = Bench::with_config(&CorpusConfig::small(11));
        assert_eq!(b.corpus.len(), b.targets.len());
        assert_eq!(b.labels.len(), b.targets.len());
        let space = b.space(FeatureConfig::combined());
        let q = run_cafc_c_avg(&space, &b.labels, 1);
        assert!(q.entropy >= 0.0 && q.f_measure > 0.0);
    }

    #[test]
    fn mean_quality_averages() {
        let a = Quality {
            entropy: 1.0,
            f_measure: 0.5,
            f_by_class: 0.5,
            purity: 0.5,
        };
        let b = Quality {
            entropy: 3.0,
            f_measure: 1.0,
            f_by_class: 1.0,
            purity: 1.0,
        };
        let m = mean_quality(&[a, b]);
        assert_eq!(m.entropy, 2.0);
        assert_eq!(m.f_measure, 0.75);
    }
}
