//! **Extension (ours)** — choosing `k` without gold labels.
//!
//! The paper fixes `k = 8` (the gold domain count). A deployed system must
//! discover it: this bench sweeps `k` from 2 to 16 with CAFC-CH, scoring
//! each clustering by mean silhouette (no labels used), and checks whether
//! the silhouette-optimal `k` recovers the true domain count.

use cafc::obs::json::Value;
use cafc::{cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, Obs};
use cafc_bench::{print_header, quality, Bench};
use cafc_cluster::mean_silhouette;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Row {
    k: usize,
    silhouette: f64,
    entropy: f64,
    f_measure: f64,
}

impl From<Row> for Value {
    fn from(r: Row) -> Value {
        Value::object([
            ("k", r.k.into()),
            ("silhouette", r.silhouette.into()),
            ("entropy", r.entropy.into()),
            ("f_measure", r.f_measure.into()),
        ])
    }
}

fn main() {
    print_header(
        "Extension: silhouette-based selection of k (CAFC-CH sweep, k = 2..16)",
        "the unsupervised optimum should land at (or near) the true k = 8",
    );
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());

    println!(
        "{:>4} {:>12} {:>10} {:>8}",
        "k", "silhouette", "entropy", "F"
    );
    let mut rows = Vec::new();
    for k in 2..=16 {
        let config = CafcChConfig::paper_default(k);
        let mut rng = StdRng::seed_from_u64(0xC0);
        let out = cafc_ch(
            &bench.web.graph,
            &bench.targets,
            &space,
            &config,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        // A degenerate partition (undefined silhouette) ranks below every
        // real score.
        let sil = mean_silhouette(&space, &out.outcome.partition).unwrap_or(-1.0);
        let q = quality(&out.outcome.partition, &bench.labels);
        println!(
            "{:>4} {:>12.4} {:>10.3} {:>8.3}",
            k, sil, q.entropy, q.f_measure
        );
        rows.push(Row {
            k,
            silhouette: sil,
            entropy: q.entropy,
            f_measure: q.f_measure,
        });
    }

    let best = rows
        .iter()
        .max_by(|a, b| a.silhouette.partial_cmp(&b.silhouette).expect("finite"))
        .expect("rows");
    println!(
        "\nsilhouette-optimal k = {} (true domain count: 8){}",
        best.k,
        if (7..=9).contains(&best.k) {
            " -> recovered"
        } else {
            ""
        }
    );
    cafc_bench::write_json("exp_choose_k", rows);
}
