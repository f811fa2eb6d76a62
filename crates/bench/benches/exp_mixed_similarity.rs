//! **Ablation (DESIGN.md §5.5)** — reinforcement composition vs a single
//! mixed similarity.
//!
//! The paper rejects adding a link term to Equation 3 because "it can be
//! hard to determine appropriate weights for each measure" (§3.1), and
//! composes the evidence in two phases instead. This bench implements the
//! rejected design (`sim = α·text + (1−α)·link`, k-means over it, averaged
//! over random seeds) across a sweep of α, and compares the *best* α
//! against CAFC-CH. The claim holds if CAFC-CH matches or beats every α
//! without having any weight to tune.

use cafc::baseline::MixedSimilaritySpace;
use cafc::{cafc_c, ExecPolicy, FeatureConfig, KMeansOptions, Obs};
use cafc_bench::{mean_quality, print_header, print_row, quality, run_cafc_ch, Bench, K};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    print_header(
        "Ablation: mixed text+link similarity (rejected design) vs CAFC-CH",
        "CAFC-CH should match/beat the best hand-tuned alpha without tuning",
    );
    let bench = Bench::paper_scale();
    let text = bench.space(FeatureConfig::combined());

    let mut results = Vec::new();
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mixed = MixedSimilaritySpace::new(text, &bench.web.graph, &bench.targets, 100, alpha);
        let qs: Vec<_> = (0..10)
            .map(|run| {
                let mut rng = StdRng::seed_from_u64(0xA1FA + run);
                let seeds = cafc_cluster::random_singleton_seeds(&mixed, K, &mut rng);
                let out = cafc_cluster::kmeans(
                    &mixed,
                    &seeds,
                    &KMeansOptions::default(),
                    ExecPolicy::Serial,
                    &Obs::disabled(),
                );
                quality(&out.partition, &bench.labels)
            })
            .collect();
        let q = mean_quality(&qs);
        print_row(&format!("mixed alpha={alpha:.2}"), &q);
        results.push((format!("alpha={alpha:.2}"), q));
    }

    // Reference points: pure-text CAFC-C and CAFC-CH.
    let mut rng = StdRng::seed_from_u64(0xA1FA);
    let c = cafc_c(
        &text,
        K,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let c_q = quality(&c.partition, &bench.labels);
    print_row("CAFC-C (one run)", &c_q);
    let (ch, _) = run_cafc_ch(&bench, &text, 8, 0xA1FA);
    print_row("CAFC-CH", &ch);
    results.push(("cafc_ch".into(), ch));

    let best_alpha = results
        .iter()
        .filter(|(n, _)| n.starts_with("alpha"))
        .min_by(|a, b| {
            a.1.entropy
                .partial_cmp(&b.1.entropy)
                .expect("finite entropies")
        })
        .expect("non-empty sweep");
    println!(
        "\nbest mixed alpha: {} (entropy {:.3}) vs CAFC-CH entropy {:.3} -> reinforcement {}",
        best_alpha.0,
        best_alpha.1.entropy,
        ch.entropy,
        if ch.entropy <= best_alpha.1.entropy + 0.02 {
            "CONFIRMED"
        } else {
            "NOT confirmed"
        }
    );
    cafc_bench::write_json("exp_mixed_similarity", results);
}
