//! **Extended Table 2 (ours)** — a wider algorithm bake-off on the same
//! corpus and feature space: random-seeded k-means (CAFC-C), k-means++
//! seeding, bisecting k-means (the paper's reference [31]), HAC (average
//! linkage) and CAFC-CH. All averaged over 10 runs where seeding is
//! random.

use cafc::{cafc_c, ExecPolicy, FeatureConfig, KMeansOptions, Obs};
use cafc_bench::{mean_quality, print_header, print_row, quality, run_cafc_ch, Bench, K};
use cafc_cluster::{
    bisecting_kmeans, hac, kmeans, kmeanspp_seeds, BisectOptions, HacOptions, Linkage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    print_header(
        "Extended algorithm comparison (FC+PC, k = 8)",
        "CAFC-CH should dominate; kmeans++ and bisecting should beat plain random seeding",
    );
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());
    let runs = 10u64;
    let mut rows = Vec::new();

    let random = mean_quality(
        &(0..runs)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(r);
                quality(
                    &cafc_c(
                        &space,
                        K,
                        &KMeansOptions::default(),
                        &mut rng,
                        ExecPolicy::Serial,
                        &Obs::disabled(),
                    )
                    .partition,
                    &bench.labels,
                )
            })
            .collect::<Vec<_>>(),
    );
    print_row("k-means random (CAFC-C)", &random);
    rows.push(("kmeans_random", random));

    let pp = mean_quality(
        &(0..runs)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(r);
                let seeds = kmeanspp_seeds(&space, K, &mut rng);
                quality(
                    &kmeans(
                        &space,
                        &seeds,
                        &KMeansOptions::default(),
                        ExecPolicy::Serial,
                        &Obs::disabled(),
                    )
                    .partition,
                    &bench.labels,
                )
            })
            .collect::<Vec<_>>(),
    );
    print_row("k-means++", &pp);
    rows.push(("kmeans_pp", pp));

    let bisect = mean_quality(
        &(0..runs)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(r);
                let p = bisecting_kmeans(
                    &space,
                    &BisectOptions {
                        target_clusters: K,
                        ..Default::default()
                    },
                    &mut rng,
                    ExecPolicy::Serial,
                    &Obs::disabled(),
                );
                quality(&p, &bench.labels)
            })
            .collect::<Vec<_>>(),
    );
    print_row("bisecting k-means [31]", &bisect);
    rows.push(("bisecting", bisect));

    let hac_q = quality(
        &hac(
            &space,
            &[],
            &HacOptions {
                target_clusters: K,
                linkage: Linkage::Average,
            },
            ExecPolicy::Serial,
            &Obs::disabled(),
        ),
        &bench.labels,
    );
    print_row("HAC (average linkage)", &hac_q);
    rows.push(("hac_average", hac_q));

    let (ch, _) = run_cafc_ch(&bench, &space, 8, 0xA190);
    print_row("CAFC-CH", &ch);
    rows.push(("cafc_ch", ch));

    println!(
        "\nCAFC-CH beats the best content-only method by {:.1}x on entropy",
        rows.iter()
            .filter(|(n, _)| *n != "cafc_ch")
            .map(|(_, q)| q.entropy)
            .fold(f64::INFINITY, f64::min)
            / ch.entropy.max(1e-9)
    );
    cafc_bench::write_json("exp_algorithms", rows);
}
