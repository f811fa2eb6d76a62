//! **§4.3** — HAC-sample seeding versus hub seeding for k-means.
//!
//! "One widely-used technique to derive seeds for k-means is to take a
//! sample of points and use HAC to cluster them. ... Although there is
//! little difference in the F-measure values (0.93 versus 0.96), the
//! entropy is 60 % higher than the one obtained by CAFC-CH."

use cafc::{ExecPolicy, FeatureConfig, HacOptions, KMeansOptions, Linkage, Obs};
use cafc_bench::{print_header, print_row, quality, run_cafc_ch, Bench, K};
use cafc_cluster::{hac, kmeans};

fn main() {
    print_header(
        "§4.3: HAC-derived seeds vs hub-derived seeds for k-means",
        "F close (0.93 vs 0.96) but HAC-seeded entropy ~60% higher than CAFC-CH",
    );
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());

    // HAC over the entire dataset; its clusters seed k-means.
    let hac_partition = hac(
        &space,
        &[],
        &HacOptions {
            target_clusters: K,
            linkage: Linkage::Average,
        },
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let seeds: Vec<Vec<usize>> = hac_partition
        .clusters()
        .iter()
        .filter(|c| !c.is_empty())
        .cloned()
        .collect();
    let out = kmeans(
        &space,
        &seeds,
        &KMeansOptions::default(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let hac_seeded = quality(&out.partition, &bench.labels);
    print_row("HAC-seeded k-means", &hac_seeded);

    let (hub_seeded, _) = run_cafc_ch(&bench, &space, 8, 0x5EED);
    print_row("CAFC-CH (hub-seeded)", &hub_seeded);

    println!(
        "\nentropy ratio (HAC-seeded / hub-seeded): {:.2} (paper: ~1.6); \
         F delta: {:.3} vs {:.3}",
        hac_seeded.entropy / hub_seeded.entropy.max(1e-9),
        hac_seeded.f_measure,
        hub_seeded.f_measure
    );
    cafc_bench::write_json(
        "exp_hac_seeding",
        vec![("hac_seeded", hac_seeded), ("hub_seeded", hub_seeded)],
    );
}
