//! **Table 2** — HAC versus k-means, each with and without hub seeding.
//!
//! Paper's values: k-means entropy 0.56 → 0.15 with hubs; HAC 0.52 → 0.27.
//! Hubs help both strategies; k-means benefits more because HAC makes
//! local merge decisions whose early mistakes persist through the
//! agglomeration, even from high-quality hub seeds.

use cafc::{
    select_hub_clusters, CafcChConfig, ExecPolicy, FeatureConfig, HacOptions, KMeansOptions,
    Linkage, Obs,
};
use cafc_bench::{disjoint_seeds, print_header, print_row, quality, run_cafc_c_avg, Bench, K};
use cafc_cluster::hac;

fn main() {
    print_header(
        "Table 2: HAC vs k-means under CAFC-C and CAFC-CH",
        "k-means 0.56 -> 0.15 entropy with hubs; HAC 0.52 -> 0.27; k-means+hubs best",
    );
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());
    let mut rows: Vec<(String, cafc_bench::Quality)> = Vec::new();

    // CAFC-C (k-means, random seeds, averaged).
    let c_kmeans = run_cafc_c_avg(&space, &bench.labels, 0x7AB2);
    print_row("CAFC-C  (k-means)", &c_kmeans);
    rows.push(("CAFC-C k-means".into(), c_kmeans));

    // CAFC-C (HAC from singletons).
    let hac_opts = HacOptions {
        target_clusters: K,
        linkage: Linkage::Average,
    };
    let p = hac(&space, &[], &hac_opts, ExecPolicy::Serial, &Obs::disabled());
    let c_hac = quality(&p, &bench.labels);
    print_row("CAFC-C  (HAC)", &c_hac);
    rows.push(("CAFC-C HAC".into(), c_hac));

    // Shared hub seeds (Algorithm 3, min cardinality 8).
    let config = CafcChConfig::paper_default(K);
    let (seeds, _, _) = select_hub_clusters(
        &bench.web.graph,
        &bench.targets,
        &space,
        &config,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );

    // CAFC-CH (k-means from hub seeds).
    let out = cafc_cluster::kmeans(
        &space,
        &seeds,
        &KMeansOptions::default(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let ch_kmeans = quality(&out.partition, &bench.labels);
    print_row("CAFC-CH (k-means)", &ch_kmeans);
    rows.push(("CAFC-CH k-means".into(), ch_kmeans));

    // CAFC-CH (HAC started from the hub clusters). HAC needs a disjoint
    // starting partition; overlapping seed members keep their first home.
    let initial = disjoint_seeds(&seeds);
    let p = hac(
        &space,
        &initial,
        &hac_opts,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let ch_hac = quality(&p, &bench.labels);
    print_row("CAFC-CH (HAC)", &ch_hac);
    rows.push(("CAFC-CH HAC".into(), ch_hac));

    println!(
        "\nhub benefit: k-means entropy {:.3} -> {:.3}; HAC {:.3} -> {:.3}",
        c_kmeans.entropy, ch_kmeans.entropy, c_hac.entropy, ch_hac.entropy
    );
    cafc_bench::write_json("table2_hac_vs_kmeans", rows);
}
