//! Diagnostic: HAC linkage × seeding grid for Table 2 calibration.

use cafc::{
    select_hub_clusters, CafcChConfig, ExecPolicy, FeatureConfig, HacOptions, Linkage, Obs,
};
use cafc_bench::{disjoint_seeds, quality, Bench, K};
use cafc_cluster::hac;

fn main() {
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());
    let (seeds, _, _) = select_hub_clusters(
        &bench.web.graph,
        &bench.targets,
        &space,
        &CafcChConfig::paper_default(K),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let initial = disjoint_seeds(&seeds);
    // Alternative: seed with ALL surviving hub clusters, not just the k
    // selected — HAC agglomerates them down to k.
    let (all_clusters, _) = cafc_webgraph::hub_clusters(
        &bench.web.graph,
        &bench.targets,
        &cafc_webgraph::HubClusterOptions::default(),
    );
    let all_members: Vec<Vec<usize>> = all_clusters.into_iter().map(|c| c.members).collect();
    let initial_all = disjoint_seeds(&all_members);
    println!(
        "{} disjoint groups from all hub clusters",
        initial_all.len()
    );
    for linkage in [Linkage::Average, Linkage::Centroid, Linkage::Complete] {
        let opts = HacOptions {
            target_clusters: K,
            linkage,
        };
        let run = |initial: &[Vec<usize>]| {
            let partition = hac(&space, initial, &opts, ExecPolicy::Serial, &Obs::disabled());
            quality(&partition, &bench.labels)
        };
        let (plain, seeded, seeded_all) = (run(&[]), run(&initial), run(&initial_all));
        println!(
            "{linkage:?}: unseeded ({:.3}, {:.3}) | 8-seeds ({:.3}, {:.3}) | all-hubs ({:.3}, {:.3})",
            plain.entropy,
            plain.f_measure,
            seeded.entropy,
            seeded.f_measure,
            seeded_all.entropy,
            seeded_all.f_measure
        );
    }
}
