//! Diagnostic: domain composition of the hub clusters Algorithm 3 selects.

use cafc::{select_hub_clusters, CafcChConfig, ExecPolicy, FeatureConfig, Obs};
use cafc_bench::Bench;
use cafc_corpus::Domain;
use cafc_webgraph::HubClusterOptions;

fn main() {
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());
    for min_card in [7usize, 8, 9, 10] {
        let config = CafcChConfig::paper_default(8).with_hub(HubClusterOptions {
            min_cardinality: min_card,
            ..Default::default()
        });
        let (seeds, _, _) = select_hub_clusters(
            &bench.web.graph,
            &bench.targets,
            &space,
            &config,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        println!("min_card {min_card}: {} seeds", seeds.len());
        for (i, seed) in seeds.iter().enumerate() {
            let mut counts = vec![0usize; 8];
            for &m in seed {
                counts[bench.labels[m].index()] += 1;
            }
            let desc: Vec<String> = Domain::ALL
                .iter()
                .zip(&counts)
                .filter(|(_, &c)| c > 0)
                .map(|(d, &c)| format!("{}:{c}", d.name()))
                .collect();
            println!("  seed {i}: [{}] size {}", desc.join(" "), seed.len());
        }
    }
}
