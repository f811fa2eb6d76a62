//! **§6 extension (ours)** — hub-quality gating.
//!
//! The paper's future work lists "the quality of hub pages" as a feature
//! to exploit. Two label-free quality signals are implemented:
//!
//! 1. *content coherence* — drop candidate hub clusters whose average
//!    pairwise member similarity falls below a threshold
//!    (`CafcChConfig::min_hub_quality`);
//! 2. *link-structural quality* — rank hubs with HITS and restrict the
//!    candidate pool to clusters induced by the top-scoring hubs.

use cafc::{
    cafc_ch, select_hub_clusters, CafcChConfig, ExecPolicy, FeatureConfig, HubClusterOptions,
    KMeansOptions, Obs,
};
use cafc_bench::{print_header, print_row, quality, Bench, K};
use cafc_cluster::kmeans;
use cafc_webgraph::{hits, hub_clusters, HitsOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    print_header(
        "§6 extension: hub-quality gating (content coherence and HITS)",
        "gating should match or improve the ungated CAFC-CH seeds",
    );
    let bench = Bench::paper_scale();
    let space = bench.space(FeatureConfig::combined());
    let mut rows = Vec::new();

    // Baseline: ungated CAFC-CH.
    let base_cfg = CafcChConfig::paper_default(K);
    let mut rng = StdRng::seed_from_u64(0x9B);
    let base = cafc_ch(
        &bench.web.graph,
        &bench.targets,
        &space,
        &base_cfg,
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let base_q = quality(&base.outcome.partition, &bench.labels);
    print_row("ungated", &base_q);
    rows.push(("ungated".to_owned(), base_q));

    // Content-coherence gate at several thresholds.
    for threshold in [0.05, 0.10, 0.15, 0.20] {
        let cfg = base_cfg.clone().with_min_hub_quality(Some(threshold));
        let mut rng = StdRng::seed_from_u64(0x9B);
        let out = cafc_ch(
            &bench.web.graph,
            &bench.targets,
            &space,
            &cfg,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let q = quality(&out.outcome.partition, &bench.labels);
        print_row(&format!("coherence >= {threshold:.2}"), &q);
        println!("   [{} candidates rejected]", out.quality_rejected);
        rows.push((format!("coherence_{threshold:.2}"), q));
    }

    // HITS gate: keep only clusters induced by the top-H hubs.
    let scores = hits(&bench.web.graph, &HitsOptions::default());
    let (all_clusters, _) = hub_clusters(
        &bench.web.graph,
        &bench.targets,
        &HubClusterOptions::default(),
    );
    for keep_frac in [0.5, 0.25] {
        let mut ranked: Vec<_> = all_clusters.iter().collect();
        ranked.sort_by(|a, b| {
            scores
                .hub(b.hub)
                .partial_cmp(&scores.hub(a.hub))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let keep = ((ranked.len() as f64 * keep_frac) as usize).max(K);
        let candidates: Vec<Vec<usize>> = ranked
            .iter()
            .take(keep)
            .map(|c| c.members.clone())
            .collect();
        // Greedy selection + k-means over the gated pool.
        let selected = cafc_cluster::greedy_distant_seeds(&space, &candidates, K);
        let seeds: Vec<Vec<usize>> = selected.iter().map(|&i| candidates[i].clone()).collect();
        let out = kmeans(
            &space,
            &seeds,
            &KMeansOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let q = quality(&out.partition, &bench.labels);
        print_row(&format!("HITS top {:.0}%", keep_frac * 100.0), &q);
        rows.push((format!("hits_{keep_frac}"), q));
    }

    // For reference: what select_hub_clusters sees without gating.
    let (seeds, stats, _) = select_hub_clusters(
        &bench.web.graph,
        &bench.targets,
        &space,
        &base_cfg,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    println!(
        "\n[{} candidate clusters at cardinality >= 8; {} selected as seeds]",
        stats.clusters_after_filter,
        seeds.len()
    );
    cafc_bench::write_json("exp_hub_quality", rows);
}
