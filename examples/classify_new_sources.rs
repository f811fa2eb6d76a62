//! Classify newly discovered hidden-web sources against an existing
//! clustering — the paper's §5 bootstrap: "Once the clusters are built and
//! properly labeled with the domain name, they can be used as the basis to
//! automatically classify new sources."
//!
//! We cluster 80 % of the corpus with CAFC-CH, hold out 20 % as "newly
//! discovered" sources, assign each holdout to its nearest cluster
//! centroid, and score against the gold labels.
//!
//! ```text
//! cargo run --release --example classify_new_sources
//! ```

use cafc::{
    assign_to_clusters, cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus,
    FormPageSpace, ModelOptions, Obs, Partition,
};
use cafc_corpus::{generate, CorpusConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let web = generate(&CorpusConfig::small(77));
    let targets = web.form_page_ids();
    let labels = web.labels();

    // One shared corpus so IDF statistics cover known + new pages alike.
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());

    // Hold out every 5th page as a "new source".
    let known: Vec<usize> = (0..targets.len()).filter(|i| i % 5 != 0).collect();
    let new: Vec<usize> = (0..targets.len()).filter(|i| i % 5 == 0).collect();
    println!(
        "{} known sources, {} newly discovered",
        known.len(),
        new.len()
    );

    // Cluster the known subset. CAFC-CH runs over the *full* target list;
    // to cluster only the known pages we restrict afterwards (hub evidence
    // does not depend on the holdout split).
    let mut rng = StdRng::seed_from_u64(3);
    let config = CafcChConfig::paper_default(8).with_hub(cafc::HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    });
    let full = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &config,
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let known_clusters: Vec<Vec<usize>> = full
        .outcome
        .partition
        .clusters()
        .iter()
        .map(|c| c.iter().copied().filter(|i| known.contains(i)).collect())
        .collect();
    let known_partition = Partition::new(known_clusters, targets.len());

    // Each known cluster inherits the majority gold label (the "properly
    // labeled with the domain name" step — here automated by the corpus).
    let cluster_label: Vec<Option<&str>> = known_partition
        .clusters()
        .iter()
        .map(|members| {
            let mut counts = std::collections::HashMap::new();
            for &m in members {
                *counts.entry(labels[m].name()).or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).map(|(l, _)| l)
        })
        .collect();

    // Assign the new sources and score.
    let assigned = assign_to_clusters(&space, &known_partition, &new);
    let mut correct = 0;
    for &(item, cluster) in &assigned {
        if cluster_label[cluster] == Some(labels[item].name()) {
            correct += 1;
        }
    }
    println!(
        "classified {} new sources, {} correct ({:.1}%)",
        new.len(),
        correct,
        100.0 * correct as f64 / new.len() as f64
    );

    // Show a few assignments.
    for &(item, cluster) in assigned.iter().take(6) {
        println!(
            "  {} -> {} (gold: {})",
            web.graph.url(targets[item]),
            cluster_label[cluster].unwrap_or("?"),
            labels[item].name()
        );
    }
}
