//! Query-based exploration of a clustering — the paper's §6: "it is
//! important to provide means for applications and users to explore the
//! resulting clusters ... visual and query-based interfaces."
//!
//! ```text
//! cargo run --release --example explore_clusters
//! ```

use cafc::{
    cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, ModelOptions,
    Obs,
};
use cafc_corpus::{generate, CorpusConfig};
use cafc_explore::{html_report, text_report, ClusterIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Cluster a synthetic deep web.
    let web = generate(&CorpusConfig::small(2024));
    let targets = web.form_page_ids();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(9);
    let config = CafcChConfig::paper_default(8).with_hub(cafc::HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    });
    let result = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &config,
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );

    // Build the searchable index.
    let index =
        ClusterIndex::from_graph(&corpus, &result.outcome.partition, &web.graph, &targets, 6);

    // Show the directory header.
    let report = text_report(&index);
    for line in report.lines().take(14) {
        println!("{line}");
    }
    println!("...\n");

    // Query-based exploration.
    for query in [
        "cheap flights this summer",
        "find a job in engineering",
        "rock albums on vinyl",
    ] {
        println!("query: {query:?}");
        for hit in index.search(query).into_iter().take(2) {
            let summary = &index.summaries()[hit.cluster];
            println!(
                "  cluster {:.3}  {} ({} databases)",
                hit.score,
                summary.label,
                summary.entries.len()
            );
        }
        for hit in index.search_pages(query, 2) {
            if let Some(entry) = hit.item.and_then(|i| index.entry(i)) {
                println!("  page    {:.3}  {}", hit.score, entry.url);
            }
        }
        println!();
    }

    // Write the HTML directory next to the target dir for inspection.
    let out = std::env::temp_dir().join("cafc-directory.html");
    std::fs::write(&out, html_report(&index)).expect("write report");
    println!("HTML directory written to {}", out.display());
}
