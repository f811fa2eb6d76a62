//! Quickstart: cluster a synthetic deep web with CAFC-CH and inspect the
//! result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cafc::{
    cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, ModelOptions,
    Obs,
};
use cafc_cluster::ClusterSpace;
use cafc_corpus::{generate, CorpusConfig};
use cafc_eval::EntropyBase;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A web to organize. In a real deployment this is the output of a
    //    form-focused crawler plus a backlink API; offline we synthesize an
    //    equivalent web (pages are real HTML, links are real links).
    let web = generate(&CorpusConfig::small(42));
    let targets = web.form_page_ids();
    println!("collected {} searchable form pages", targets.len());

    // 2. The form-page model: two TF-IDF vector spaces per page (page
    //    contents PC and form contents FC), location-aware term weights.
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());

    // 3. CAFC-CH: hub clusters from shared backlinks seed k-means.
    let mut rng = StdRng::seed_from_u64(7);
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
    println!(
        "clustered into {} clusters ({} hub seeds, {} padded, {} k-means iterations)",
        result.outcome.partition.num_clusters(),
        result.hub_seeds,
        result.padded_seeds,
        result.outcome.iterations,
    );

    // 4. Inspect each cluster: size, top discriminating terms, sample URLs.
    for (i, members) in result.outcome.partition.clusters().iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let centroid = space.centroid(members);
        let top: Vec<&str> = centroid
            .pc
            .top_terms(5)
            .into_iter()
            .map(|(t, _)| corpus.dict.term(t))
            .collect();
        let sample = web.graph.url(targets[members[0]]);
        println!(
            "cluster {i}: {:>3} pages | top terms: {:<40} | e.g. {sample}",
            members.len(),
            top.join(", ")
        );
    }

    // 5. Because this is a synthetic web we can score against gold labels.
    let labels = web.labels();
    let clusters = result.outcome.partition.clusters();
    println!(
        "\nquality vs gold standard: entropy {:.3} (lower is better), F-measure {:.3}",
        cafc_eval::entropy(clusters, &labels, EntropyBase::Two),
        cafc_eval::f_measure(clusters, &labels),
    );
}
