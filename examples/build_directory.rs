//! Build a hidden-web *directory* from clusters — the application the
//! paper motivates in §5: "Hidden-Web directories organize pointers to
//! online databases in a searchable topic hierarchy ... CAFC has the
//! potential to help automate the process."
//!
//! Clusters are auto-labelled with their top discriminating terms and
//! printed as a browsable directory with per-entry descriptions.
//!
//! ```text
//! cargo run --release --example build_directory
//! ```

use cafc::{
    cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, ModelOptions,
    Obs,
};
use cafc_cluster::ClusterSpace;
use cafc_corpus::{generate, CorpusConfig};
use cafc_html::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let web = generate(&CorpusConfig::small(123));
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
    let mut rng = StdRng::seed_from_u64(5);
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

    println!("==============================================");
    println!("        THE HIDDEN-WEB DATABASE DIRECTORY      ");
    println!("==============================================\n");

    for members in result.outcome.partition.clusters() {
        if members.is_empty() {
            continue;
        }
        // Auto-label: the three strongest centroid terms of the category.
        let centroid = space.centroid(members);
        let label: Vec<String> = centroid
            .pc
            .top_terms(3)
            .into_iter()
            .map(|(t, _)| {
                let term = corpus.dict.term(t);
                let mut cs = term.chars();
                match cs.next() {
                    Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
                    None => String::new(),
                }
            })
            .collect();
        println!("## {} ({} databases)", label.join(" / "), members.len());

        // List the first few member sites with their page titles and form
        // arity, the way a human-curated directory would.
        for &m in members.iter().take(4) {
            let url = web.graph.url(targets[m]);
            let html = web.graph.html(targets[m]).expect("form pages carry HTML");
            let doc = parse(html);
            let title = doc.title().unwrap_or_else(|| "(untitled)".to_owned());
            let forms = cafc_html::extract_forms(&doc);
            let arity = forms
                .first()
                .map_or(0, cafc_html::Form::visible_field_count);
            println!("   - {title}");
            println!("     {url}  [{arity}-attribute interface]");
        }
        if members.len() > 4 {
            println!("   ... and {} more", members.len() - 4);
        }
        println!();
    }
}
