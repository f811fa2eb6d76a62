//! Integration of the acquisition substrates: crawler + classifier feed
//! the clustering pipeline, exactly as in the paper's system context.

use cafc::{
    cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, ModelOptions,
    Obs,
};
use cafc_corpus::{generate, CorpusConfig};
use cafc_crawler::{crawl, CrawlConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn crawler_recovers_the_searchable_corpus() {
    let web = generate(&CorpusConfig::small(21));
    let result = crawl(&web.graph, web.portal, &CrawlConfig::default());
    let gold: Vec<_> = web.form_page_ids();

    // Coverage: nearly all searchable form pages discovered.
    let found = result
        .searchable_form_pages
        .iter()
        .filter(|p| gold.contains(p))
        .count();
    assert!(
        found as f64 >= gold.len() as f64 * 0.9,
        "crawler found {found}/{}",
        gold.len()
    );

    // Precision: nothing outside gold + non-searchable should appear, and
    // non-searchable pages must be mostly rejected.
    let false_accepts = result
        .searchable_form_pages
        .iter()
        .filter(|p| !gold.contains(p))
        .count();
    assert!(
        (false_accepts as f64) < web.non_searchable.len() as f64 * 0.2 + 1.0,
        "{false_accepts} non-searchable pages accepted"
    );
}

#[test]
fn crawled_pages_cluster_like_curated_ones() {
    let web = generate(&CorpusConfig::small(22));
    let crawl_result = crawl(&web.graph, web.portal, &CrawlConfig::default());
    let targets: Vec<_> = crawl_result
        .searchable_form_pages
        .iter()
        .copied()
        .filter(|p| web.form_pages.iter().any(|r| r.page == *p))
        .collect();
    assert!(targets.len() > 40, "not enough crawled pages to cluster");

    let labels: Vec<&str> = targets
        .iter()
        .map(|p| {
            web.form_pages
                .iter()
                .find(|r| r.page == *p)
                .expect("gold record exists")
                .domain
                .name()
        })
        .collect();

    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(22);
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
    let e = cafc_eval::entropy(
        result.outcome.partition.clusters(),
        &labels,
        cafc_eval::EntropyBase::Two,
    );
    assert!(e < 1.2, "entropy over crawled corpus too high: {e}");
}

#[test]
fn crawler_visits_are_bounded_and_unique() {
    let web = generate(&CorpusConfig::small(23));
    let result = crawl(
        &web.graph,
        web.portal,
        &CrawlConfig {
            max_pages: 50,
            ..Default::default()
        },
    );
    assert!(result.visited.len() <= 50);
    let mut v = result.visited.clone();
    v.sort_unstable();
    v.dedup();
    assert_eq!(v.len(), result.visited.len(), "crawler revisited a page");
}
