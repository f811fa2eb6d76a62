//! The full acquisition-to-organization pipeline the paper's system sits
//! in: crawl the web for forms, filter out non-searchable ones with the
//! generic form classifier, then organize the survivors with CAFC-CH.
//!
//! ```text
//! cargo run --release --example crawl_and_cluster
//! ```

use cafc::{
    cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, ModelOptions,
    Obs,
};
use cafc_corpus::{generate, CorpusConfig};
use cafc_crawler::{
    crawl, crawl_resilient, ChaosFetcher, CrawlConfig, FaultConfig, ResilientConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let web = generate(&CorpusConfig::small(99));

    // --- acquisition: a breadth-first form-focused crawl ---------------
    let crawl_result = crawl(&web.graph, web.portal, &CrawlConfig::default());
    println!(
        "crawler visited {} pages, found {} searchable-form pages, rejected {} \
         non-searchable form pages ({} dead links)",
        crawl_result.visited.len(),
        crawl_result.searchable_form_pages.len(),
        crawl_result.rejected_form_pages.len(),
        crawl_result.dead_links,
    );

    // The same crawl under a hostile network: 25% of fetches fail
    // transiently, yet retries with backoff and per-host circuit breakers
    // recover nearly everything (see `cafc crawl` for the full report).
    let mut chaos = ChaosFetcher::over_graph(&web.graph, FaultConfig::transient(0.25, 7));
    let faulty = crawl_resilient(
        &web.graph,
        &mut chaos,
        web.portal,
        &ResilientConfig::default(),
        &Obs::disabled(),
    );
    println!(
        "under 25% transient faults: {} of {} searchable-form pages recovered\n{}",
        faulty.pages.searchable_form_pages.len(),
        crawl_result.searchable_form_pages.len(),
        faulty.stats,
    );

    // --- organization: CAFC-CH over exactly what the crawler found -----
    let targets = crawl_result.searchable_form_pages.clone();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(1);
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

    for (i, members) in result.outcome.partition.clusters().iter().enumerate() {
        println!("cluster {i}: {} databases", members.len());
    }

    // --- scoring: the crawled pages come with gold labels --------------
    let labels: Vec<_> = targets
        .iter()
        .map(|p| {
            web.form_pages
                .iter()
                .find(|r| r.page == *p)
                .map(|r| r.domain.name())
                .unwrap_or("unknown")
        })
        .collect();
    let clusters = result.outcome.partition.clusters();
    println!(
        "\nentropy {:.3}, F-measure {:.3} over {} crawled databases",
        cafc_eval::entropy(clusters, &labels, cafc_eval::EntropyBase::Two),
        cafc_eval::f_measure(clusters, &labels),
        targets.len(),
    );
}
