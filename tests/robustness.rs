//! Failure-injection integration tests: the pipeline must degrade
//! gracefully on pathological inputs — placeholder pages without content,
//! empty documents, pages without forms, enormous inputs — because a real
//! crawl contains all of these.

use cafc::{
    cafc_c, cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace,
    HubClusterOptions, KMeansOptions, ModelOptions, Obs,
};
use cafc_crawler::{
    crawl_resilient, AbandonReason, BreakerConfig, FetchError, FetchResponse, Fetcher,
    GraphFetcher, ResilientConfig, RetryPolicy,
};
use cafc_webgraph::{PageId, Url, WebGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn url(s: &str) -> Url {
    Url::parse(s).expect("test url parses")
}

/// A graph whose "form pages" are a mix of healthy and broken documents.
fn pathological_graph() -> (WebGraph, Vec<cafc_webgraph::PageId>) {
    let mut g = WebGraph::new();
    let healthy1 = g.add_page(
        url("http://ok1.com/f"),
        "<title>Flights</title><p>airfare travel flights</p><form>departure <input name=a></form>"
            .into(),
    );
    let healthy2 = g.add_page(
        url("http://ok2.com/f"),
        "<p>careers employment salary</p><form>keywords <input name=b></form>".into(),
    );
    // No HTML at all (placeholder page).
    let ghost = g.intern(url("http://ghost.com/f"));
    // Empty document.
    let empty = g.add_page(url("http://empty.com/f"), String::new());
    // Document with no form.
    let formless = g.add_page(
        url("http://formless.com/f"),
        "<p>just text, no form</p>".into(),
    );
    // Malformed tag soup.
    let soup = g.add_page(
        url("http://soup.com/f"),
        "<form><<<select><option>x<div></form></p><input".into(),
    );
    // Huge page (100k of text).
    let huge = g.add_page(
        url("http://huge.com/f"),
        format!(
            "<p>{}</p><form><input name=q></form>",
            "word ".repeat(20_000)
        ),
    );
    (
        g,
        vec![healthy1, healthy2, ghost, empty, formless, soup, huge],
    )
}

#[test]
fn model_construction_never_panics_on_broken_pages() {
    let (g, targets) = pathological_graph();
    let corpus = FormPageCorpus::from_graph(
        &g,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(corpus.len(), targets.len());
    // Broken pages produce empty or tiny vectors, not crashes.
    assert!(
        corpus.pc[2].is_empty(),
        "ghost page must have an empty PC vector"
    );
    assert!(
        corpus.pc[3].is_empty(),
        "empty page must have an empty PC vector"
    );
}

#[test]
fn clustering_handles_empty_vectors() {
    let (g, targets) = pathological_graph();
    let corpus = FormPageCorpus::from_graph(
        &g,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(1);
    let out = cafc_c(
        &space,
        3,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(out.partition.num_assigned(), targets.len());
}

#[test]
fn cafc_ch_without_any_backlinks_pads_seeds() {
    let (g, targets) = pathological_graph();
    let corpus = FormPageCorpus::from_graph(
        &g,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let config = CafcChConfig::paper_default(3).with_hub(HubClusterOptions {
        min_cardinality: 1,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(2);
    let out = cafc_ch(
        &g,
        &targets,
        &space,
        &config,
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(out.hub_seeds, 0, "no hubs exist in this graph");
    assert_eq!(out.padded_seeds, 3);
    assert_eq!(out.outcome.partition.num_assigned(), targets.len());
}

#[test]
fn anchor_extension_tolerates_linkless_pages() {
    let (g, targets) = pathological_graph();
    let corpus = FormPageCorpus::from_graph(
        &g,
        &targets,
        &ModelOptions::default(),
        true,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert!(corpus.anchor.iter().all(cafc_vsm::SparseVector::is_empty));
}

#[test]
fn single_page_corpus() {
    let mut g = WebGraph::new();
    let p = g.add_page(
        url("http://solo.com/f"),
        "<form>q <input name=q></form>".into(),
    );
    let corpus = FormPageCorpus::from_graph(
        &g,
        &[p],
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(3);
    let out = cafc_c(
        &space,
        1,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(out.partition.clusters(), &[vec![0]]);
}

// ---- crawler failure injection -----------------------------------------

/// A fetcher with scripted per-host misbehavior: the first `fail_first`
/// attempts against a host time out, and bodies from `truncate_host` are
/// cut off mid-tag. Unlike `ChaosFetcher`'s seeded randomness, this gives
/// the tests exact control over the failure sequence.
struct ScriptedFetcher<'g> {
    graph: &'g WebGraph,
    inner: GraphFetcher<'g>,
    fail_first: HashMap<String, u32>,
    truncate_host: Option<(String, usize)>,
    attempts_by_host: HashMap<String, u32>,
}

impl<'g> ScriptedFetcher<'g> {
    fn new(graph: &'g WebGraph) -> Self {
        ScriptedFetcher {
            graph,
            inner: GraphFetcher::new(graph),
            fail_first: HashMap::new(),
            truncate_host: None,
            attempts_by_host: HashMap::new(),
        }
    }
}

impl Fetcher for ScriptedFetcher<'_> {
    fn fetch(&mut self, page: PageId) -> Result<FetchResponse, FetchError> {
        let host = self.graph.url(page).host().to_string();
        let n = self.attempts_by_host.entry(host.clone()).or_insert(0);
        *n += 1;
        if let Some(&budget) = self.fail_first.get(&host) {
            if *n <= budget {
                return Err(FetchError::TimedOut);
            }
        }
        let mut response = self.inner.fetch(page)?;
        if let Some((truncate_host, cut)) = &self.truncate_host {
            if &host == truncate_host && response.html.len() > *cut {
                response.html.truncate(*cut);
                response.truncated = true;
            }
        }
        Ok(response)
    }
}

const SEARCHABLE_FORM: &str =
    r#"<form action="/s"><input name=q><input type=submit value=Search></form>"#;

/// A portal linking to two single-page hosts plus a multi-page one, all
/// with searchable forms.
fn three_host_web() -> (WebGraph, PageId) {
    let mut g = WebGraph::new();
    let portal = g.add_page(
        url("http://hub.com/"),
        r#"<a href="http://ok.com/f">a</a><a href="http://doomed.com/f">b</a>
           <a href="http://flaky.com/f1">c</a><a href="http://flaky.com/f2">d</a>
           <a href="http://flaky.com/f3">e</a>"#
            .into(),
    );
    for page in [
        "http://ok.com/f",
        "http://doomed.com/f",
        "http://flaky.com/f1",
        "http://flaky.com/f2",
        "http://flaky.com/f3",
    ] {
        g.add_page(
            url(page),
            format!("<p>airfare flights travel</p>{SEARCHABLE_FORM}"),
        );
    }
    (g, portal)
}

#[test]
fn retry_exhaustion_dead_letters_the_host_but_clusters_survivors() {
    let (g, portal) = three_host_web();
    let mut fetcher = ScriptedFetcher::new(&g);
    // doomed.com never answers; everything else is healthy.
    fetcher.fail_first.insert("doomed.com".into(), u32::MAX);
    let config = ResilientConfig {
        retry: RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        },
        ..ResilientConfig::default()
    };
    let outcome = crawl_resilient(&g, &mut fetcher, portal, &config, &Obs::disabled());

    assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    assert_eq!(outcome.stats.dead_letter.len(), 1);
    let dead = &outcome.stats.dead_letter[0];
    assert_eq!(dead.reason, AbandonReason::RetriesExhausted);
    assert_eq!(dead.url.host(), "doomed.com");
    assert_eq!(dead.attempts, 3, "max_retries = 2 means 3 attempts");

    // The four surviving form pages still flow through the pipeline.
    let survivors = outcome.pages.searchable_form_pages;
    assert_eq!(survivors.len(), 4);
    let corpus = FormPageCorpus::from_graph(
        &g,
        &survivors,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(5);
    let out = cafc_c(
        &space,
        2,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(out.partition.num_assigned(), survivors.len());
}

#[test]
fn breaker_trips_then_recovers_through_half_open_probes() {
    let (g, portal) = three_host_web();
    let mut fetcher = ScriptedFetcher::new(&g);
    // flaky.com fails its first 6 fetches, then comes back for good. With a
    // threshold of 2 and only 1 retry, its breaker must trip; the crawl can
    // only recover the host's pages by waiting out the cooldown and probing
    // it half-open.
    fetcher.fail_first.insert("flaky.com".into(), 6);
    let config = ResilientConfig {
        retry: RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 2,
            ..BreakerConfig::default()
        },
        max_parks: 8,
        ..ResilientConfig::default()
    };
    let outcome = crawl_resilient(&g, &mut fetcher, portal, &config, &Obs::disabled());

    assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    assert!(outcome.stats.breaker_trips >= 1, "{}", outcome.stats);
    assert!(
        outcome.stats.parked >= 1,
        "pages must wait out the open breaker"
    );
    // Once the host recovered, every page was eventually fetched.
    assert_eq!(outcome.pages.searchable_form_pages.len(), 5);
    assert!(
        outcome.stats.abandoned_hosts.is_empty(),
        "{}",
        outcome.stats
    );
}

#[test]
fn truncated_html_mid_tag_degrades_to_fewer_forms_not_a_crash() {
    let (g, portal) = three_host_web();
    let mut fetcher = ScriptedFetcher::new(&g);
    // Cut flaky.com's bodies off in the middle of the <form ...> open tag,
    // inside its attribute list.
    let cut = "<p>airfare flights travel</p><form acti".len();
    fetcher.truncate_host = Some(("flaky.com".into(), cut));
    let outcome = crawl_resilient(
        &g,
        &mut fetcher,
        portal,
        &ResilientConfig::default(),
        &Obs::disabled(),
    );

    assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    assert_eq!(outcome.stats.truncated_pages, 3);
    // Truncated pages are visited (the fetch succeeded) but their mangled
    // forms cannot be classified as searchable.
    assert_eq!(outcome.pages.visited.len(), 6);
    let survivors = outcome.pages.searchable_form_pages;
    assert_eq!(survivors.len(), 2, "only intact hosts keep their forms");

    // What survived still clusters.
    let corpus = FormPageCorpus::from_graph(
        &g,
        &survivors,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(6);
    let out = cafc_c(
        &space,
        1,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(out.partition.num_assigned(), survivors.len());
}

#[test]
fn identical_pages_cluster_together() {
    let mut g = WebGraph::new();
    let html = "<p>airfare flights travel</p><form>departure <input name=a></form>";
    let distinct = "<p>careers salary employment</p><form>keywords <input name=b></form>";
    let mut targets = Vec::new();
    for i in 0..4 {
        targets.push(g.add_page(url(&format!("http://dup{i}.com/f")), html.into()));
    }
    targets.push(g.add_page(url("http://other.com/f"), distinct.into()));
    let corpus = FormPageCorpus::from_graph(
        &g,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(4);
    let out = cafc_c(
        &space,
        2,
        &KMeansOptions::default(),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    // The four duplicates must share a cluster.
    let assignments = out.partition.assignments();
    let first = assignments[0];
    assert!(
        assignments[..4].iter().all(|&a| a == first),
        "{assignments:?}"
    );
}
