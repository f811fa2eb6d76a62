//! # cafc-crawler
//!
//! A form-focused crawler over the in-memory web graph — the acquisition
//! substrate of the pipeline. Half of the paper's corpus "was automatically
//! retrieved by a Web crawler \[3\]"; this crate reproduces that stage
//! end-to-end against the synthetic web: it fetches page HTML, parses it,
//! resolves `href`s against the page URL, walks breadth-first, and collects
//! the pages whose forms the searchable-form classifier accepts.
//!
//! The crawler only sees what a real one would: HTML bytes and URLs. Link
//! resolution goes through [`cafc_webgraph::Url::resolve`], so relative,
//! host-relative and absolute links all work; URLs that resolve to nothing
//! in the graph behave like dead links.
//!
//! Unlike the idealized BFS it grew from, the crawler is written against a
//! fault model ([`Fetcher`]) and degrades gracefully: transient fetch
//! failures are retried with exponential backoff and jitter on a simulated
//! clock ([`RetryPolicy`], [`SimClock`]), hosts that keep failing are shut
//! off by per-host circuit breakers ([`BreakerConfig`]) and revisited once
//! their cooldown elapses, and pages the crawler gives up on land on a
//! dead-letter list with a reason. [`CrawlStats`] accounts for every
//! attempt: `attempts = successes + retries + abandoned`. Use
//! [`ChaosFetcher`] to inject seeded, reproducible faults, or
//! [`GraphFetcher`] for the ideal web — with no faults, [`crawl_resilient`]
//! visits exactly the pages the plain BFS [`crawl`] does.

#![warn(missing_docs)]

mod breaker;
mod fetch;
mod resume;
mod retry;
mod stats;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker, HostBreakers};
pub use fetch::{ChaosFetcher, FaultConfig, FetchError, FetchResponse, Fetcher, GraphFetcher};
pub use resume::crawl_resumable;
pub(crate) use resume::CrawlCheckpointer;
pub use retry::{RetryPolicy, SimClock};
pub use stats::{AbandonReason, CrawlStats, DeadLetter};

use cafc_classify::searchable_forms;
use cafc_html::parse;
use cafc_obs::Obs;
use cafc_webgraph::{PageId, WebGraph};
use std::collections::{HashMap, VecDeque};

/// Histogram bucket upper bounds (simulated milliseconds) for the
/// `crawl.backoff_wait_ms` metric.
const BACKOFF_BUCKETS_MS: [f64; 8] = [
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
];

/// Simulated cost of a failed fetch attempt (a timeout or reset is not
/// free), charged to the clock so failures also consume crawl time.
const FAILED_FETCH_COST_MS: u64 = 150;

/// Crawl limits.
#[derive(Debug, Clone, Copy)]
pub struct CrawlConfig {
    /// Stop after visiting this many pages.
    pub max_pages: usize,
    /// Maximum link depth from the seed (0 = seed only).
    pub max_depth: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            max_pages: 100_000,
            max_depth: 16,
        }
    }
}

/// Full configuration of the resilient crawler.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    /// Visit limits.
    pub crawl: CrawlConfig,
    /// Backoff policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-host circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// How many times a page may be parked behind an open breaker before
    /// it is dead-lettered.
    pub max_parks: u32,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            crawl: CrawlConfig::default(),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            max_parks: 2,
        }
    }
}

impl ResilientConfig {
    /// Defaults with explicit crawl limits.
    pub fn with_limits(crawl: CrawlConfig) -> Self {
        ResilientConfig {
            crawl,
            ..Default::default()
        }
    }
}

/// Crawl outcome.
#[derive(Debug, Clone)]
pub struct CrawlResult {
    /// Pages fetched (had HTML), in visit order.
    pub visited: Vec<PageId>,
    /// Pages with at least one searchable form, in visit order.
    pub searchable_form_pages: Vec<PageId>,
    /// Pages whose only forms were rejected by the classifier.
    pub rejected_form_pages: Vec<PageId>,
    /// Links that resolved to URLs absent from the graph (dead links).
    pub dead_links: usize,
}

/// Outcome of a resilient crawl: the pages plus the fault accounting.
#[derive(Debug, Clone)]
pub struct ResilientCrawlOutcome {
    /// What was crawled.
    pub pages: CrawlResult,
    /// How the crawl went: attempts, retries, breaker events, dead letter.
    pub stats: CrawlStats,
}

/// Breadth-first crawl from `seed` over the ideal (fault-free) fetcher.
///
/// This is the classic entry point; it is a thin wrapper over
/// [`crawl_resilient`] with a [`GraphFetcher`], and visits exactly the
/// same pages in the same order as the original BFS.
pub fn crawl(graph: &WebGraph, seed: PageId, config: &CrawlConfig) -> CrawlResult {
    let mut fetcher = GraphFetcher::new(graph);
    crawl_resilient(
        graph,
        &mut fetcher,
        seed,
        &ResilientConfig::with_limits(*config),
        &Obs::disabled(),
    )
    .pages
}

/// A queued unit of crawl work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Job {
    pub(crate) page: PageId,
    pub(crate) depth: usize,
}

/// The complete mutable state of a resilient crawl — everything that must
/// survive a crash for the crawl to resume bit-identically (the fetcher's
/// own state travels separately via [`Fetcher::export_attempts`]).
pub(crate) struct CrawlState {
    pub(crate) pages: CrawlResult,
    pub(crate) stats: CrawlStats,
    pub(crate) clock: SimClock,
    pub(crate) breakers: HostBreakers,
    pub(crate) seen: Vec<bool>,
    pub(crate) park_counts: HashMap<PageId, u32>,
    pub(crate) parked: Vec<Job>,
    pub(crate) queue: VecDeque<Job>,
}

impl CrawlState {
    /// The state a fresh crawl starts from: the seed queued at depth 0.
    pub(crate) fn initial(graph: &WebGraph, seed: PageId, config: &ResilientConfig) -> CrawlState {
        let mut seen = vec![false; graph.len()];
        let mut queue = VecDeque::new();
        seen[seed.index()] = true;
        queue.push_back(Job {
            page: seed,
            depth: 0,
        });
        CrawlState {
            pages: CrawlResult {
                visited: Vec::new(),
                searchable_form_pages: Vec::new(),
                rejected_form_pages: Vec::new(),
                dead_links: 0,
            },
            stats: CrawlStats::default(),
            clock: SimClock::new(),
            breakers: HostBreakers::new(config.breaker),
            seen,
            park_counts: HashMap::new(),
            parked: Vec::new(),
            queue,
        }
    }
}

/// Breadth-first crawl from `seed` through an arbitrary [`Fetcher`], with
/// retries, per-host circuit breakers, parking, and full accounting.
///
/// `graph` supplies URL identity and link resolution (what a real crawler
/// gets from DNS and its frontier); page *content* only ever arrives
/// through `fetcher`.
///
/// The run executes under a `crawl` span, every backoff wait lands in the
/// `crawl.backoff_wait_ms` histogram, and the final [`CrawlStats`] are
/// mirrored into `crawl.*` counters (attempts, successes, retries, error
/// classes, breaker events, parking, dead letters) plus a
/// `crawl.sim_elapsed_ms` gauge. The crawl itself is bit-identical whether
/// or not `obs` has a sink.
pub fn crawl_resilient<F: Fetcher>(
    graph: &WebGraph,
    fetcher: &mut F,
    seed: PageId,
    config: &ResilientConfig,
    obs: &Obs,
) -> ResilientCrawlOutcome {
    let state = CrawlState::initial(graph, seed, config);
    match crawl_driver(graph, fetcher, config, obs, state, None) {
        Ok(outcome) => outcome,
        // Unreachable: with no checkpointer the driver performs no store
        // I/O and therefore cannot fail. Degrade to an empty outcome
        // rather than panicking.
        Err(_) => ResilientCrawlOutcome {
            pages: CrawlResult {
                visited: Vec::new(),
                searchable_form_pages: Vec::new(),
                rejected_form_pages: Vec::new(),
                dead_links: 0,
            },
            stats: CrawlStats::default(),
        },
    }
}

/// The crawl loop proper, shared by the plain entry points (no
/// checkpointer) and [`crawl_resumable`] (checkpointer journals dead
/// letters, snapshots at the configured cadence, and replays journaled
/// jobs instead of re-fetching them).
pub(crate) fn crawl_driver<F: Fetcher>(
    graph: &WebGraph,
    fetcher: &mut F,
    config: &ResilientConfig,
    obs: &Obs,
    state: CrawlState,
    mut ckpt: Option<&mut CrawlCheckpointer<'_>>,
) -> Result<ResilientCrawlOutcome, cafc_store::StoreError> {
    let crawl_span = obs.span("crawl");
    let CrawlState {
        mut pages,
        mut stats,
        mut clock,
        mut breakers,
        mut seen,
        mut park_counts,
        mut parked,
        mut queue,
    } = state;

    // Park `job` to wait out an open breaker, or dead-letter it once its
    // parking budget is spent. Returns true when parked.
    let park_or_abandon = |job: Job,
                           attempts: u32,
                           park_counts: &mut HashMap<PageId, u32>,
                           parked: &mut Vec<Job>,
                           stats: &mut CrawlStats|
     -> bool {
        let count = park_counts.entry(job.page).or_insert(0);
        if *count >= config.max_parks {
            stats.dead_letter.push(DeadLetter {
                url: graph.url(job.page).clone(),
                reason: AbandonReason::HostCircuitOpen,
                attempts,
            });
            false
        } else {
            *count += 1;
            stats.parked += 1;
            parked.push(job);
            true
        }
    };

    'crawl: loop {
        while let Some(job) = queue.pop_front() {
            if pages.visited.len() >= config.crawl.max_pages {
                break 'crawl;
            }

            // A journaled dead-letter job from the interrupted run: apply
            // its recorded effects instead of re-fetching — permanently
            // failed pages are never re-attempted across a resume.
            if let Some(c) = ckpt.as_mut() {
                if c.replay_job(&job, graph, fetcher, &mut stats, &mut clock, &mut breakers)? {
                    continue;
                }
            }

            'job: {
                let host = graph.url(job.page).host().to_owned();

                if !breakers.breaker(&host).allow(clock.now_ms()) {
                    // No attempt is made, so nothing enters the accounting
                    // identity; the page waits for the breaker or dies.
                    stats.breaker_rejections += 1;
                    park_or_abandon(job, 0, &mut park_counts, &mut parked, &mut stats);
                    break 'job;
                }

                // Fetch with inline backoff-retries. Each attempt is
                // classified exactly once: success, retry (followed up),
                // or abandoned.
                let mut attempt: u32 = 0;
                let response = loop {
                    stats.attempts += 1;
                    attempt += 1;
                    match fetcher.fetch(job.page) {
                        Ok(resp) => {
                            clock.advance(resp.latency_ms);
                            breakers.breaker(&host).record_success();
                            stats.successes += 1;
                            break Some(resp);
                        }
                        Err(err) if err.is_transient() => {
                            stats.transient_failures += 1;
                            clock.advance(FAILED_FETCH_COST_MS);
                            if breakers.breaker(&host).record_failure(clock.now_ms()) {
                                stats.breaker_trips += 1;
                            }
                            if breakers.breaker(&host).state() == BreakerState::Open {
                                // The host just got shut off; this page
                                // waits for the cooldown rather than
                                // burning retries.
                                if park_or_abandon(
                                    job,
                                    attempt,
                                    &mut park_counts,
                                    &mut parked,
                                    &mut stats,
                                ) {
                                    stats.retries += 1;
                                } else {
                                    stats.abandoned += 1;
                                }
                                break None;
                            }
                            if attempt > config.retry.max_retries {
                                stats.abandoned += 1;
                                stats.dead_letter.push(DeadLetter {
                                    url: graph.url(job.page).clone(),
                                    reason: AbandonReason::RetriesExhausted,
                                    attempts: attempt,
                                });
                                break None;
                            }
                            stats.retries += 1;
                            let salt = u64::from(job.page.0) ^ (stats.attempts << 20);
                            let wait = config.retry.backoff_delay_ms(attempt - 1, salt);
                            obs.observe_in(
                                "crawl.backoff_wait_ms",
                                &BACKOFF_BUCKETS_MS,
                                wait as f64,
                            );
                            clock.advance(wait);
                        }
                        Err(_permanent) => {
                            stats.permanent_failures += 1;
                            clock.advance(FAILED_FETCH_COST_MS);
                            stats.abandoned += 1;
                            stats.dead_letter.push(DeadLetter {
                                url: graph.url(job.page).clone(),
                                reason: AbandonReason::Permanent,
                                attempts: attempt,
                            });
                            break None;
                        }
                    }
                };
                let Some(response) = response else { break 'job };

                // Redirects land on another page: visit it instead (once).
                let landed = response.page;
                if response.redirected {
                    stats.redirects_followed += 1;
                    if landed != job.page {
                        if seen[landed.index()] {
                            break 'job;
                        }
                        seen[landed.index()] = true;
                    }
                }
                if response.truncated {
                    stats.truncated_pages += 1;
                }

                pages.visited.push(landed);
                let doc = parse(&response.html);

                // Classify the page's forms.
                let all_forms = cafc_html::extract_forms(&doc);
                if !all_forms.is_empty() {
                    let searchable = searchable_forms(&doc);
                    if !searchable.is_empty() {
                        pages.searchable_form_pages.push(landed);
                    } else {
                        pages.rejected_form_pages.push(landed);
                    }
                }

                if job.depth >= config.crawl.max_depth {
                    break 'job;
                }
                // Extract and resolve links against the *landed* page's URL.
                let base = graph.url(landed);
                for node in doc.elements_named("a") {
                    let Some(href) = doc.attr(node, "href") else {
                        continue;
                    };
                    let Some(url) = base.resolve(href) else {
                        continue;
                    };
                    match graph.page_id(&url) {
                        Some(target) => {
                            if !seen[target.index()] {
                                seen[target.index()] = true;
                                queue.push_back(Job {
                                    page: target,
                                    depth: job.depth + 1,
                                });
                            }
                        }
                        None => pages.dead_links += 1,
                    }
                }
            }

            // Job complete (however it ended): journal any dead letter it
            // produced and snapshot at the configured cadence.
            if let Some(c) = ckpt.as_mut() {
                c.after_job(
                    &job,
                    graph,
                    fetcher,
                    &pages,
                    &stats,
                    &clock,
                    &breakers,
                    &seen,
                    &park_counts,
                    &parked,
                    &queue,
                )?;
            }
        }

        // The ready queue is drained. If pages are parked behind open
        // breakers, wait (on the simulated clock) for the earliest breaker
        // to become probeable and try them again.
        if parked.is_empty() || pages.visited.len() >= config.crawl.max_pages {
            break;
        }
        let earliest_reopen = parked
            .iter()
            .filter_map(|job| breakers.get(graph.url(job.page).host())?.reopen_at_ms())
            .min();
        if let Some(t) = earliest_reopen {
            clock.advance_to(t);
        }
        for job in parked.drain(..) {
            queue.push_back(job);
        }
    }

    // The crawl is complete: verify no journaled work went unconsumed
    // (leftovers mean the journal describes a different run) and persist a
    // final snapshot so a `--resume` of a finished crawl replays nothing.
    if let Some(c) = ckpt.as_mut() {
        c.finish(
            graph,
            fetcher,
            &pages,
            &stats,
            &clock,
            &breakers,
            &seen,
            &park_counts,
            &parked,
            &queue,
        )?;
    }

    stats.sim_elapsed_ms = clock.now_ms();
    stats.breaker_trips = breakers.total_trips();
    stats.abandoned_hosts = breakers.open_hosts();
    drop(crawl_span);
    if obs.is_enabled() {
        obs.add("crawl.attempts", stats.attempts);
        obs.add("crawl.successes", stats.successes);
        obs.add("crawl.retries", stats.retries);
        obs.add("crawl.errors.transient", stats.transient_failures);
        obs.add("crawl.errors.permanent", stats.permanent_failures);
        obs.add("crawl.abandoned", stats.abandoned);
        obs.add("crawl.breaker.trips", stats.breaker_trips);
        obs.add("crawl.breaker.rejections", stats.breaker_rejections);
        obs.add("crawl.parked", stats.parked);
        obs.add("crawl.redirects_followed", stats.redirects_followed);
        obs.add("crawl.truncated_pages", stats.truncated_pages);
        obs.add("crawl.dead_letters", stats.dead_letter.len() as u64);
        obs.add("crawl.pages_visited", pages.visited.len() as u64);
        obs.add(
            "crawl.searchable_form_pages",
            pages.searchable_form_pages.len() as u64,
        );
        obs.gauge("crawl.sim_elapsed_ms", stats.sim_elapsed_ms as f64);
    }
    Ok(ResilientCrawlOutcome { pages, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_corpus::{generate, CorpusConfig};
    use cafc_webgraph::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).expect("test url parses")
    }

    #[test]
    fn crawls_a_hand_built_site() {
        let mut g = WebGraph::new();
        let home = g.add_page(
            url("http://a.com/"),
            r#"<a href="/search.html">search</a><a href="/dead.html">x</a>"#.into(),
        );
        let search = g.add_page(
            url("http://a.com/search.html"),
            r#"<form action="/s"><input name=q><input type=submit value=Search></form>"#.into(),
        );
        let result = crawl(&g, home, &CrawlConfig::default());
        assert_eq!(result.visited, vec![home, search]);
        assert_eq!(result.searchable_form_pages, vec![search]);
        assert_eq!(result.dead_links, 1);
    }

    #[test]
    fn respects_depth_limit() {
        let mut g = WebGraph::new();
        let a = g.add_page(
            url("http://a.com/"),
            r#"<a href="http://b.com/">b</a>"#.into(),
        );
        let b = g.add_page(
            url("http://b.com/"),
            r#"<a href="http://c.com/">c</a>"#.into(),
        );
        let c = g.add_page(url("http://c.com/"), "end".into());
        let shallow = crawl(
            &g,
            a,
            &CrawlConfig {
                max_depth: 1,
                ..Default::default()
            },
        );
        assert_eq!(shallow.visited, vec![a, b]);
        let deep = crawl(&g, a, &CrawlConfig::default());
        assert_eq!(deep.visited, vec![a, b, c]);
    }

    #[test]
    fn respects_page_limit() {
        let mut g = WebGraph::new();
        let mut prev_html = String::new();
        for i in (0..10).rev() {
            prev_html = format!(r#"<a href="http://s{i}.com/">next</a>{prev_html}"#);
        }
        let hub = g.add_page(url("http://hub.com/"), prev_html);
        for i in 0..10 {
            g.add_page(url(&format!("http://s{i}.com/")), "x".into());
        }
        let result = crawl(
            &g,
            hub,
            &CrawlConfig {
                max_pages: 4,
                ..Default::default()
            },
        );
        assert_eq!(result.visited.len(), 4);
    }

    #[test]
    fn rejects_non_searchable_pages() {
        let mut g = WebGraph::new();
        let login = g.add_page(
            url("http://a.com/login"),
            r#"<form action="/login" method=post><input name=u>
            <input type=password name=p><input type=submit value=Login></form>"#
                .into(),
        );
        let result = crawl(&g, login, &CrawlConfig::default());
        assert_eq!(result.rejected_form_pages, vec![login]);
        assert!(result.searchable_form_pages.is_empty());
    }

    #[test]
    fn full_synthetic_web_crawl_finds_most_form_pages() {
        let web = generate(&CorpusConfig::small(99));
        let result = crawl(&web.graph, web.portal, &CrawlConfig::default());
        // Every form page whose site root is linked from the portal is
        // reachable; the classifier should accept the searchable ones.
        let found = result.searchable_form_pages.len();
        let expected = web.form_pages.len();
        assert!(
            found as f64 >= expected as f64 * 0.9,
            "crawler found {found} of {expected} searchable form pages"
        );
        // Non-searchable pages must overwhelmingly be rejected, not accepted.
        let accepted_bad = web
            .non_searchable
            .iter()
            .filter(|p| result.searchable_form_pages.contains(p))
            .count();
        assert!(
            accepted_bad * 10 <= web.non_searchable.len(),
            "{accepted_bad} of {} non-searchable pages misclassified",
            web.non_searchable.len()
        );
    }

    #[test]
    fn seed_without_html_yields_empty_crawl() {
        let mut g = WebGraph::new();
        let ghost = g.intern(url("http://ghost.com/"));
        let result = crawl(&g, ghost, &CrawlConfig::default());
        assert!(result.visited.is_empty());
    }

    // ---- resilient-crawl behavior --------------------------------------

    #[test]
    fn zero_fault_chaos_crawl_matches_plain_bfs_exactly() {
        let web = generate(&CorpusConfig::small(31));
        let plain = crawl(&web.graph, web.portal, &CrawlConfig::default());
        let mut chaos = ChaosFetcher::over_graph(&web.graph, FaultConfig::default());
        let outcome = crawl_resilient(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &Obs::disabled(),
        );
        assert_eq!(outcome.pages.visited, plain.visited);
        assert_eq!(
            outcome.pages.searchable_form_pages,
            plain.searchable_form_pages
        );
        assert_eq!(outcome.pages.rejected_form_pages, plain.rejected_form_pages);
        assert_eq!(outcome.pages.dead_links, plain.dead_links);
        assert_eq!(outcome.stats.retries, 0);
        assert_eq!(outcome.stats.breaker_trips, 0);
        assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    }

    #[test]
    fn plain_crawl_accounts_placeholders_as_permanent_dead_letters() {
        let mut g = WebGraph::new();
        let home = g.add_page(
            url("http://a.com/"),
            r#"<a href="/x">x</a><a href="http://ghost.com/">g</a>"#.into(),
        );
        g.add_page(url("http://a.com/x"), "x".into());
        g.intern(url("http://ghost.com/"));
        let mut fetcher = GraphFetcher::new(&g);
        let outcome = crawl_resilient(
            &g,
            &mut fetcher,
            home,
            &ResilientConfig::default(),
            &Obs::disabled(),
        );
        assert_eq!(outcome.pages.visited.len(), 2);
        assert_eq!(outcome.stats.abandoned, 1);
        assert_eq!(outcome.stats.abandoned_with(AbandonReason::Permanent), 1);
        assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    }

    #[test]
    fn transient_faults_are_retried_to_high_recovery() {
        let web = generate(&CorpusConfig::small(37));
        let gold = web.form_page_ids();
        let mut chaos = ChaosFetcher::over_graph(&web.graph, FaultConfig::transient(0.2, 5));
        let outcome = crawl_resilient(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &Obs::disabled(),
        );
        let found = outcome
            .pages
            .searchable_form_pages
            .iter()
            .filter(|p| gold.contains(p))
            .count();
        assert!(
            found as f64 >= gold.len() as f64 * 0.9,
            "recovered only {found}/{} under 20% transient faults\n{}",
            gold.len(),
            outcome.stats,
        );
        assert!(outcome.stats.retries > 0, "20% faults must trigger retries");
        assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    }

    #[test]
    fn obs_instrumentation_does_not_perturb_crawl() {
        let web = generate(&CorpusConfig::small(37));
        let mut chaos = ChaosFetcher::over_graph(&web.graph, FaultConfig::transient(0.2, 5));
        let plain = crawl_resilient(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &Obs::disabled(),
        );
        let obs = Obs::with_clock(std::sync::Arc::new(cafc_obs::ManualClock::new()));
        let mut chaos = ChaosFetcher::over_graph(&web.graph, FaultConfig::transient(0.2, 5));
        let outcome = crawl_resilient(
            &web.graph,
            &mut chaos,
            web.portal,
            &ResilientConfig::default(),
            &obs,
        );
        assert_eq!(outcome.pages.visited, plain.pages.visited);
        assert_eq!(outcome.stats.attempts, plain.stats.attempts);
        let snap = obs.snapshot();
        let json = snap.render_json();
        assert!(json.contains("\"crawl.attempts\""), "{json}");
        assert!(json.contains("\"crawl.retries\""), "{json}");
        assert!(json.contains("\"crawl.backoff_wait_ms\""), "{json}");
        assert!(json.contains("\"crawl.sim_elapsed_ms\""), "{json}");
    }

    #[test]
    fn certain_failure_dead_letters_everything() {
        let mut g = WebGraph::new();
        let home = g.add_page(url("http://a.com/"), "<a href=\"/b\">b</a>".into());
        g.add_page(url("http://a.com/b"), "b".into());
        let mut chaos = ChaosFetcher::over_graph(&g, FaultConfig::transient(1.0, 3));
        let config = ResilientConfig {
            breaker: BreakerConfig {
                failure_threshold: 100,
                ..Default::default()
            },
            ..Default::default()
        };
        let outcome = crawl_resilient(&g, &mut chaos, home, &config, &Obs::disabled());
        assert!(outcome.pages.visited.is_empty());
        assert_eq!(outcome.stats.successes, 0);
        assert_eq!(
            outcome
                .stats
                .abandoned_with(AbandonReason::RetriesExhausted),
            1
        );
        // Only the seed is ever discovered — its links were never read.
        assert_eq!(outcome.stats.dead_letter.len(), 1);
        assert_eq!(
            outcome.stats.attempts,
            u64::from(config.retry.max_retries) + 1,
            "each page gets max_retries + 1 attempts"
        );
        assert!(outcome.stats.is_accounted(), "{}", outcome.stats);
    }
}
