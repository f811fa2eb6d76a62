//! The fetch abstraction: how the crawler retrieves a page.
//!
//! Real crawls do not read from a perfect in-memory graph — they face
//! timeouts, dead hosts, truncated responses and transient server errors.
//! [`Fetcher`] abstracts retrieval behind a fallible call so the crawler
//! can be written against the failure model instead of the happy path:
//! [`GraphFetcher`] is the ideal fetcher over a [`WebGraph`], and
//! [`ChaosFetcher`] wraps any fetcher with deterministic, seeded fault
//! injection (transient and permanent errors, redirects, truncated bodies,
//! simulated latency) at configurable per-class rates.

use cafc_webgraph::{PageId, WebGraph};
use std::collections::HashMap;

// The deterministic fault/jitter source: the workspace-shared splitmix64
// step from `cafc-check`, bit-identical to the private copy this crate
// carried before the PRNG unification — seeded fault schedules replay
// unchanged.
pub(crate) use cafc_check::{mix64 as splitmix64, Seed};

/// Why a fetch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// The server did not answer in time (transient).
    TimedOut,
    /// The server answered 5xx (transient).
    ServerError,
    /// The connection dropped mid-transfer (transient).
    ConnectionReset,
    /// The URL has no content behind it — 404 (permanent).
    NotFound,
    /// The resource is gone for good — 410 (permanent).
    Gone,
}

impl FetchError {
    /// Transient errors are worth retrying; permanent ones are not.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            FetchError::TimedOut | FetchError::ServerError | FetchError::ConnectionReset
        )
    }
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FetchError::TimedOut => "timed out",
            FetchError::ServerError => "server error (5xx)",
            FetchError::ConnectionReset => "connection reset",
            FetchError::NotFound => "not found (404)",
            FetchError::Gone => "gone (410)",
        };
        f.write_str(name)
    }
}

/// A successful fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResponse {
    /// The page whose content was returned — differs from the requested
    /// page when the fetch was redirected.
    pub page: PageId,
    /// The (possibly truncated) HTML body.
    pub html: String,
    /// True when the body was cut off mid-transfer.
    pub truncated: bool,
    /// True when the request was redirected to another page.
    pub redirected: bool,
    /// Simulated wall-clock cost of the fetch in milliseconds.
    pub latency_ms: u64,
}

/// Page retrieval. Implementations decide what "the network" looks like.
pub trait Fetcher {
    /// Fetch `page`, returning its HTML or a classified error.
    fn fetch(&mut self, page: PageId) -> Result<FetchResponse, FetchError>;

    /// Export whatever per-page attempt state the fetcher carries, as
    /// `(page id, attempts)` sorted by page id. Stateless fetchers (the
    /// default) export nothing. Checkpointing uses this so a resumed
    /// [`ChaosFetcher`] rolls the same per-attempt dice it would have
    /// rolled in an uninterrupted run.
    fn export_attempts(&self) -> Vec<(u32, u64)> {
        Vec::new()
    }

    /// Restore state previously produced by
    /// [`Fetcher::export_attempts`]. A no-op for stateless fetchers.
    fn restore_attempts(&mut self, _attempts: &[(u32, u64)]) {}
}

/// The ideal fetcher: reads straight from the in-memory [`WebGraph`] with
/// zero latency and no faults. Content-less placeholder pages yield
/// [`FetchError::NotFound`].
#[derive(Debug)]
pub struct GraphFetcher<'g> {
    graph: &'g WebGraph,
}

impl<'g> GraphFetcher<'g> {
    /// A fetcher over `graph`.
    pub fn new(graph: &'g WebGraph) -> Self {
        GraphFetcher { graph }
    }
}

impl Fetcher for GraphFetcher<'_> {
    fn fetch(&mut self, page: PageId) -> Result<FetchResponse, FetchError> {
        match self.graph.html(page) {
            Some(html) => Ok(FetchResponse {
                page,
                html: html.to_owned(),
                truncated: false,
                redirected: false,
                latency_ms: 0,
            }),
            None => Err(FetchError::NotFound),
        }
    }
}

/// Per-class fault rates for [`ChaosFetcher`]. All rates are probabilities
/// in [0, 1]; the default injects nothing.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability that an attempt fails with a transient error (timeout,
    /// 5xx, connection reset). Re-rolled on every attempt, so retries can
    /// succeed.
    pub transient_rate: f64,
    /// Probability that a page is permanently dead (410). Rolled once per
    /// page: a doomed page fails every attempt.
    pub permanent_rate: f64,
    /// Probability that a successful response body is truncated, possibly
    /// mid-tag.
    pub truncate_rate: f64,
    /// Probability that a fetch is redirected to the page's site root.
    pub redirect_rate: f64,
    /// Simulated latency range (min, max) in milliseconds per successful
    /// fetch.
    pub latency_ms: (u64, u64),
    /// Stream seed: the same seed replays the exact same fault schedule.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            transient_rate: 0.0,
            permanent_rate: 0.0,
            truncate_rate: 0.0,
            redirect_rate: 0.0,
            latency_ms: (1, 40),
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A config that injects only transient faults at `rate`.
    pub fn transient(rate: f64, seed: u64) -> Self {
        FaultConfig {
            transient_rate: rate,
            seed,
            ..FaultConfig::default()
        }
    }
}

// Salt constants separating the chaos decision streams.
const SALT_PERMANENT: u64 = 0x1;
const SALT_TRANSIENT: u64 = 0x2;
const SALT_VARIANT: u64 = 0x3;
const SALT_REDIRECT: u64 = 0x4;
const SALT_TRUNCATE: u64 = 0x5;
const SALT_CUT: u64 = 0x6;
const SALT_LATENCY: u64 = 0x7;

/// A deterministic fault-injecting wrapper around another fetcher.
///
/// Every decision is a pure function of `(seed, page, per-page attempt
/// number)`, so a crawl against the same graph with the same seed replays
/// the identical fault schedule — failures are reproducible, and retrying
/// a transiently-failed page rolls fresh dice.
#[derive(Debug)]
pub struct ChaosFetcher<'g, F> {
    graph: &'g WebGraph,
    inner: F,
    config: FaultConfig,
    attempts: HashMap<PageId, u64>,
}

impl<'g> ChaosFetcher<'g, GraphFetcher<'g>> {
    /// Chaos over the ideal graph fetcher — the usual construction.
    pub fn over_graph(graph: &'g WebGraph, config: FaultConfig) -> Self {
        ChaosFetcher::new(graph, GraphFetcher::new(graph), config)
    }
}

impl<'g, F: Fetcher> ChaosFetcher<'g, F> {
    /// Wrap `inner`, injecting faults per `config`. The graph reference is
    /// needed to resolve redirect targets (site roots).
    pub fn new(graph: &'g WebGraph, inner: F, config: FaultConfig) -> Self {
        ChaosFetcher {
            graph,
            inner,
            config,
            attempts: HashMap::new(),
        }
    }

    fn roll(&self, page: PageId, attempt: u64, salt: u64) -> f64 {
        Seed::new(self.config.seed).unit(u64::from(page.0), attempt, salt)
    }
}

impl<F: Fetcher> Fetcher for ChaosFetcher<'_, F> {
    fn fetch(&mut self, page: PageId) -> Result<FetchResponse, FetchError> {
        let attempt = {
            let counter = self.attempts.entry(page).or_insert(0);
            *counter += 1;
            *counter
        };

        // Permanently dead pages fail identically on every attempt.
        if self.roll(page, 0, SALT_PERMANENT) < self.config.permanent_rate {
            return Err(FetchError::Gone);
        }

        // Transient failure, re-rolled per attempt.
        if self.roll(page, attempt, SALT_TRANSIENT) < self.config.transient_rate {
            let variant = self.roll(page, attempt, SALT_VARIANT);
            return Err(if variant < 1.0 / 3.0 {
                FetchError::TimedOut
            } else if variant < 2.0 / 3.0 {
                FetchError::ServerError
            } else {
                FetchError::ConnectionReset
            });
        }

        let mut response = self.inner.fetch(page)?;

        // Redirect to the site root (if the page is not already the root
        // and the root exists in the graph).
        if self.roll(page, attempt, SALT_REDIRECT) < self.config.redirect_rate {
            let url = self.graph.url(page);
            if !url.is_site_root() {
                if let Some(root) = self.graph.page_id(&url.site_root()) {
                    if root != page {
                        response = self.inner.fetch(root)?;
                        response.page = root;
                        response.redirected = true;
                    }
                }
            }
        }

        // Truncation: cut the body somewhere in its middle — mid-tag cuts
        // included, the parser has to cope.
        if self.roll(page, attempt, SALT_TRUNCATE) < self.config.truncate_rate
            && !response.html.is_empty()
        {
            let frac = 0.2 + 0.7 * self.roll(page, attempt, SALT_CUT);
            let mut cut = (response.html.len() as f64 * frac) as usize;
            while cut > 0 && !response.html.is_char_boundary(cut) {
                cut -= 1;
            }
            response.html.truncate(cut);
            response.truncated = true;
        }

        // Simulated latency.
        let (lo, hi) = self.config.latency_ms;
        let span = hi.saturating_sub(lo) + 1;
        let latency = lo + (splitmix64(self.roll(page, attempt, SALT_LATENCY).to_bits()) % span);
        response.latency_ms = response.latency_ms.saturating_add(latency);

        Ok(response)
    }

    fn export_attempts(&self) -> Vec<(u32, u64)> {
        let mut attempts: Vec<(u32, u64)> = self.attempts.iter().map(|(p, &n)| (p.0, n)).collect();
        attempts.sort_unstable();
        attempts
    }

    fn restore_attempts(&mut self, attempts: &[(u32, u64)]) {
        self.attempts = attempts.iter().map(|&(p, n)| (PageId(p), n)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_webgraph::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).expect("test url parses")
    }

    fn two_page_site() -> (WebGraph, PageId, PageId) {
        let mut g = WebGraph::new();
        let root = g.add_page(url("http://a.com/"), "<a href=\"/f\">f</a>".into());
        let f = g.add_page(url("http://a.com/f"), "<form><input name=q></form>".into());
        (g, root, f)
    }

    #[test]
    fn graph_fetcher_returns_html_and_404s_placeholders() {
        let (mut g, root, _) = {
            let (g, r, f) = two_page_site();
            (g, r, f)
        };
        let ghost = g.intern(url("http://ghost.com/"));
        let mut fetcher = GraphFetcher::new(&g);
        let resp = fetcher.fetch(root).expect("root has content");
        assert!(resp.html.contains("href"));
        assert!(!resp.truncated && !resp.redirected);
        assert_eq!(fetcher.fetch(ghost), Err(FetchError::NotFound));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let (g, root, f) = two_page_site();
        let mut chaos = ChaosFetcher::over_graph(&g, FaultConfig::default());
        for page in [root, f, root, f] {
            let resp = chaos.fetch(page).expect("no faults configured");
            assert_eq!(resp.page, page);
            assert!(!resp.truncated && !resp.redirected);
        }
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let (g, root, f) = two_page_site();
        let config = FaultConfig {
            transient_rate: 0.5,
            truncate_rate: 0.5,
            seed: 7,
            ..Default::default()
        };
        let run =
            |mut chaos: ChaosFetcher<'_, GraphFetcher<'_>>| -> Vec<Result<usize, FetchError>> {
                (0..20)
                    .map(|i| {
                        chaos
                            .fetch(if i % 2 == 0 { root } else { f })
                            .map(|r| r.html.len())
                    })
                    .collect()
            };
        let a = run(ChaosFetcher::over_graph(&g, config));
        let b = run(ChaosFetcher::over_graph(&g, config));
        assert_eq!(a, b);
        let c = run(ChaosFetcher::over_graph(
            &g,
            FaultConfig { seed: 8, ..config },
        ));
        assert_ne!(a, c, "different seed should give a different schedule");
    }

    #[test]
    fn transient_failures_eventually_succeed_on_retry() {
        let (g, _, f) = two_page_site();
        let mut chaos = ChaosFetcher::over_graph(&g, FaultConfig::transient(0.5, 11));
        let ok = (0..32).any(|_| chaos.fetch(f).is_ok());
        assert!(
            ok,
            "a 50% transient rate must not fail 32 attempts in a row"
        );
    }

    #[test]
    fn permanently_dead_pages_fail_every_attempt() {
        let (g, root, f) = two_page_site();
        let config = FaultConfig {
            permanent_rate: 1.0,
            ..Default::default()
        };
        let mut chaos = ChaosFetcher::over_graph(&g, config);
        for _ in 0..4 {
            assert_eq!(chaos.fetch(root), Err(FetchError::Gone));
            assert_eq!(chaos.fetch(f), Err(FetchError::Gone));
        }
    }

    #[test]
    fn truncation_cuts_the_body() {
        let (g, _, f) = two_page_site();
        let config = FaultConfig {
            truncate_rate: 1.0,
            ..Default::default()
        };
        let mut chaos = ChaosFetcher::over_graph(&g, config);
        let resp = chaos.fetch(f).expect("fetch succeeds");
        assert!(resp.truncated);
        let full = g.html(f).expect("content").len();
        assert!(resp.html.len() < full, "{} !< {full}", resp.html.len());
    }

    #[test]
    fn redirects_land_on_the_site_root() {
        let (g, root, f) = two_page_site();
        let config = FaultConfig {
            redirect_rate: 1.0,
            ..Default::default()
        };
        let mut chaos = ChaosFetcher::over_graph(&g, config);
        let resp = chaos.fetch(f).expect("fetch succeeds");
        assert!(resp.redirected);
        assert_eq!(resp.page, root);
        // The root itself cannot be redirected further.
        let resp = chaos.fetch(root).expect("fetch succeeds");
        assert!(!resp.redirected);
        assert_eq!(resp.page, root);
    }

    #[test]
    fn restored_attempt_state_replays_the_fault_schedule() {
        let (g, root, f) = two_page_site();
        let config = FaultConfig {
            transient_rate: 0.5,
            truncate_rate: 0.3,
            seed: 21,
            ..Default::default()
        };
        // Uninterrupted run: 12 fetches.
        let mut baseline = ChaosFetcher::over_graph(&g, config);
        let full: Vec<_> = (0..12)
            .map(|i| baseline.fetch(if i % 2 == 0 { root } else { f }))
            .collect();
        // Interrupted run: 5 fetches, export, rebuild, restore, continue.
        let mut first = ChaosFetcher::over_graph(&g, config);
        let mut resumed_results: Vec<_> = (0..5)
            .map(|i| first.fetch(if i % 2 == 0 { root } else { f }))
            .collect();
        let exported = first.export_attempts();
        drop(first);
        let mut second = ChaosFetcher::over_graph(&g, config);
        second.restore_attempts(&exported);
        resumed_results.extend((5..12).map(|i| second.fetch(if i % 2 == 0 { root } else { f })));
        assert_eq!(full, resumed_results);
    }

    #[test]
    fn latency_stays_in_range() {
        let (g, root, _) = two_page_site();
        let config = FaultConfig {
            latency_ms: (5, 9),
            ..Default::default()
        };
        let mut chaos = ChaosFetcher::over_graph(&g, config);
        for _ in 0..50 {
            let resp = chaos.fetch(root).expect("fetch succeeds");
            assert!((5..=9).contains(&resp.latency_ms), "{}", resp.latency_ms);
        }
    }
}
