//! Seeded open-loop load generation over a [`SearchIndex`].
//!
//! Two passes, one seed:
//!
//! 1. **Determinism pass** (untimed, serial): replays the full query
//!    stream through both the configured (routed/budgeted) path and the
//!    brute-force reference, producing recall@10, the routed-vs-full
//!    postings comparison, and FNV-1a digests of the stream and its result
//!    sets. Everything here is a pure function of `(corpus, seed, config)`
//!    — two runs with the same seed produce byte-identical digests, which
//!    the CI smoke job diffs.
//! 2. **Timed pass** (open-loop): arrivals follow a seeded Poisson process
//!    at the configured rate; a worker pool answers queries while the
//!    driver keeps injecting on schedule, so queue delay shows up in the
//!    latency numbers instead of silently throttling the offered load.
//!    Latency is measured from *scheduled* arrival to completion.
//!
//! Queries are sampled from a Zipf-distributed mix over the corpus's own
//! vocabulary (most-frequent terms rank first), so the offered load has
//! the skew real query logs do.

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cafc::{IndexDict, Obs, SearchIndex};
use cafc_check::rng::Seed;
use cafc_text::{Analyzer, TermDict};

use cafc_obs::json;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Load-generator configuration.
///
/// Construct with [`LoadgenConfig::new`] plus the chainable `with_*`
/// setters; `#[non_exhaustive]` so future knobs are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct LoadgenConfig {
    /// Root seed: pins the query stream, term mix and arrival schedule.
    pub seed: u64,
    /// Offered load in queries per second.
    pub rate: f64,
    /// Run length in milliseconds.
    pub duration_ms: u64,
    /// Results requested per query.
    pub k: usize,
    /// Vocabulary size for the Zipf query mix (top-N corpus terms).
    pub vocab: usize,
    /// Worker threads answering queries in the timed pass.
    pub workers: usize,
}

impl Default for LoadgenConfig {
    /// Seed 0, 200 qps for 1 s, top-10, 256-term vocabulary, 4 workers.
    fn default() -> Self {
        LoadgenConfig {
            seed: 0,
            rate: 200.0,
            duration_ms: 1_000,
            k: 10,
            vocab: 256,
            workers: 4,
        }
    }
}

impl LoadgenConfig {
    /// The default configuration (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the root seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the offered load (queries per second, must be positive).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Set the run length in milliseconds.
    pub fn with_duration_ms(mut self, duration_ms: u64) -> Self {
        self.duration_ms = duration_ms;
        self
    }

    /// Set the per-query result count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Set the query-mix vocabulary size.
    pub fn with_vocab(mut self, vocab: usize) -> Self {
        self.vocab = vocab.max(1);
        self
    }

    /// Set the timed-pass worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// A Zipf-weighted query mix over the corpus's own vocabulary.
///
/// Terms are ranked by collection frequency (sum of location-weighted
/// term frequencies over all pages, ties broken by term id), truncated to
/// the top `vocab`, and filtered to terms that survive a round trip
/// through the analyzer — a sampled term must map back to itself when the
/// query text is analyzed, or the stream would query terms the index can
/// never match.
#[derive(Debug, Clone)]
pub struct QueryMix {
    terms: Vec<String>,
    /// Cumulative Zipf weights (`1/rank`), parallel to `terms`.
    cumulative: Vec<f64>,
}

impl QueryMix {
    /// Build the mix from an already-built [`SearchIndex`]: its dictionary
    /// and the corpus's page-content term frequencies it holds.
    pub fn from_index(index: &SearchIndex, vocab: usize) -> QueryMix {
        QueryMix::build(index.dict(), index.docs_tf(), vocab)
    }

    fn build(dict: &IndexDict, docs: &[cafc_vsm::SparseVector], vocab: usize) -> QueryMix {
        let mut cf = vec![0.0f64; dict.len()];
        for doc in docs {
            for &(term, tf) in doc.entries() {
                cf[term.index()] += tf;
            }
        }
        let mut ranked: Vec<(usize, f64)> = cf
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, f)| f > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut terms = Vec::with_capacity(vocab.min(ranked.len()));
        for (index, _) in ranked {
            if terms.len() >= vocab.max(1) {
                break;
            }
            let term = dict.term(cafc_text::TermId(index as u32));
            if round_trips(dict, term) {
                terms.push(term.to_string());
            }
        }
        let mut cumulative = Vec::with_capacity(terms.len());
        let mut total = 0.0;
        for rank in 0..terms.len() {
            total += 1.0 / (rank as f64 + 1.0);
            cumulative.push(total);
        }
        QueryMix { terms, cumulative }
    }

    /// Number of distinct terms in the mix.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the corpus yielded no usable query terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// One Zipf draw from the mix.
    fn sample_term(&self, roll: f64) -> &str {
        let total = self.cumulative.last().copied().unwrap_or(0.0);
        let target = roll * total;
        let slot = self
            .cumulative
            .partition_point(|&c| c <= target)
            .min(self.terms.len().saturating_sub(1));
        &self.terms[slot]
    }

    /// The `index`-th query of the stream rooted at `seed`: one to three
    /// Zipf-sampled terms. A pure function of `(seed, index)`.
    pub fn query(&self, seed: Seed, index: u64) -> String {
        let mut rng = seed.stream(index);
        let terms = rng.range_usize(1, 3);
        let mut parts = Vec::with_capacity(terms);
        for _ in 0..terms {
            parts.push(self.sample_term(rng.unit()));
        }
        parts.join(" ")
    }
}

/// Does analyzing `term` yield exactly `term`'s own id back?
fn round_trips(dict: &IndexDict, term: &str) -> bool {
    let mut probe = TermDict::new();
    let analyzed = Analyzer.analyze(term, &mut probe);
    analyzed.len() == 1 && dict.get(probe.term(analyzed[0])).map(|id| dict.term(id)) == Some(term)
}

/// Everything one loadgen run measured.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct LoadgenReport {
    /// The seed that pinned the run.
    pub seed: u64,
    /// Queries issued.
    pub queries: usize,
    /// Offered load (queries per second).
    pub offered_qps: f64,
    /// Achieved throughput in the timed pass.
    pub achieved_qps: f64,
    /// Median latency (µs), scheduled-arrival to completion.
    pub p50_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// 99.9th-percentile latency (µs).
    pub p999_us: f64,
    /// FNV-1a digest of the query stream text.
    pub stream_hash: u64,
    /// FNV-1a digest of every query's result set (docs + score bits).
    pub results_hash: u64,
    /// Mean recall@10 of the configured path against the brute-force
    /// reference.
    pub recall_at_10: f64,
    /// Postings scanned by the configured (routed/budgeted) path over the
    /// whole stream.
    pub routed_postings: usize,
    /// Postings the brute-force reference paid for on the same stream.
    pub full_postings: usize,
    /// Documents in the index.
    pub index_docs: usize,
    /// Postings in the index.
    pub index_postings: usize,
    /// Wall-clock to build the index (ms); measured by the caller.
    pub index_build_ms: f64,
    /// Index construction throughput (pages per second).
    pub pages_per_sec: f64,
}

impl LoadgenReport {
    /// The full report as stable-schema JSON (the `BENCH_<n>.json`
    /// trajectory — future PRs append fields, never rename).
    pub fn render_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"loadgen\",\n  \"seed\": {},\n  \"queries\": {},\n  \
             \"offered_qps\": {},\n  \"achieved_qps\": {},\n  \"p50_us\": {},\n  \
             \"p99_us\": {},\n  \"p999_us\": {},\n  \"stream_hash\": \"{:016x}\",\n  \
             \"results_hash\": \"{:016x}\",\n  \"recall_at_10\": {},\n  \
             \"routed_postings\": {},\n  \"full_postings\": {},\n  \"index_docs\": {},\n  \
             \"index_postings\": {},\n  \"index_build_ms\": {},\n  \"pages_per_sec\": {}\n}}\n",
            self.seed,
            self.queries,
            json::number(self.offered_qps),
            json::number(self.achieved_qps),
            json::number(self.p50_us),
            json::number(self.p99_us),
            json::number(self.p999_us),
            self.stream_hash,
            self.results_hash,
            json::number(self.recall_at_10),
            self.routed_postings,
            self.full_postings,
            self.index_docs,
            self.index_postings,
            json::number(self.index_build_ms),
            json::number(self.pages_per_sec),
        )
    }

    /// Only the seed-determined fields, as JSON: two runs with the same
    /// seed against the same corpus must produce byte-identical digests
    /// (the CI smoke job diffs exactly this).
    pub fn render_digest(&self) -> String {
        format!(
            "{{\"seed\": {}, \"queries\": {}, \"stream_hash\": \"{:016x}\", \
             \"results_hash\": \"{:016x}\", \"recall_at_10\": {}, \
             \"routed_postings\": {}, \"full_postings\": {}}}\n",
            self.seed,
            self.queries,
            self.stream_hash,
            self.results_hash,
            json::number(self.recall_at_10),
            self.routed_postings,
            self.full_postings,
        )
    }
}

/// Exact quantile of a sorted sample (nearest-rank); 0 when empty.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the generator against an in-process index.
///
/// `index_build_ms` is how long the caller took to build `index` (the
/// loadgen has no way to observe that itself); pass 0.0 when unknown.
pub fn run(
    index: &SearchIndex,
    config: &LoadgenConfig,
    obs: &Obs,
    index_build_ms: f64,
) -> LoadgenReport {
    let seed = Seed::new(config.seed);
    let mix = QueryMix::from_index(index, config.vocab);
    let schedule = build_schedule(&mix, seed, config);
    let queries: Vec<&str> = schedule.iter().map(|(_, q)| q.as_str()).collect();

    // Pass 1: seed-determined measurements, serial and untimed.
    let mut stream_hash = Fnv::new();
    let mut results_hash = Fnv::new();
    let mut recall_sum = 0.0;
    let mut recall_n = 0usize;
    let mut routed_postings = 0usize;
    let mut full_postings = 0usize;
    for q in &queries {
        stream_hash.write(q.as_bytes());
        stream_hash.write(b"\n");
        let routed = index.search_k(q, config.k);
        let reference = index.reference(q, 10);
        routed_postings += routed.stats.postings_scanned;
        full_postings += reference.stats.postings_scanned;
        results_hash.write_u64(routed.hits.len() as u64);
        for hit in &routed.hits {
            results_hash.write_u64(hit.doc as u64);
            results_hash.write_u64(hit.score.to_bits());
        }
        if !reference.hits.is_empty() {
            let top: Vec<usize> = index.search_k(q, 10).hits.iter().map(|h| h.doc).collect();
            let found = reference
                .hits
                .iter()
                .filter(|h| top.contains(&h.doc))
                .count();
            recall_sum += found as f64 / reference.hits.len() as f64;
            recall_n += 1;
        }
    }

    // Pass 2: the timed open-loop run.
    let latencies = timed_pass(index, &schedule, config, obs);
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let elapsed_s = (config.duration_ms as f64 / 1_000.0).max(1e-9);

    let queries_n = schedule.len();
    LoadgenReport {
        seed: config.seed,
        queries: queries_n,
        offered_qps: config.rate,
        achieved_qps: latencies.len() as f64 / elapsed_s,
        p50_us: quantile(&sorted, 0.50),
        p99_us: quantile(&sorted, 0.99),
        p999_us: quantile(&sorted, 0.999),
        stream_hash: stream_hash.finish(),
        results_hash: results_hash.finish(),
        recall_at_10: if recall_n == 0 {
            1.0
        } else {
            recall_sum / recall_n as f64
        },
        routed_postings,
        full_postings,
        index_docs: index.num_docs(),
        index_postings: index.num_postings(),
        index_build_ms,
        pages_per_sec: if index_build_ms > 0.0 {
            index.num_docs() as f64 / (index_build_ms / 1_000.0)
        } else {
            0.0
        },
    }
}

/// The deterministic arrival schedule: `(offset_since_start, query)`
/// pairs. Inter-arrivals are exponential at `config.rate`, so the stream
/// is an open-loop Poisson process; both the offsets and the query texts
/// are pure functions of the seed.
fn build_schedule(mix: &QueryMix, seed: Seed, config: &LoadgenConfig) -> Vec<(Duration, String)> {
    if mix.is_empty() || config.rate <= 0.0 {
        return Vec::new();
    }
    let mut arrivals = seed.derive(0x4152_5249_5645).rng();
    let horizon = Duration::from_millis(config.duration_ms);
    let mut at = Duration::ZERO;
    let mut schedule = Vec::new();
    let mut index = 0u64;
    loop {
        // Exponential inter-arrival; 1 - unit() is in (0, 1], so ln is
        // finite and non-positive.
        let gap = -(1.0 - arrivals.unit()).ln() / config.rate;
        at += Duration::from_secs_f64(gap);
        if at >= horizon {
            return schedule;
        }
        schedule.push((at, mix.query(seed.derive(0x0051_5545_5259), index)));
        index += 1;
    }
}

/// Inject the schedule in real time against a worker pool; returns each
/// query's latency in microseconds (scheduled arrival → completion).
fn timed_pass(
    index: &SearchIndex,
    schedule: &[(Duration, String)],
    config: &LoadgenConfig,
    obs: &Obs,
) -> Vec<f64> {
    if schedule.is_empty() {
        return Vec::new();
    }
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(schedule.len())));
    thread::scope(|scope| {
        // Unbounded channel: an open-loop driver never blocks on its own
        // workers — overload must surface as queue delay, not back-pressure.
        let (tx, rx) = channel::<(Instant, &str)>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let latencies = Arc::clone(&latencies);
            let obs = obs.clone();
            scope.spawn(move || loop {
                let job = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(poisoned) => poisoned.into_inner().recv(),
                };
                let Ok((scheduled, query)) = job else { break };
                let _ = index.search_k(query, config.k);
                let us = scheduled.elapsed().as_secs_f64() * 1e6;
                obs.observe("loadgen.latency_us", us);
                if let Ok(mut guard) = latencies.lock() {
                    guard.push(us);
                }
            });
        }
        let start = Instant::now();
        for (offset, query) in schedule {
            let due = start + *offset;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            // Latency clock starts at the *scheduled* arrival, so driver
            // lag counts against the server, not in its favour.
            if tx.send((due, query.as_str())).is_err() {
                break;
            }
        }
        drop(tx);
    });
    match Arc::try_unwrap(latencies) {
        Ok(mutex) => mutex.into_inner().unwrap_or_default(),
        Err(arc) => arc.lock().map(|v| v.clone()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc::{ExecPolicy, FormPageCorpus, ModelOptions, Partition, SearchConfig, SearchPipeline};

    fn pages() -> Vec<String> {
        (0..12)
            .map(|i| {
                let topic = if i % 2 == 0 {
                    "airfare travel flights airline vacation"
                } else {
                    "careers employment salary resume hiring"
                };
                format!("<p>{topic} database search page{i}</p><form><input name=q{i}></form>")
            })
            .collect()
    }

    fn index() -> SearchIndex {
        let corpus = FormPageCorpus::from_html(
            pages().iter().map(|p| p.as_str()),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let clusters = vec![
            (0..12).filter(|i| i % 2 == 0).collect(),
            (0..12).filter(|i| i % 2 == 1).collect(),
        ];
        let partition = Partition::new(clusters, 12);
        SearchPipeline::builder()
            .config(SearchConfig::new().with_budget(Some(64)))
            .build()
            .index(&corpus, Some(&partition))
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 test vectors from the original Fowler/Noll/Vo page.
        let mut h = Fnv::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn query_stream_is_a_pure_function_of_the_seed() {
        let index = index();
        let mix = QueryMix::from_index(&index, 64);
        assert!(!mix.is_empty());
        let seed = Seed::new(42);
        let a: Vec<String> = (0..50).map(|i| mix.query(seed, i)).collect();
        let b: Vec<String> = (0..50).map(|i| mix.query(seed, i)).collect();
        assert_eq!(a, b);
        let c: Vec<String> = (0..50).map(|i| mix.query(Seed::new(43), i)).collect();
        assert_ne!(a, c, "different seeds should give different streams");
        // Stream purity: query 30 does not depend on queries 0..30.
        assert_eq!(mix.query(seed, 30), a[30].clone());
    }

    #[test]
    fn sampled_terms_hit_the_index() {
        let index = index();
        let mix = QueryMix::from_index(&index, 64);
        let seed = Seed::new(7);
        for i in 0..40 {
            let q = mix.query(seed, i);
            assert!(
                !index.query_terms(&q).is_empty(),
                "query {q:?} matched no corpus terms"
            );
        }
    }

    #[test]
    fn zipf_mix_prefers_frequent_terms() {
        let index = index();
        let mix = QueryMix::from_index(&index, 64);
        let seed = Seed::new(1);
        let mut first = 0usize;
        let n = 400usize;
        let head = mix.terms[0].clone();
        for i in 0..n as u64 {
            if mix.query(seed, i).split(' ').any(|t| t == head) {
                first += 1;
            }
        }
        // The head term carries weight 1/H(n) of every draw; with 1–3
        // terms per query it must show up far more often than 1/len.
        assert!(
            first * mix.len() > n,
            "head term appeared {first}/{n} times over {} terms",
            mix.len()
        );
    }

    #[test]
    fn same_seed_same_report_digest() {
        let index = index();
        let config = LoadgenConfig::new()
            .with_seed(11)
            .with_rate(400.0)
            .with_duration_ms(150)
            .with_workers(2);
        let a = run(&index, &config, &Obs::disabled(), 5.0);
        let b = run(&index, &config, &Obs::disabled(), 7.0);
        assert_eq!(a.render_digest(), b.render_digest());
        assert!(a.queries > 0, "150 ms at 400 qps should issue queries");
        assert!(a.recall_at_10 >= 0.95, "recall {}", a.recall_at_10);
        assert!(
            a.routed_postings <= a.full_postings,
            "routing should not scan more than the full reference"
        );
    }

    #[test]
    fn report_json_is_stable_and_parsable_shape() {
        let index = index();
        let config = LoadgenConfig::new().with_duration_ms(50).with_rate(100.0);
        let report = run(&index, &config, &Obs::disabled(), 2.0);
        let json = report.render_json();
        for key in [
            "\"bench\": \"loadgen\"",
            "\"seed\"",
            "\"queries\"",
            "\"offered_qps\"",
            "\"achieved_qps\"",
            "\"p50_us\"",
            "\"p99_us\"",
            "\"p999_us\"",
            "\"stream_hash\"",
            "\"results_hash\"",
            "\"recall_at_10\"",
            "\"routed_postings\"",
            "\"full_postings\"",
            "\"index_docs\"",
            "\"index_postings\"",
            "\"index_build_ms\"",
            "\"pages_per_sec\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn quantiles_are_exact_on_small_samples() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&sorted, 0.50), 2.0);
        assert_eq!(quantile(&sorted, 0.99), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[9.0], 0.999), 9.0);
    }
}
