//! The batch-pipeline benchmark: one seeded corpus → k-means run, timed
//! per stage, with a machine-readable report.
//!
//! `cafc bench --json` drives [`run_bench`] and writes the result as
//! `BENCH_<n>.json` — the recorded trajectory the CI smoke job and the
//! schema regression tests pin. The report splits into two renders:
//!
//! * [`BenchReport::render_json`] — everything, including wall-clock,
//!   throughput and peak RSS. Machine-dependent; committed for the record
//!   but never diffed.
//! * [`BenchReport::render_digest`] — only fields that are a pure function
//!   of the configuration: page counts, dictionary size, accounting
//!   totals, and FNV-1a hashes of the clustering results. Two runs with
//!   the same config must produce byte-identical digests regardless of
//!   thread count or machine — CI diffs exactly this.
//!
//! The pipeline under test is the scale path of DESIGN.md §17: sharded
//! ingest (the ingest stage of [`FormPageCorpus::from_shards`], under a
//! memory budget), TF-IDF
//! vectorization, k-means ([`cafc_cluster::kmeans()`])
//! and HAC over a deterministic sample. Corpus *generation* is injected
//! as a shard source closure — this crate cannot depend on
//! `cafc-corpus` (which depends on nothing here but is wired by the CLI),
//! and tests substitute tiny hand-rolled corpora.

use crate::ingest::{IngestLimits, IngestReport};
use crate::model::{ingest_shards, FormPageCorpus, ModelOptions};
use crate::space::{FeatureConfig, FormPageSpace};
use cafc_cluster::{
    hac, kmeans, random_singleton_seeds, ClusterSpace, HacOptions, KMeansOptions, Linkage,
    Partition,
};
use cafc_exec::ExecPolicy;
use cafc_obs::json::number;
use cafc_obs::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Benchmark configuration.
///
/// Mirrors the CLI flags of `cafc bench --json`; the shard source decides
/// what the pages actually are, so `pages` here is advisory metadata
/// echoed into the report plus the denominator for throughput numbers —
/// [`run_bench`] recomputes it from the shards it actually consumed.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BenchConfig {
    /// Expected total pages (echoed; recomputed from the shard source).
    pub pages: usize,
    /// Pages per ingest work unit (output-invariant; see `IngestLimits`).
    pub shard_pages: usize,
    /// Seed for corpus generation and k-means seeding.
    pub seed: u64,
    /// Number of k-means clusters.
    pub k: usize,
    /// HAC sample size (HAC is O(n²); it runs on a deterministic sample).
    pub hac_sample: usize,
    /// Worker threads; `<= 1` means the serial policy.
    pub threads: usize,
    /// Corpus memory budget in bytes (`usize::MAX` = unbounded).
    pub max_corpus_bytes: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            pages: 1_000,
            shard_pages: 1_024,
            seed: 0,
            k: 8,
            hac_sample: 200,
            threads: 1,
            max_corpus_bytes: usize::MAX,
        }
    }
}

impl BenchConfig {
    /// The default configuration (10^3 pages, k = 8, serial).
    pub fn new() -> Self {
        BenchConfig::default()
    }

    /// Set the expected page count.
    pub fn with_pages(mut self, pages: usize) -> Self {
        self.pages = pages;
        self
    }

    /// Set the ingest shard size.
    pub fn with_shard_pages(mut self, pages: usize) -> Self {
        self.shard_pages = pages;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the cluster count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the HAC sample size.
    pub fn with_hac_sample(mut self, sample: usize) -> Self {
        self.hac_sample = sample;
        self
    }

    /// Set the worker-thread count (`<= 1` = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the corpus memory budget.
    pub fn with_max_corpus_bytes(mut self, bytes: usize) -> Self {
        self.max_corpus_bytes = bytes;
        self
    }

    /// The execution policy the configuration selects.
    pub fn policy(&self) -> ExecPolicy {
        if self.threads <= 1 {
            ExecPolicy::Serial
        } else {
            ExecPolicy::Parallel {
                threads: self.threads,
            }
        }
    }
}

/// One timed pipeline stage.
#[derive(Debug, Clone)]
pub struct BenchStage {
    /// Stage name (`gen`, `ingest`, `vectorize`, `kmeans`, `hac_sample`).
    pub name: &'static str,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Items the stage processed (pages, or sample size for HAC).
    pub items: usize,
    /// Throughput: `items` per wall-clock second.
    pub pages_per_sec: f64,
}

/// The benchmark result. Field groups: configuration echo, per-stage
/// timings (machine-dependent), accounting and result hashes (pure
/// functions of the configuration).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Pages actually consumed from the shard source.
    pub pages: usize,
    /// Configuration echo.
    pub shard_pages: usize,
    /// Configuration echo.
    pub seed: u64,
    /// Configuration echo.
    pub k: usize,
    /// Configuration echo.
    pub hac_sample: usize,
    /// Effective worker threads (resolved from the policy).
    pub threads: usize,
    /// Timed stages in execution order.
    pub stages: Vec<BenchStage>,
    /// Pages ingested cleanly.
    pub pages_ok: usize,
    /// Pages kept with degradations.
    pub pages_degraded: usize,
    /// Pages dropped (parse failure, limits, or memory budget).
    pub pages_quarantined: usize,
    /// Distinct terms in the shared dictionary.
    pub dict_terms: usize,
    /// Estimated bytes of kept vector entries (the budget's currency).
    pub corpus_bytes: usize,
    /// k-means iterations to convergence.
    pub kmeans_iterations: usize,
    /// Whether k-means hit its movement threshold before `max_iterations`.
    pub kmeans_converged: bool,
    /// Non-empty clusters in the k-means partition.
    pub kmeans_clusters: usize,
    /// FNV-1a over the per-page k-means assignment vector.
    pub assignment_hash: u64,
    /// FNV-1a over the sorted k-means cluster sizes.
    pub cluster_sizes_hash: u64,
    /// FNV-1a over the HAC sample partition (0 when the sample is empty).
    pub hac_hash: u64,
    /// Peak resident set size in kB (`/proc/self/status` `VmHWM`; 0 when
    /// unavailable).
    pub peak_rss_kb: u64,
    /// End-to-end wall-clock milliseconds.
    pub total_wall_ms: f64,
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of `u64`s (little-endian), the same construction
/// the serving benchmark uses for its stream/results hashes.
fn fnv_u64s<I: IntoIterator<Item = u64>>(values: I) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Hash a partition: cluster count, then each item's assignment (items
/// with no cluster hash as `u64::MAX`).
fn partition_hash(partition: &Partition) -> u64 {
    let assignments = partition.assignments();
    fnv_u64s(
        std::iter::once(partition.num_clusters() as u64)
            .chain(assignments.iter().map(|a| a.map_or(u64::MAX, |c| c as u64))),
    )
}

/// Peak RSS in kB from `/proc/self/status` (`VmHWM`), or 0 when the file
/// or field is unavailable (non-Linux platforms).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(char::is_ascii_digit).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

/// A `ClusterSpace` view onto a deterministic sample of another space's
/// items: item `i` of the sample is item `indices[i]` of the inner space.
/// HAC is O(n²), so the bench runs it on this instead of the full corpus.
struct SampleSpace<'a, S> {
    inner: &'a S,
    indices: Vec<usize>,
}

impl<S: ClusterSpace> ClusterSpace for SampleSpace<'_, S> {
    type Centroid = S::Centroid;

    fn len(&self) -> usize {
        self.indices.len()
    }

    fn centroid(&self, members: &[usize]) -> Self::Centroid {
        let mapped: Vec<usize> = members.iter().map(|&m| self.indices[m]).collect();
        self.inner.centroid(&mapped)
    }

    fn similarity(&self, centroid: &Self::Centroid, item: usize) -> f64 {
        self.inner.similarity(centroid, self.indices[item])
    }

    fn centroid_similarity(&self, a: &Self::Centroid, b: &Self::Centroid) -> f64 {
        self.inner.centroid_similarity(a, b)
    }
}

/// Every `m`-th-ish index of `0..n`: `floor(i·n/m)` for `i in 0..m`, which
/// is strictly increasing whenever `m <= n`. A spread sample that is a
/// pure function of `(n, m)` — no RNG, so the digest stays seed-stable.
fn stride_sample(n: usize, m: usize) -> Vec<usize> {
    let m = m.min(n);
    (0..m).map(|i| i * n / m).collect()
}

/// Run the batch benchmark: drain `shard_source` (called with shard
/// indices `0, 1, 2, …` until it returns `None`), ingest under the
/// configured shard size and memory budget, vectorize, run k-means
/// seeded from `config.seed`, and HAC over a stride sample.
///
/// Everything in the digest portion of the returned report is a pure
/// function of `config` and the shard source's output — thread count,
/// machine speed and shard partition do not affect it.
pub fn run_bench<F>(config: &BenchConfig, mut shard_source: F) -> BenchReport
where
    F: FnMut(usize) -> Option<Vec<String>>,
{
    let policy = config.policy();
    let obs = Obs::disabled();
    let opts = ModelOptions::default();
    let limits = IngestLimits::new()
        .with_shard_pages(config.shard_pages)
        .with_max_corpus_bytes(config.max_corpus_bytes);
    let total_start = Instant::now();
    let mut stages = Vec::with_capacity(5);
    let mut stage = |name: &'static str, items: usize, start: Instant| {
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        stages.push(BenchStage {
            name,
            wall_ms,
            items,
            pages_per_sec: items as f64 / (wall_ms / 1e3).max(1e-9),
        });
    };

    // ---- gen: drain the shard source -------------------------------
    let start = Instant::now();
    let mut shards: Vec<Vec<String>> = Vec::new();
    while let Some(shard) = shard_source(shards.len()) {
        shards.push(shard);
    }
    let pages: usize = shards.iter().map(Vec::len).sum();
    stage("gen", pages, start);

    // ---- ingest: sharded merge under the memory budget -------------
    let start = Instant::now();
    let merge = ingest_shards(shards, &opts, &limits, policy, &obs);
    let report: IngestReport = merge.report.clone();
    let corpus_bytes = merge.used_bytes;
    stage("ingest", pages, start);

    // ---- vectorize: IDF + vector freeze ----------------------------
    let start = Instant::now();
    let corpus = FormPageCorpus::finish(
        merge.dict,
        merge.pc_counts,
        merge.fc_counts,
        None,
        &opts,
        policy,
        &obs,
    );
    stage("vectorize", pages, start);

    // ---- kmeans: over the combined space ---------------------------
    let start = Instant::now();
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let n = space.len();
    let seeds = random_singleton_seeds(&space, config.k, &mut StdRng::seed_from_u64(config.seed));
    let outcome = kmeans(&space, &seeds, &KMeansOptions::default(), policy, &obs);
    stage("kmeans", n, start);

    // ---- hac_sample: HAC over a stride sample ----------------------
    let start = Instant::now();
    let indices = stride_sample(n, config.hac_sample);
    let sample_len = indices.len();
    let hac_hash = if sample_len == 0 {
        0
    } else {
        let sample = SampleSpace {
            inner: &space,
            indices,
        };
        let singletons: Vec<Vec<usize>> = (0..sample_len).map(|i| vec![i]).collect();
        let hac_opts = HacOptions {
            target_clusters: config.k,
            linkage: Linkage::Centroid,
        };
        partition_hash(&hac(&sample, &singletons, &hac_opts, policy, &obs))
    };
    stage("hac_sample", sample_len, start);

    BenchReport {
        pages,
        shard_pages: config.shard_pages,
        seed: config.seed,
        k: config.k,
        hac_sample: config.hac_sample,
        threads: policy.threads(),
        stages,
        pages_ok: report.ok(),
        pages_degraded: report.degraded(),
        pages_quarantined: report.quarantined(),
        dict_terms: corpus.dict.len(),
        corpus_bytes,
        kmeans_iterations: outcome.iterations,
        kmeans_converged: outcome.converged,
        kmeans_clusters: outcome.partition.num_nonempty(),
        assignment_hash: partition_hash(&outcome.partition),
        cluster_sizes_hash: fnv_u64s({
            let mut sizes: Vec<u64> = outcome
                .partition
                .clusters()
                .iter()
                .map(|c| c.len() as u64)
                .collect();
            sizes.sort_unstable();
            sizes
        }),
        hac_hash,
        peak_rss_kb: peak_rss_kb(),
        total_wall_ms: total_start.elapsed().as_secs_f64() * 1e3,
    }
}

impl BenchReport {
    /// The digest body: every field that is a pure function of the
    /// configuration and corpus. Rendered identically by
    /// [`render_digest`](Self::render_digest) and embedded under
    /// `"digest"` by [`render_json`](Self::render_json), so the CI smoke
    /// job can extract and diff it from either artifact.
    fn digest_fields(&self, indent: &str) -> String {
        format!(
            "{i}\"pages\": {},\n{i}\"shard_pages\": {},\n{i}\"seed\": {},\n\
             {i}\"k\": {},\n{i}\"hac_sample\": {},\n{i}\"pages_ok\": {},\n\
             {i}\"pages_degraded\": {},\n{i}\"pages_quarantined\": {},\n\
             {i}\"dict_terms\": {},\n{i}\"corpus_bytes\": {},\n\
             {i}\"kmeans_iterations\": {},\n{i}\"kmeans_converged\": {},\n\
             {i}\"kmeans_clusters\": {},\n{i}\"assignment_hash\": \"{:016x}\",\n\
             {i}\"cluster_sizes_hash\": \"{:016x}\",\n{i}\"hac_hash\": \"{:016x}\"",
            self.pages,
            self.shard_pages,
            self.seed,
            self.k,
            self.hac_sample,
            self.pages_ok,
            self.pages_degraded,
            self.pages_quarantined,
            self.dict_terms,
            self.corpus_bytes,
            self.kmeans_iterations,
            self.kmeans_converged,
            self.kmeans_clusters,
            self.assignment_hash,
            self.cluster_sizes_hash,
            self.hac_hash,
            i = indent,
        )
    }

    /// The seed-determined digest document: byte-identical for two runs
    /// with the same configuration, on any machine, at any thread count.
    pub fn render_digest(&self) -> String {
        format!(
            "{{\n  \"bench\": \"batch\",\n{}\n}}\n",
            self.digest_fields("  ")
        )
    }

    /// The full report: the digest plus machine-dependent timings,
    /// throughput, thread count and peak RSS. Stable key order; future
    /// PRs append fields, never rename (the `BENCH_<n>.json` contract).
    pub fn render_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "    {{ \"stage\": \"{}\", \"items\": {}, \"wall_ms\": {}, \"pages_per_sec\": {} }}",
                    s.name,
                    s.items,
                    number(s.wall_ms),
                    number(s.pages_per_sec)
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"batch\",\n  \"digest\": {{\n{}\n  }},\n  \
             \"threads\": {},\n  \"stages\": [\n{}\n  ],\n  \
             \"peak_rss_kb\": {},\n  \"total_wall_ms\": {}\n}}\n",
            self.digest_fields("    "),
            self.threads,
            stages.join(",\n"),
            self.peak_rss_kb,
            number(self.total_wall_ms)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic no-dependency page: enough structure for the HTML
    /// ingest path (a form plus body text), vocabulary keyed by `index`.
    fn page(index: usize) -> String {
        let topic = ["airfare", "book", "car", "hotel"][index % 4];
        format!(
            "<html><head><title>{topic} search {index}</title></head><body>\
             <h1>find {topic} deals</h1>\
             <p>search our {topic} database number {index} for the best {topic} listings</p>\
             <form action=\"/q\"><input type=\"text\" name=\"{topic}\">\
             <input type=\"submit\" value=\"Search\"></form>\
             </body></html>"
        )
    }

    fn shards_of(total: usize, per_shard: usize) -> impl FnMut(usize) -> Option<Vec<String>> {
        move |s| {
            let start = s * per_shard;
            if start >= total {
                return None;
            }
            let end = (start + per_shard).min(total);
            Some((start..end).map(page).collect())
        }
    }

    fn cfg() -> BenchConfig {
        BenchConfig::new()
            .with_pages(40)
            .with_shard_pages(8)
            .with_k(4)
            .with_hac_sample(12)
            .with_seed(9)
    }

    #[test]
    fn report_accounts_for_every_page() {
        let r = run_bench(&cfg(), shards_of(40, 8));
        assert_eq!(r.pages, 40);
        assert_eq!(r.pages_ok + r.pages_degraded + r.pages_quarantined, 40);
        assert!(r.dict_terms > 0);
        assert!(r.corpus_bytes > 0);
        assert!(r.kmeans_clusters >= 1 && r.kmeans_clusters <= 4);
        assert_eq!(r.stages.len(), 5);
        let names: Vec<&str> = r.stages.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["gen", "ingest", "vectorize", "kmeans", "hac_sample"]
        );
    }

    #[test]
    fn digest_is_identical_across_threads_and_shard_partition() {
        let base = run_bench(&cfg(), shards_of(40, 8)).render_digest();
        let threaded = run_bench(&cfg().with_threads(4), shards_of(40, 8)).render_digest();
        assert_eq!(base, threaded, "digest must not depend on the policy");
        // A different shard partition from the source feeds the same pages.
        let repartitioned = run_bench(&cfg(), shards_of(40, 3)).render_digest();
        assert_eq!(
            base, repartitioned,
            "digest must not depend on the shard source's partition"
        );
    }

    #[test]
    fn digest_depends_on_seed_and_budget() {
        let base = run_bench(&cfg(), shards_of(40, 8));
        let reseeded = run_bench(&cfg().with_seed(10), shards_of(40, 8));
        assert_ne!(
            base.assignment_hash, reseeded.assignment_hash,
            "k-means seeding must follow the seed"
        );
        let squeezed = run_bench(
            &cfg().with_max_corpus_bytes(base.corpus_bytes / 2),
            shards_of(40, 8),
        );
        assert!(squeezed.pages_quarantined > 0, "budget must bite");
        assert!(squeezed.corpus_bytes <= base.corpus_bytes / 2);
    }

    #[test]
    fn renders_are_stable_and_embed_the_digest() {
        let r = run_bench(&cfg(), shards_of(40, 8));
        let digest = r.render_digest();
        assert_eq!(
            digest,
            r.render_digest(),
            "digest render must be a pure function"
        );
        let json = r.render_json();
        for key in [
            "\"bench\": \"batch\"",
            "\"digest\"",
            "\"pages\"",
            "\"assignment_hash\"",
            "\"cluster_sizes_hash\"",
            "\"hac_hash\"",
            "\"stages\"",
            "\"pages_per_sec\"",
            "\"peak_rss_kb\"",
            "\"total_wall_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Digest lines appear verbatim (reindented) inside the full JSON.
        for line in digest.lines().filter(|l| l.starts_with("  \"")) {
            assert!(
                json.contains(line.trim()),
                "digest line {line:?} not embedded in the full report"
            );
        }
    }

    #[test]
    fn empty_source_yields_an_empty_but_valid_report() {
        let r = run_bench(&cfg(), |_| None::<Vec<String>>);
        assert_eq!(r.pages, 0);
        assert_eq!(r.pages_ok, 0);
        assert_eq!(r.hac_hash, 0, "no sample, no HAC hash");
        assert!(r.render_digest().contains("\"pages\": 0"));
    }

    #[test]
    fn stride_sample_is_spread_and_in_bounds() {
        assert_eq!(stride_sample(10, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(stride_sample(3, 10), vec![0, 1, 2], "clamped to n");
        assert!(stride_sample(0, 4).is_empty());
        let s = stride_sample(101, 7);
        assert_eq!(s.len(), 7);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, s, "strictly increasing, no duplicates");
    }

    #[test]
    fn fnv_matches_reference_construction() {
        // Hashing no values is the offset basis; one zero u64 is eight
        // zero bytes through FNV-1a.
        assert_eq!(fnv_u64s([]), 0xcbf2_9ce4_8422_2325);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for byte in 0u64.to_le_bytes() {
            expect = (expect ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(fnv_u64s([0u64]), expect);
    }
}
