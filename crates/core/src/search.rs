//! The query front door: [`SearchPipeline`] — the retrieval twin of
//! [`Pipeline`](crate::Pipeline).
//!
//! The clustering pipeline groups hidden-web databases by domain; this
//! pipeline answers queries against the result. One builder wires the
//! retrieval algorithm, cluster routing, the candidate budget and the
//! execution policy together, and produces a self-contained
//! [`SearchIndex`]:
//!
//! ```
//! use cafc::prelude::*;
//!
//! let pages = [
//!     "<title>Flights</title><p>airfare travel deals</p>\
//!      <form>departure <input name=a></form>",
//!     "<p>airfare travel bargain vacation</p>\
//!      <form>arrival <input name=b></form>",
//!     "<title>Jobs</title><p>careers employment salary</p>\
//!      <form>keywords <input name=c></form>",
//!     "<p>careers salary openings resume</p>\
//!      <form>category <input name=d></form>",
//! ];
//! let outcome = Pipeline::builder()
//!     .algorithm(Algorithm::CafcC { k: 2 })
//!     .seed(3)
//!     .build()
//!     .run_html(&pages)
//!     .expect("CAFC-C accepts HTML input");
//!
//! let index = SearchPipeline::builder()
//!     .config(SearchConfig::new().with_k(3))
//!     .build()
//!     .index(&outcome.corpus, Some(&outcome.partition));
//! let result = index.search("cheap airfare");
//! // Both airfare pages match, and only they do.
//! let docs: Vec<_> = result.hits.iter().map(|hit| hit.doc).collect();
//! assert_eq!(docs, [1, 0]);
//! ```
//!
//! ## Determinism contract
//!
//! Index construction is bit-identical under every
//! [`ExecPolicy`](crate::ExecPolicy) (chunked build, chunk-order merge),
//! routing is a pure function of centroids and query, and every scoring
//! path accumulates per document in ascending query-term order — so the
//! same query against the same corpus returns byte-identical hits
//! regardless of thread count, routing, or scan strategy (routed scans
//! return a subset of the full ranking, never different scores).

use crate::model::FormPageCorpus;
use cafc_cluster::Partition;
use cafc_exec::ExecPolicy;
use cafc_index::{rrf_fuse, Bm25Params, ClusterRouter, Hit, InvertedIndex, ScanStats};
use cafc_obs::Obs;
use cafc_text::{Analyzer, TermDict, TermId};
use cafc_vsm::SparseVector;

/// Which ranking the searcher produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SearchAlgorithm {
    /// Okapi BM25 over raw location-weighted term frequencies.
    Bm25,
    /// Cosine against the TF-IDF page-content space — the ranking the
    /// original `cafc search` entry point produced.
    TfIdf,
    /// Reciprocal-rank fusion of the BM25 and TF-IDF rankings.
    Fused,
}

/// Retrieval configuration.
///
/// Construct with [`SearchConfig::new`] plus the chainable `with_*`
/// setters; the struct is `#[non_exhaustive]` so future knobs are not
/// breaking changes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SearchConfig {
    /// Ranking algorithm.
    pub algorithm: SearchAlgorithm,
    /// Cluster-routed scanning: visit clusters in query-to-centroid
    /// similarity order (on) or all shards in id order (off).
    pub routing: bool,
    /// Early-termination budget: stop visiting further clusters once this
    /// many postings have been scanned (the cluster in progress always
    /// completes). `None` scans every routed cluster. Only meaningful
    /// with routing on — an unrouted scan is the full reference ranking
    /// and ignores the budget.
    pub budget: Option<usize>,
    /// Results to return.
    pub k: usize,
    /// BM25 parameters (used by [`SearchAlgorithm::Bm25`] and
    /// [`SearchAlgorithm::Fused`]).
    pub bm25: Bm25Params,
}

impl Default for SearchConfig {
    /// BM25, routing on, no budget, top 10.
    fn default() -> Self {
        SearchConfig {
            algorithm: SearchAlgorithm::Bm25,
            routing: true,
            budget: None,
            k: 10,
            bm25: Bm25Params::new(),
        }
    }
}

impl SearchConfig {
    /// The default configuration (same as `Default`): BM25, routing on,
    /// no budget, top 10.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the ranking algorithm.
    pub fn with_algorithm(mut self, algorithm: SearchAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enable or disable cluster routing.
    pub fn with_routing(mut self, routing: bool) -> Self {
        self.routing = routing;
        self
    }

    /// Set the postings budget for routed scans.
    pub fn with_budget(mut self, budget: Option<usize>) -> Self {
        self.budget = budget;
        self
    }

    /// Set the number of results to return.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the BM25 parameters.
    pub fn with_bm25(mut self, bm25: Bm25Params) -> Self {
        self.bm25 = bm25;
        self
    }
}

/// What one query produced: ranked hits plus scan accounting.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchOutcome {
    /// Ranked results, (score descending, doc id ascending), at most `k`.
    pub hits: Vec<Hit>,
    /// What the scan touched. For [`SearchAlgorithm::Fused`] the two
    /// underlying scans' counters are summed.
    pub stats: ScanStats,
}

impl SearchOutcome {
    /// Assemble an outcome from parts (the struct is `#[non_exhaustive]`,
    /// so downstream crates build synthetic outcomes through this).
    pub fn new(hits: Vec<Hit>, stats: ScanStats) -> Self {
        SearchOutcome { hits, stats }
    }
}

/// A fully configured retrieval run; build with [`SearchPipeline::builder`]
/// and turn a clustered corpus into a [`SearchIndex`] with
/// [`SearchPipeline::index`].
#[derive(Debug, Clone)]
pub struct SearchPipeline {
    config: SearchConfig,
    exec: ExecPolicy,
    obs: Obs,
}

impl SearchPipeline {
    /// Start configuring a search pipeline.
    pub fn builder() -> SearchPipelineBuilder {
        SearchPipelineBuilder::default()
    }

    /// The configured retrieval knobs.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Build a self-contained index over a clustered corpus. With
    /// `partition` the postings are sharded by cluster and routing
    /// follows the clustering; without it everything lands in one shard
    /// (routing degenerates to a full scan).
    pub fn index(&self, corpus: &FormPageCorpus, partition: Option<&Partition>) -> SearchIndex {
        let _span = self.obs.span("search.build");
        let clusters: Vec<Vec<usize>> = match partition {
            Some(p) => p.clusters().to_vec(),
            None => vec![(0..corpus.len()).collect()],
        };
        let index = InvertedIndex::build(&corpus.pc_tf, &clusters, self.exec, &self.obs);
        let router = ClusterRouter::new(&corpus.pc, &clusters);
        SearchIndex {
            config: self.config,
            index,
            router,
            docs_tf: corpus.pc_tf.clone(),
            docs_tfidf: corpus.pc.clone(),
            dict: corpus.dict.clone(),
            analyzer: Analyzer::default(),
            obs: self.obs.clone(),
        }
    }
}

/// Builder for [`SearchPipeline`]; retrieval defaults to
/// [`SearchConfig::default`] under serial execution.
#[derive(Debug, Clone, Default)]
pub struct SearchPipelineBuilder {
    config: SearchConfig,
    exec: ExecPolicy,
    obs: Obs,
}

impl SearchPipelineBuilder {
    /// Set the retrieval configuration.
    pub fn config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the execution policy for index construction. The index is
    /// bit-identical for every policy; only wall-clock changes.
    pub fn exec(mut self, policy: ExecPolicy) -> Self {
        self.exec = policy;
        self
    }

    /// Install an observability handle; index construction and every
    /// query record metrics into it. Defaults to [`Obs::disabled`].
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Finalize the pipeline.
    pub fn build(self) -> SearchPipeline {
        SearchPipeline {
            config: self.config,
            exec: self.exec,
            obs: self.obs,
        }
    }
}

/// A self-contained, query-ready view over a clustered corpus: the
/// cluster-sharded inverted index, the router centroids, both scoring
/// spaces and the term dictionary.
#[derive(Debug, Clone)]
pub struct SearchIndex {
    config: SearchConfig,
    index: InvertedIndex,
    router: ClusterRouter,
    docs_tf: Vec<SparseVector>,
    docs_tfidf: Vec<SparseVector>,
    dict: TermDict,
    analyzer: Analyzer,
    obs: Obs,
}

impl SearchIndex {
    /// Number of documents indexed.
    pub fn num_docs(&self) -> usize {
        self.index.num_docs()
    }

    /// Number of cluster shards.
    pub fn num_clusters(&self) -> usize {
        self.index.num_shards()
    }

    /// Total postings stored.
    pub fn num_postings(&self) -> usize {
        self.index.num_postings()
    }

    /// The retrieval configuration the index answers with.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The underlying inverted index.
    pub fn inverted(&self) -> &InvertedIndex {
        &self.index
    }

    /// The term dictionary the index answers against.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// The raw location-weighted term-frequency space (one vector per
    /// document) — what BM25 scores and the load generator samples its
    /// query mix from.
    pub fn docs_tf(&self) -> &[SparseVector] {
        &self.docs_tf
    }

    /// Analyze a query against the corpus dictionary: stemmed, stopworded
    /// terms the corpus knows, ascending and deduplicated. Unknown terms
    /// drop out (they cannot score anything).
    pub fn query_terms(&self, query: &str) -> Vec<TermId> {
        let mut probe = TermDict::new();
        let mut terms: Vec<TermId> = self
            .analyzer
            .analyze(query, &mut probe)
            .iter()
            .filter_map(|&t| self.dict.get(probe.term(t)))
            .collect();
        terms.sort_unstable();
        terms.dedup();
        terms
    }

    /// The query as a unit-weighted TF-IDF-space vector (one entry per
    /// distinct known term) — what routing and cosine scoring consume.
    pub fn query_vector(&self, query: &str) -> SparseVector {
        SparseVector::from_entries(self.query_terms(query).iter().map(|&t| (t, 1.0)).collect())
    }

    /// Answer a query under the configured algorithm, routing, budget and
    /// `k`.
    pub fn search(&self, query: &str) -> SearchOutcome {
        self.search_k(query, self.config.k)
    }

    /// [`SearchIndex::search`] with an explicit result count.
    pub fn search_k(&self, query: &str, k: usize) -> SearchOutcome {
        let terms = self.query_terms(query);
        let qvec = SparseVector::from_entries(terms.iter().map(|&t| (t, 1.0)).collect());
        let (order, budget) = if self.config.routing {
            (self.route_order(&qvec), self.config.budget)
        } else {
            (self.index.full_order(), None)
        };
        let outcome = match self.config.algorithm {
            SearchAlgorithm::Bm25 => self.bm25(&terms, k, &order, budget),
            SearchAlgorithm::TfIdf => self.tfidf(&terms, &qvec, k, &order, budget),
            SearchAlgorithm::Fused => {
                let a = self.bm25(&terms, k, &order, budget);
                let b = self.tfidf(&terms, &qvec, k, &order, budget);
                SearchOutcome {
                    hits: rrf_fuse(&[&a.hits, &b.hits], k),
                    stats: combine(a.stats, b.stats),
                }
            }
        };
        if self.obs.is_enabled() {
            self.obs.incr("search.queries");
            self.obs.add(
                "search.postings_scanned",
                outcome.stats.postings_scanned as u64,
            );
            self.obs
                .add("search.docs_scored", outcome.stats.docs_scored as u64);
        }
        outcome
    }

    /// The brute-force full-scan reference ranking for a query: no
    /// routing, no budget, no postings — every document's raw vector is
    /// scored directly. Routed results are validated against this (the
    /// recall@10 acceptance gate).
    pub fn reference(&self, query: &str, k: usize) -> SearchOutcome {
        let terms = self.query_terms(query);
        let qvec = SparseVector::from_entries(terms.iter().map(|&t| (t, 1.0)).collect());
        match self.config.algorithm {
            SearchAlgorithm::Bm25 => {
                let (hits, stats) =
                    self.index
                        .scan_bm25(&self.docs_tf, &terms, k, &self.config.bm25);
                SearchOutcome { hits, stats }
            }
            SearchAlgorithm::TfIdf => self.tfidf_scan(&qvec, k),
            SearchAlgorithm::Fused => {
                let (a, sa) = self
                    .index
                    .scan_bm25(&self.docs_tf, &terms, k, &self.config.bm25);
                let b = self.tfidf_scan(&qvec, k);
                SearchOutcome {
                    hits: rrf_fuse(&[&a, &b.hits], k),
                    stats: combine(sa, b.stats),
                }
            }
        }
    }

    /// Cluster visit order for a query: router order over the clustered
    /// shards, with any trailing overflow shard appended so no document is
    /// unreachable.
    fn route_order(&self, qvec: &SparseVector) -> Vec<usize> {
        let mut order = self.router.route(qvec);
        for shard in self.router.num_clusters()..self.index.num_shards() {
            order.push(shard);
        }
        order
    }

    fn bm25(
        &self,
        terms: &[TermId],
        k: usize,
        order: &[usize],
        budget: Option<usize>,
    ) -> SearchOutcome {
        let (hits, stats) = self
            .index
            .search_bm25(terms, k, order, budget, &self.config.bm25);
        SearchOutcome { hits, stats }
    }

    /// TF-IDF retrieval: candidates discovered through the (budgeted)
    /// postings walk, scored by cosine in the TF-IDF space. Zero-cosine
    /// candidates (all matched terms were idf-0) drop out, matching the
    /// legacy `ClusterIndex::search_pages` contract.
    fn tfidf(
        &self,
        terms: &[TermId],
        qvec: &SparseVector,
        k: usize,
        order: &[usize],
        budget: Option<usize>,
    ) -> SearchOutcome {
        let (candidates, stats) = self.index.candidates(terms, order, budget);
        let mut hits: Vec<Hit> = candidates
            .into_iter()
            .filter_map(|doc| {
                let score = qvec.cosine(&self.docs_tfidf[doc]);
                (score > 0.0).then_some(Hit { doc, score })
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        hits.truncate(k);
        SearchOutcome { hits, stats }
    }

    /// Full cosine scan in the TF-IDF space (reference path).
    fn tfidf_scan(&self, qvec: &SparseVector, k: usize) -> SearchOutcome {
        let mut stats = ScanStats {
            clusters_visited: self.index.num_shards(),
            ..ScanStats::default()
        };
        let mut hits: Vec<Hit> = Vec::new();
        for (doc, vector) in self.docs_tfidf.iter().enumerate() {
            let score = qvec.cosine(vector);
            if score > 0.0 {
                stats.postings_scanned += qvec
                    .entries()
                    .iter()
                    .filter(|&&(t, _)| vector.get(t) != 0.0)
                    .count();
                hits.push(Hit { doc, score });
            }
        }
        stats.docs_scored = hits.len();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
        hits.truncate(k);
        SearchOutcome { hits, stats }
    }
}

/// Sum two scans' accounting (the fused path runs both).
fn combine(a: ScanStats, b: ScanStats) -> ScanStats {
    ScanStats {
        postings_scanned: a.postings_scanned + b.postings_scanned,
        docs_scored: a.docs_scored + b.docs_scored,
        clusters_visited: a.clusters_visited + b.clusters_visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages() -> Vec<&'static str> {
        vec![
            "<title>Cheap Flights</title><p>airfare travel flights deals airline database</p>\
             <form>departure <input name=a></form>",
            "<p>flights airfare vacation airline travel database</p>\
             <form>arrival <input name=b></form>",
            "<title>Job Board</title><p>careers employment salary resume hiring database</p>\
             <form>keywords <input name=c></form>",
            "<p>employment careers openings resume salary database</p>\
             <form>category <input name=d></form>",
        ]
    }

    fn corpus() -> FormPageCorpus {
        FormPageCorpus::from_html(
            pages(),
            &crate::ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
    }

    fn partition() -> Partition {
        Partition::new(vec![vec![0, 1], vec![2, 3]], 4)
    }

    fn build(config: SearchConfig) -> SearchIndex {
        SearchPipeline::builder()
            .config(config)
            .build()
            .index(&corpus(), Some(&partition()))
    }

    #[test]
    fn bm25_finds_the_right_documents() {
        let index = build(SearchConfig::new());
        let out = index.search("cheap airfare flights");
        assert!(!out.hits.is_empty());
        assert!(
            out.hits[0].doc < 2,
            "airfare page first, got {:?}",
            out.hits
        );
        let out = index.search("engineering careers salary");
        assert!(out.hits[0].doc >= 2, "job page first, got {:?}", out.hits);
    }

    #[test]
    fn unknown_query_returns_nothing() {
        let index = build(SearchConfig::new());
        let out = index.search("zzzqqq xyzzy");
        assert!(out.hits.is_empty());
        assert_eq!(out.stats.docs_scored, 0);
    }

    #[test]
    fn routed_is_a_prefix_of_reference_with_fewer_postings() {
        // "database" appears on every page, so the reference scan pays for
        // postings in both clusters while the budgeted routed scan stops
        // after the airfare cluster.
        let index = build(SearchConfig::new().with_budget(Some(1)));
        let routed = index.search("airfare database");
        let reference = index.reference("airfare database", 10);
        assert!(!routed.hits.is_empty());
        // Scores are bit-identical, so the routed ranking is a prefix of
        // the full one whenever routing sends the best cluster first.
        assert_eq!(routed.hits[..], reference.hits[..routed.hits.len()]);
        assert!(
            routed.stats.postings_scanned < reference.stats.postings_scanned,
            "routed {:?} vs reference {:?}",
            routed.stats,
            reference.stats
        );
        assert!(routed.stats.clusters_visited < index.num_clusters());
    }

    #[test]
    fn unrouted_bm25_matches_scan_bitwise() {
        let config = SearchConfig::new().with_routing(false);
        let index = build(config);
        for q in [
            "airfare",
            "careers salary",
            "travel careers",
            "flights resume hiring",
        ] {
            let full = index.search(q);
            let reference = index.reference(q, 10);
            assert_eq!(full.hits, reference.hits, "query {q:?}");
        }
    }

    #[test]
    fn tfidf_matches_legacy_cosine_ranking() {
        let config = SearchConfig::new()
            .with_algorithm(SearchAlgorithm::TfIdf)
            .with_routing(false);
        let index = build(config);
        let corpus = corpus();
        for q in ["airfare deals", "employment resume"] {
            let out = index.search(q);
            // The legacy ranking: cosine of the unit query vector against
            // every page's TF-IDF vector, positives only, descending.
            let qvec = index.query_vector(q);
            let mut legacy: Vec<Hit> = corpus
                .pc
                .iter()
                .enumerate()
                .map(|(doc, v)| Hit {
                    doc,
                    score: qvec.cosine(v),
                })
                .filter(|h| h.score > 0.0)
                .collect();
            legacy.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
            legacy.truncate(10);
            assert_eq!(out.hits, legacy, "query {q:?}");
        }
    }

    #[test]
    fn fused_ranks_with_rrf() {
        let index = build(SearchConfig::new().with_algorithm(SearchAlgorithm::Fused));
        let out = index.search("airfare travel");
        assert!(!out.hits.is_empty());
        assert!(out.hits[0].doc < 2);
        // RRF scores are bounded by rankings · 1/(60+1).
        assert!(out.hits[0].score <= 2.0 / 61.0 + 1e-12);
    }

    #[test]
    fn k_caps_results() {
        let index = build(SearchConfig::new().with_k(1));
        assert_eq!(index.search("travel careers airfare salary").hits.len(), 1);
        assert!(
            index
                .search_k("travel careers airfare salary", 3)
                .hits
                .len()
                > 1
        );
    }

    #[test]
    fn exec_policies_build_identical_search_indexes() {
        let corpus = corpus();
        let partition = partition();
        let serial = SearchPipeline::builder()
            .exec(ExecPolicy::Serial)
            .build()
            .index(&corpus, Some(&partition));
        for policy in [ExecPolicy::Parallel { threads: 4 }, ExecPolicy::Auto] {
            let parallel = SearchPipeline::builder()
                .exec(policy)
                .build()
                .index(&corpus, Some(&partition));
            for q in ["airfare", "careers salary", "travel"] {
                let a = serial.search(q);
                let b = parallel.search(q);
                assert_eq!(a.hits, b.hits, "{policy:?} {q:?}");
                assert_eq!(a.stats, b.stats, "{policy:?} {q:?}");
            }
        }
    }

    #[test]
    fn unpartitioned_corpus_is_searchable() {
        let index = SearchPipeline::builder().build().index(&corpus(), None);
        assert_eq!(index.num_clusters(), 1);
        let out = index.search("airfare");
        assert!(!out.hits.is_empty());
    }
}
