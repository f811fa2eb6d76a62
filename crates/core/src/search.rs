//! The query front door: [`SearchPipeline`].
//!
//! Clustering groups hidden-web databases by domain; this pipeline
//! answers queries against the result. One builder wires the retrieval
//! algorithm, the candidate budget that turns on cluster routing and the
//! execution policy together, and produces a self-contained
//! [`SearchIndex`]:
//!
//! ```
//! use cafc::{
//!     cafc_c, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, KMeansOptions,
//!     ModelOptions, Obs, SearchConfig, SearchPipeline,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
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
//! let (policy, obs) = (ExecPolicy::Serial, Obs::disabled());
//! let corpus = FormPageCorpus::from_html(pages, &ModelOptions::default(), policy, &obs);
//! let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
//! let mut rng = StdRng::seed_from_u64(3);
//! let clustering = cafc_c(&space, 2, &KMeansOptions::default(), &mut rng, policy, &obs);
//!
//! let index = SearchPipeline::builder()
//!     .config(SearchConfig::new().with_k(3))
//!     .build()
//!     .index(&corpus, Some(&clustering.partition));
//! let result = index.search("cheap airfare");
//! // Both airfare pages match, and only they do.
//! let docs: Vec<_> = result.hits.iter().map(|hit| hit.doc).collect();
//! assert_eq!(docs, [1, 0]);
//! ```
//!
//! ## Determinism contract
//!
//! Index construction is bit-identical under every
//! [`ExecPolicy`] (chunked build, chunk-order merge),
//! routing is a pure function of centroids and query, and every scoring
//! path accumulates per document in ascending query-term order — so the
//! same query against the same corpus returns byte-identical hits
//! regardless of thread count, routing, or scan strategy (routed scans
//! return a subset of the full ranking, never different scores).
//!
//! ## Generations
//!
//! A streaming corpus republishes its index as pages arrive, so
//! [`SearchPipeline::index`] keeps the base of the last full build and
//! extends it whenever it can prove the new input extends that build's
//! input (DESIGN.md §15.1): the postings of the documents since and the
//! terms interned since are built; everything else is shared. An extended
//! index is the full build's, bit for bit. Only a budgeted scan reads the
//! cluster router, so only a pipeline with a budget builds one, afresh
//! for each generation.

use crate::model::FormPageCorpus;
use cafc_cluster::Partition;
use cafc_exec::ExecPolicy;
use cafc_index::{rrf_fuse, ClusterRouter, Hit, InvertedIndex, ScanStats};
use cafc_obs::Obs;
use cafc_text::{Analyzer, TermDict, TermId};
use cafc_vsm::SparseVector;
use std::sync::{Arc, Mutex, PoisonError};

/// An index is extended while its tail holds at most `1 / TAIL_SHARE` as
/// many documents as its base; past that the next call builds afresh,
/// which makes every document the base. Each publish then rebuilds at most
/// a quarter of the base, and a full build, which costs the corpus, comes
/// after the corpus has grown by a quarter, so it costs each new document
/// about five documents' work (DESIGN.md §15.1).
const TAIL_SHARE: usize = 4;

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
    /// Early-termination budget: visit clusters in query-to-centroid
    /// similarity order and stop once this many postings have been
    /// scanned (the cluster in progress always completes). `None` scans
    /// every shard in id order, which returns what a routed scan of every
    /// cluster would: statistics are global, each document sits in one
    /// shard, and hits sort by a total order.
    pub budget: Option<usize>,
    /// Results to return.
    pub k: usize,
}

impl Default for SearchConfig {
    /// BM25, no budget, top 10.
    fn default() -> Self {
        SearchConfig {
            algorithm: SearchAlgorithm::Bm25,
            budget: None,
            k: 10,
        }
    }
}

impl SearchConfig {
    /// The default configuration (same as `Default`): BM25, no budget,
    /// top 10.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the ranking algorithm.
    pub fn with_algorithm(mut self, algorithm: SearchAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the postings budget, which routes the scan: a pipeline with a
    /// budget builds a cluster router for each index.
    pub fn with_budget(mut self, budget: Option<usize>) -> Self {
        self.budget = budget;
        self
    }

    /// Set the number of results to return.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
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
pub struct SearchPipeline {
    config: SearchConfig,
    exec: ExecPolicy,
    obs: Obs,
    /// The last full build, which later calls extend while they can.
    base: Mutex<Option<Arc<Base>>>,
}

impl Clone for SearchPipeline {
    /// The same configuration, starting from the same last full build.
    fn clone(&self) -> Self {
        SearchPipeline {
            config: self.config,
            exec: self.exec,
            obs: self.obs.clone(),
            base: Mutex::new(
                self.base
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl std::fmt::Debug for SearchPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchPipeline")
            .field("config", &self.config)
            .field("exec", &self.exec)
            .field("obs", &self.obs)
            .finish_non_exhaustive()
    }
}

/// A full build and the input it was built from, kept to prove that a
/// later input extends it.
struct Base {
    index: InvertedIndex,
    docs_tf: Vec<SparseVector>,
    clusters: Vec<Vec<usize>>,
    dict: Arc<TermDict>,
}

impl Base {
    /// Whether `corpus` and `clusters` provably extend this build's input,
    /// with a tail small enough to extend (see [`TAIL_SHARE`]). The proof
    /// is by storage, not by value, so it costs a pointer comparison per
    /// base document and term list, not the vectors:
    /// * every base document's `pc_tf` vector shares its entries with the
    ///   one built from;
    /// * there are as many clusters, each listing its base members first
    ///   and then only documents after the base;
    /// * the dictionary's first terms are the base's
    ///   ([`TermDict::shares_prefix`]).
    fn extended_by(&self, corpus: &FormPageCorpus, clusters: &[Vec<usize>]) -> bool {
        let base = self.docs_tf.len();
        let n = corpus.pc_tf.len();
        n >= base
            && (n - base) * TAIL_SHARE <= base
            && corpus
                .pc_tf
                .iter()
                .zip(&self.docs_tf)
                .all(|(a, b)| a.shares_entries(b))
            && clusters.len() == self.clusters.len()
            && clusters.iter().zip(&self.clusters).all(|(now, then)| {
                now.starts_with(then) && now[then.len()..].iter().all(|&m| m >= base)
            })
            && corpus.dict.shares_prefix(&self.dict, self.dict.len())
    }
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
    /// (routing degenerates to a full scan). Only a budgeted configuration
    /// routes, so only it builds the [`ClusterRouter`], from scratch.
    ///
    /// The pipeline keeps the last full build. When the input provably
    /// extends that build's input — the corpus grew by appending, and the
    /// clusters only gained documents after it — the index is that build
    /// extended at the cost of the documents since, as a streaming
    /// corpus's publish is; otherwise it is built afresh and kept. Either
    /// way it is the same index, bit for bit. Counters
    /// `index.builds.full` and `index.builds.extended` say which ran.
    /// The index shares the corpus's vectors rather than copying them.
    pub fn index(&self, corpus: &FormPageCorpus, partition: Option<&Partition>) -> SearchIndex {
        let _span = self.obs.span("search.build");
        let clusters: Vec<Vec<usize>> = match partition {
            Some(p) => p.clusters().to_vec(),
            None => vec![(0..corpus.len()).collect()],
        };
        let router = self
            .config
            .budget
            .map(|_| ClusterRouter::new(&corpus.pc, &clusters));
        let mut kept = self.base.lock().unwrap_or_else(PoisonError::into_inner);
        let (index, dict) = match kept.as_ref().filter(|b| b.extended_by(corpus, &clusters)) {
            Some(base) => {
                self.obs.incr("index.builds.extended");
                (
                    base.index
                        .extend(&corpus.pc_tf, &clusters, self.exec, &self.obs),
                    IndexDict::new(Arc::clone(&base.dict), &corpus.dict),
                )
            }
            None => {
                self.obs.incr("index.builds.full");
                let base = Base {
                    index: InvertedIndex::build(&corpus.pc_tf, &clusters, self.exec, &self.obs),
                    docs_tf: corpus.pc_tf.clone(),
                    clusters,
                    dict: Arc::new(corpus.dict.clone()),
                };
                let built = (
                    base.index.clone(),
                    IndexDict::new(Arc::clone(&base.dict), &corpus.dict),
                );
                *kept = Some(Arc::new(base));
                built
            }
        };
        drop(kept);
        SearchIndex {
            config: self.config,
            index,
            router,
            docs_tf: corpus.pc_tf.clone(),
            docs_tfidf: corpus.pc.clone(),
            dict,
            obs: self.obs.clone(),
        }
    }
}

/// The term dictionary of one index generation: the dictionary of the full
/// build it extends, shared between generations, plus the terms interned
/// after it. Ids are the corpus dictionary's.
#[derive(Debug, Clone)]
pub struct IndexDict {
    base: Arc<TermDict>,
    /// The terms after the base's, under ids counted from 0.
    tail: TermDict,
}

impl IndexDict {
    /// `base` and the terms `dict` holds after its first `base.len()`.
    fn new(base: Arc<TermDict>, dict: &TermDict) -> IndexDict {
        let mut tail = TermDict::new();
        for (_, term) in dict.iter().skip(base.len()) {
            tail.intern(term);
        }
        IndexDict { base, tail }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// True when there are no terms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a term's id.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.base.get(term).or_else(|| {
            let id = self.tail.get(term)?;
            Some(TermId(id.0 + self.base.len() as u32))
        })
    }

    /// Resolve an id back to its term.
    ///
    /// # Panics
    /// Panics if `id` is not below [`IndexDict::len`].
    pub fn term(&self, id: TermId) -> &str {
        match id.index().checked_sub(self.base.len()) {
            Some(i) => self.tail.term(TermId(i as u32)),
            None => self.base.term(id),
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
            base: Mutex::new(None),
        }
    }
}

/// A self-contained, query-ready view over a clustered corpus: the
/// cluster-sharded inverted index, the router centroids when a budget
/// routes the scan, both scoring spaces and the term dictionary.
#[derive(Debug, Clone)]
pub struct SearchIndex {
    config: SearchConfig,
    index: InvertedIndex,
    router: Option<ClusterRouter>,
    docs_tf: Vec<SparseVector>,
    docs_tfidf: Vec<SparseVector>,
    dict: IndexDict,
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
    pub fn dict(&self) -> &IndexDict {
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
        let mut terms: Vec<TermId> = Analyzer
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

    /// Answer a query under the configured algorithm, budget and `k`.
    pub fn search(&self, query: &str) -> SearchOutcome {
        self.search_k(query, self.config.k)
    }

    /// [`SearchIndex::search`] with an explicit result count.
    pub fn search_k(&self, query: &str, k: usize) -> SearchOutcome {
        let terms = self.query_terms(query);
        let qvec = SparseVector::from_entries(terms.iter().map(|&t| (t, 1.0)).collect());
        let budget = self.config.budget;
        let order = self
            .route_order(&qvec)
            .unwrap_or_else(|| self.index.full_order());
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
                let (hits, stats) = self.index.scan_bm25(&self.docs_tf, &terms, k);
                SearchOutcome { hits, stats }
            }
            SearchAlgorithm::TfIdf => self.tfidf_scan(&qvec, k),
            SearchAlgorithm::Fused => {
                let (a, sa) = self.index.scan_bm25(&self.docs_tf, &terms, k);
                let b = self.tfidf_scan(&qvec, k);
                SearchOutcome {
                    hits: rrf_fuse(&[&a, &b.hits], k),
                    stats: combine(sa, b.stats),
                }
            }
        }
    }

    /// Cluster visit order for a query when the index has a router: its
    /// order over the clustered shards, with any trailing overflow shard
    /// appended so no document is unreachable.
    fn route_order(&self, qvec: &SparseVector) -> Option<Vec<usize>> {
        let router = self.router.as_ref()?;
        let mut order = router.route(qvec);
        order.extend(router.num_clusters()..self.index.num_shards());
        Some(order)
    }

    fn bm25(
        &self,
        terms: &[TermId],
        k: usize,
        order: &[usize],
        budget: Option<usize>,
    ) -> SearchOutcome {
        let (hits, stats) = self.index.search_bm25(terms, k, order, budget);
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
        let index = build(SearchConfig::new());
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
        let index = build(SearchConfig::new().with_algorithm(SearchAlgorithm::TfIdf));
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

    /// A counter's value in `obs`'s snapshot (0 when never recorded).
    fn counter(obs: &Obs, name: &str) -> u64 {
        obs.snapshot()
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// How many full and extended builds `obs` has counted.
    fn builds(obs: &Obs) -> (u64, u64) {
        (
            counter(obs, "index.builds.full"),
            counter(obs, "index.builds.extended"),
        )
    }

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    /// Every part of two indexes a query can read, bit for bit: the
    /// dictionary, df, document lengths, `avgdl`, each (shard, term)'s
    /// postings, and for each query the route order where the indexes have
    /// a router, and the hits, score bits and scan stats of `search` and
    /// `reference`.
    fn assert_same_index(a: &SearchIndex, b: &SearchIndex, queries: &[&str]) {
        assert_eq!(a.num_docs(), b.num_docs());
        assert_eq!(a.num_clusters(), b.num_clusters());
        assert_eq!(a.num_postings(), b.num_postings());
        assert_eq!(a.dict().len(), b.dict().len());
        let terms = a.dict().len() as u32;
        for id in (0..terms).map(TermId) {
            assert_eq!(a.dict().term(id), b.dict().term(id));
            assert_eq!(b.dict().get(a.dict().term(id)), Some(id));
        }
        assert_eq!(a.docs_tf(), b.docs_tf());
        let (x, y) = (a.inverted(), b.inverted());
        for id in (0..terms + 2).map(TermId) {
            assert_eq!(x.df(id), y.df(id), "df of {id:?}");
            for shard in 0..x.num_shards() {
                assert_eq!(x.postings(shard, id), y.postings(shard, id));
            }
        }
        let lens = |i: &InvertedIndex| bits((0..i.num_docs()).map(|d| i.doc_len(d)));
        assert_eq!(lens(x), lens(y));
        assert_eq!(x.avgdl().to_bits(), y.avgdl().to_bits());
        let scored = |o: &SearchOutcome| {
            let hits: Vec<(usize, u64)> =
                o.hits.iter().map(|h| (h.doc, h.score.to_bits())).collect();
            (hits, o.stats)
        };
        for q in queries {
            let qvec = a.query_vector(q);
            assert_eq!(a.route_order(&qvec), b.route_order(&qvec), "route {q:?}");
            assert_eq!(scored(&a.search(q)), scored(&b.search(q)), "search {q:?}");
            assert_eq!(
                scored(&a.reference(q, 10)),
                scored(&b.reference(q, 10)),
                "reference {q:?}"
            );
        }
    }

    const QUERIES: [&str; 5] = [
        "airfare flights",
        "careers salary resume",
        "zygote",
        "travel careers database",
        "unknownterm",
    ];

    /// A fresh pipeline's index of `corpus` under `partition`.
    fn fresh(config: SearchConfig, corpus: &FormPageCorpus, partition: &Partition) -> SearchIndex {
        SearchPipeline::builder()
            .config(config)
            .build()
            .index(corpus, Some(partition))
    }

    #[test]
    fn corpus_clones_and_indexes_share_vector_storage() {
        let corpus = corpus();
        let copy = corpus.clone();
        let index = build(SearchConfig::new());
        for (i, v) in corpus.pc.iter().enumerate() {
            assert!(copy.pc[i].shares_entries(v));
            assert!(copy.pc_tf[i].shares_entries(&corpus.pc_tf[i]));
            assert!(copy.fc[i].shares_entries(&corpus.fc[i]));
            assert_eq!(copy.pc[i], *v);
            assert_eq!(format!("{:?}", copy.pc[i]), format!("{v:?}"));
            assert_eq!(copy.pc[i].heap_bytes(), v.heap_bytes());
        }
        // `build` made its own corpus, so its vectors are equal, not shared.
        assert_eq!(index.docs_tf(), corpus.pc_tf.as_slice());
        let pipeline = SearchPipeline::builder().build();
        let index = pipeline.index(&corpus, Some(&partition()));
        for (v, w) in index.docs_tf().iter().zip(&corpus.pc_tf) {
            assert!(v.shares_entries(w));
        }
        for (v, w) in index.docs_tfidf.iter().zip(&corpus.pc) {
            assert!(v.shares_entries(w));
        }
    }

    /// Four seed pages clustered by topic, streamed into with a repair
    /// pass every second arrival.
    fn stream(config: crate::StreamConfig, partition: &Partition) -> crate::StreamCorpus {
        crate::StreamCorpus::new(corpus(), partition, config, Obs::disabled())
    }

    const ARRIVALS: [&str; 6] = [
        "<title>airfare deals</title><p>airline flights airfare zygote</p>\
         <form>departure <input name=a></form>",
        "<title>careers hiring</title><p>careers salary openings hiring</p>\
         <form>keywords <input name=c></form>",
        "<p>travel airfare airline vacation cabin</p><form>cabin <input name=g></form>",
        "<p>resume employment salary careers industry</p>\
         <form>industry <input name=h></form>",
        "<p>airfare fares ticket travel</p><form>return <input name=r></form>",
        "<p>hiring employment benefits careers</p><form>role <input name=s></form>",
    ];

    #[test]
    fn publishes_extend_and_equal_fresh_builds_under_every_policy() {
        // A budget of 4 postings stops some queries after their first
        // cluster, so the budgeted leg compares routed scans.
        let mut cut_short = 0;
        for budget in [None, Some(4)] {
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }] {
                let obs = Obs::enabled();
                let search = SearchConfig::new().with_budget(budget);
                let pipeline = SearchPipeline::builder()
                    .config(search)
                    .exec(policy)
                    .obs(obs.clone())
                    .build();
                let config = crate::StreamConfig::new().with_repair_interval(2);
                let mut sc = stream(config, &partition());
                let first = pipeline.index(sc.corpus(), Some(&sc.partition()));
                let reference = fresh(search, sc.corpus(), &sc.partition());
                assert_same_index(&first, &reference, &QUERIES);
                for page in ARRIVALS {
                    sc.ingest_html(page);
                    let index = pipeline.index(sc.corpus(), Some(&sc.partition()));
                    let reference = fresh(search, sc.corpus(), &sc.partition());
                    assert_same_index(&index, &reference, &QUERIES);
                    assert_eq!(index.router.is_some(), budget.is_some(), "{budget:?}");
                    cut_short += QUERIES
                        .iter()
                        .filter(|q| index.search(q).stats.clusters_visited < index.num_clusters())
                        .count();
                }
                // Bases of 4, 6 and 8 pages: a tail of one page extends any
                // of them, a tail of two promotes past 4 and 6 (more than a
                // quarter) and extends 8.
                assert_eq!(builds(&obs), (3, 4), "{policy:?} {budget:?}");
            }
        }
        assert!(cut_short > 0, "no budgeted scan stopped early");
    }

    #[test]
    fn an_index_extends_with_a_tail_of_new_terms_and_stays_queryable() {
        let obs = Obs::enabled();
        let pipeline = SearchPipeline::builder().obs(obs.clone()).build();
        let topics = Partition::new(vec![vec![0, 1, 4, 5], vec![2, 3, 6, 7]], 8);
        let mut sc = crate::StreamCorpus::new(
            eight(),
            &topics,
            crate::StreamConfig::new(),
            Obs::disabled(),
        );
        let first = pipeline.index(sc.corpus(), Some(&sc.partition()));
        assert_eq!(first.dict().get("zygot"), None);
        let arrival = sc.ingest_html(ARRIVALS[0]);
        assert_eq!(arrival.cluster, Some(0));
        let index = pipeline.index(sc.corpus(), Some(&sc.partition()));
        assert_eq!(builds(&obs), (1, 1));
        assert_eq!(index.inverted().base_docs(), 8);
        assert_same_index(
            &index,
            &fresh(SearchConfig::new(), sc.corpus(), &sc.partition()),
            &QUERIES,
        );
        let hits = index.search("zygote").hits;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 8);
        // The term was interned after the base: it lives in the tail.
        assert!(index
            .dict()
            .get("zygot")
            .is_some_and(|id| id.index() >= first.dict().len()));
    }

    /// Index `corpus` under `partition` with a pipeline whose last full
    /// build was `base` under `base_partition`, and check the stale input
    /// took the full-build path and equals a fresh build.
    fn assert_rebuilt(
        (base, base_partition): (&FormPageCorpus, &Partition),
        (corpus, partition): (&FormPageCorpus, &Partition),
    ) {
        let obs = Obs::enabled();
        let pipeline = SearchPipeline::builder().obs(obs.clone()).build();
        pipeline.index(base, Some(base_partition));
        // The same input again extends, with nothing new.
        pipeline.index(base, Some(base_partition));
        assert_eq!(builds(&obs), (1, 1));
        let index = pipeline.index(corpus, Some(partition));
        assert_eq!(builds(&obs), (2, 1), "stale input must build afresh");
        assert_same_index(
            &index,
            &fresh(SearchConfig::new(), corpus, partition),
            &QUERIES,
        );
    }

    #[test]
    fn stale_input_takes_the_full_build_path() {
        let base = corpus();
        let topics = partition();

        // One base vector replaced by an equal-valued copy in new storage.
        let mut copied = base.clone();
        copied.pc_tf[1] = SparseVector::from_entries(base.pc_tf[1].entries().to_vec());
        assert_eq!(copied.pc_tf, base.pc_tf);
        assert_rebuilt((&base, &topics), (&copied, &topics));

        // A base document moved to another cluster.
        let moved = Partition::new(vec![vec![0], vec![2, 3, 1]], 4);
        assert_rebuilt((&base, &topics), (&base, &moved));

        // A partition with fewer clusters.
        let one = Partition::new(vec![vec![0, 1, 2, 3]], 4);
        assert_rebuilt((&base, &topics), (&base, &one));

        // The dictionary rebuilt from its terms: same length, same ids,
        // same vectors, but other allocations, so no shared prefix.
        let mut rebuilt = base.clone();
        rebuilt.dict = TermDict::new();
        for (_, term) in base.dict.iter() {
            rebuilt.dict.intern(term);
        }
        assert_eq!(rebuilt.dict.len(), base.dict.len());
        assert_rebuilt((&base, &topics), (&rebuilt, &topics));
    }

    /// Eight seed pages: `pages()` twice, so 0, 1, 4, 5 are about airfare
    /// and 2, 3, 6, 7 about careers.
    fn eight() -> FormPageCorpus {
        let pages: Vec<&str> = pages().into_iter().chain(pages()).collect();
        FormPageCorpus::from_html(
            pages,
            &crate::ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
    }

    #[test]
    fn a_forced_recluster_that_moves_base_pages_builds_afresh() {
        // Seed clusters that mix the topics, which the re-cluster undoes.
        let mixed = Partition::new(vec![vec![0, 1, 2], vec![3, 4, 5, 6, 7]], 8);
        let config = crate::StreamConfig::new()
            .with_repair_interval(2)
            .with_drift_threshold(-1.0);
        let mut sc = crate::StreamCorpus::new(eight(), &mixed, config, Obs::disabled());
        let before = sc.corpus().clone();
        sc.ingest_html(ARRIVALS[0]);
        let arrival = sc.ingest_html(ARRIVALS[1]);
        assert!(arrival.reclustered);
        let after = sc.partition();
        assert!(
            after
                .clusters()
                .iter()
                .zip(mixed.clusters())
                .any(|(now, then)| !now.starts_with(then)),
            "the re-cluster moved a seed page: {after:?}"
        );
        // The tail alone would not force a full build.
        assert!((sc.corpus().len() - 8) * TAIL_SHARE <= 8);
        assert_rebuilt((&before, &mixed), (sc.corpus(), &after));
    }

    #[test]
    fn an_over_limit_arrival_between_publishes_keeps_the_extend_path() {
        // The rollback leaves every indexed term in place, so the next
        // publish still extends, and equals a fresh build.
        let obs = Obs::enabled();
        let pipeline = SearchPipeline::builder().obs(obs.clone()).build();
        let limits = crate::IngestLimits::new().with_hard_max_bytes(400);
        let config = crate::StreamConfig::new().with_limits(limits);
        let topics = Partition::new(vec![vec![0, 1, 4, 5], vec![2, 3, 6, 7]], 8);
        let mut sc = crate::StreamCorpus::new(eight(), &topics, config, Obs::disabled());
        pipeline.index(sc.corpus(), Some(&sc.partition()));
        let terms = sc.corpus().dict.len();
        let big = format!("<p>{}</p>", "quixotic airfare ".repeat(40));
        assert_eq!(sc.ingest_html(&big).page, None);
        assert_eq!(sc.corpus().dict.len(), terms);
        assert!(sc.ingest_html(ARRIVALS[0]).page.is_some());
        let index = pipeline.index(sc.corpus(), Some(&sc.partition()));
        assert_eq!(builds(&obs), (1, 1));
        assert_same_index(
            &index,
            &fresh(SearchConfig::new(), sc.corpus(), &sc.partition()),
            &QUERIES,
        );
    }

    /// The benchmark's stream shape: 4 000 warm pages of the sharded
    /// generator at seed 10, k = 6, 450 arrivals, a repair pass every 32
    /// and a publish every 16 kept arrivals. After every publish, the
    /// indexes a Serial and a Parallel pipeline extend equal a fresh
    /// build, and the extend path ran.
    #[test]
    fn benchmark_shaped_stream_extends_bit_identically() {
        use cafc_cluster::{kmeans, random_singleton_seeds, KMeansOptions};
        use cafc_corpus::{generate_page, ShardedCorpusConfig};
        use rand::SeedableRng;

        let generator = ShardedCorpusConfig::new().with_seed(10);
        let warm: Vec<String> = (0..4000).map(|i| generate_page(&generator, i)).collect();
        let (corpus, _) = FormPageCorpus::from_shards(
            [warm],
            &crate::ModelOptions::default(),
            &crate::IngestLimits::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let partition = {
            let space = crate::FormPageSpace::new(&corpus, crate::FeatureConfig::combined());
            let mut rng = rand::rngs::StdRng::seed_from_u64(10);
            let seeds = random_singleton_seeds(&space, 6, &mut rng);
            let options = KMeansOptions::default();
            kmeans(
                &space,
                &seeds,
                &options,
                ExecPolicy::Serial,
                &Obs::disabled(),
            )
            .partition
        };
        let warm_terms = corpus.dict.len();
        let config = crate::StreamConfig::new().with_repair_interval(32);
        let mut sc = crate::StreamCorpus::new(corpus, &partition, config, Obs::disabled());
        let obs = Obs::enabled();
        let pipelines = [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }].map(|policy| {
            SearchPipeline::builder()
                .exec(policy)
                .obs(obs.clone())
                .build()
        });
        let publish = |sc: &crate::StreamCorpus| {
            let partition = sc.partition();
            let reference = fresh(SearchConfig::new(), sc.corpus(), &partition);
            // Fixed queries, the newest term (first interned in a tail
            // once the stream has added terms) and an unknown one.
            let dict = &sc.corpus().dict;
            let newest = dict.term(TermId(dict.len() as u32 - 1)).to_string();
            let mut queries = vec!["flight airfare hotel", "job career", "qqqzzz"];
            queries.push(&newest);
            for pipeline in &pipelines {
                let index = pipeline.index(sc.corpus(), Some(&partition));
                assert_same_index(&index, &reference, &queries);
            }
        };
        publish(&sc);
        let mut pending = 0;
        for i in 4000..4450 {
            if sc.ingest_html(&generate_page(&generator, i)).page.is_some() {
                pending += 1;
            }
            if pending == 16 {
                publish(&sc);
                pending = 0;
            }
        }
        if pending > 0 {
            publish(&sc);
        }
        assert!(
            sc.corpus().dict.len() > warm_terms,
            "the stream added terms"
        );
        // Each pipeline builds the warm start in full and extends it at
        // all 29 publishes: no re-cluster, and 450 arrivals stay within a
        // quarter of 4 000.
        assert_eq!(builds(&obs), (2, 2 * 29));
    }

    #[test]
    fn unpartitioned_corpus_is_searchable() {
        let index = SearchPipeline::builder().build().index(&corpus(), None);
        assert_eq!(index.num_clusters(), 1);
        let out = index.search("airfare");
        assert!(!out.hits.is_empty());
    }
}
