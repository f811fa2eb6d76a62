//! The cluster-sharded inverted index.
//!
//! Postings are sharded by cluster — each shard maps term → postings for
//! the documents assigned to that cluster — so cluster-routed retrieval
//! can skip whole shards. Collection statistics (document frequency,
//! document length, `avgdl`) are **global**: a document's BM25 score does
//! not depend on which shards a query visits, only *whether* its shard is
//! visited. Routed retrieval therefore returns a subset of the full-scan
//! ranking, never differently-scored documents.

use crate::bm25::{bm25_idf, Bm25Params};
use cafc_exec::{par_chunks_obs, ExecPolicy};
use cafc_obs::Obs;
use cafc_text::TermId;
use cafc_vsm::SparseVector;
use std::collections::HashMap;
use std::sync::Arc;

/// Documents per partial sum of the `avgdl` reduction. Fixed (never
/// derived from the thread count) so the float sum is identical under
/// every [`ExecPolicy`].
const DOC_CHUNK: usize = 64;

/// One posting: a document and the term's location-weighted frequency in
/// it. Only strictly positive frequencies are indexed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// Document id (index into the corpus).
    pub doc: u32,
    /// Location-weighted term frequency (Equation 1's `Σ LOC`), `> 0`.
    pub tf: f64,
}

/// One ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Document id.
    pub doc: usize,
    /// Score under whatever ranking produced the hit.
    pub score: f64,
}

/// What a retrieval pass actually touched — the currency of the
/// routed-vs-full comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Postings visited across all shards scanned.
    pub postings_scanned: usize,
    /// Distinct documents that accumulated a score.
    pub docs_scored: usize,
    /// Shards (clusters) visited before the budget ran out.
    pub clusters_visited: usize,
}

/// Per-cluster postings in CSR form: `terms` ascending, and `terms[i]`'s
/// postings are `postings[offsets[i]..offsets[i + 1]]`, ascending by doc.
#[derive(Debug, Clone, PartialEq)]
struct Shard {
    terms: Vec<TermId>,
    offsets: Vec<usize>,
    postings: Vec<Posting>,
}

impl Shard {
    /// Two-pass counting sort of `docs` (ascending) by term: count each
    /// term's positive entries, lay the terms out in order, then place
    /// each posting at its term's cursor. `num_terms` bounds the term ids.
    fn build(docs_tf: &[SparseVector], docs: &[usize], num_terms: usize) -> Shard {
        if docs.is_empty() {
            // What the sort below makes of no documents, without the
            // counter per term id: a tail often leaves shards empty.
            return Shard {
                terms: Vec::new(),
                offsets: vec![0],
                postings: Vec::new(),
            };
        }
        let positive = |doc: usize| docs_tf[doc].entries().iter().filter(|&&(_, tf)| tf > 0.0);
        // Per term id: its posting count, then its next free position.
        let mut slot = vec![0usize; num_terms];
        let mut terms: Vec<TermId> = Vec::new();
        for &doc in docs {
            for &(term, _) in positive(doc) {
                if slot[term.index()] == 0 {
                    terms.push(term);
                }
                slot[term.index()] += 1;
            }
        }
        terms.sort_unstable();
        let mut offsets = Vec::with_capacity(terms.len() + 1);
        let mut total = 0;
        for &term in &terms {
            offsets.push(total);
            let count = std::mem::replace(&mut slot[term.index()], total);
            total += count;
        }
        offsets.push(total);
        let mut postings = vec![Posting { doc: 0, tf: 0.0 }; total];
        for &doc in docs {
            for &(term, tf) in positive(doc) {
                let at = &mut slot[term.index()];
                postings[*at] = Posting {
                    doc: doc as u32,
                    tf,
                };
                *at += 1;
            }
        }
        Shard {
            terms,
            offsets,
            postings,
        }
    }

    fn get(&self, term: TermId) -> Option<&[Posting]> {
        let i = self.terms.binary_search(&term).ok()?;
        Some(&self.postings[self.offsets[i]..self.offsets[i + 1]])
    }
}

/// The documents `0..doc_len.len()` of an index, built once and shared by
/// every generation that extends it: their per-shard postings and the
/// statistics an extension starts from.
#[derive(Debug, Default, PartialEq)]
struct Base {
    shards: Vec<Shard>,
    /// Document frequency over the base's documents, indexed by term id.
    df: Vec<u32>,
    /// Document length of each base document.
    doc_len: Vec<f64>,
    /// `doc_len` summed over each complete `DOC_CHUNK`-document chunk.
    chunk_sums: Vec<f64>,
}

/// The inverted index: cluster-sharded postings plus global collection
/// statistics. Build with [`InvertedIndex::build`]; grow with
/// [`InvertedIndex::extend`].
///
/// Postings come in two parts. The **base**, shared between generations,
/// holds the documents of the last full build; the **tail** holds the
/// documents after them, rebuilt by the same counting sort at each
/// extension. A tail document's id is above every base id, so a shard's
/// postings for a term, base then tail, ascend by doc id as one full
/// build's do. A full build is a tail over every document made the base.
/// The statistics are per-generation copies, so a query reads them as it
/// would from a full build.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    base: Arc<Base>,
    /// Per-shard postings of the documents after the base; empty after a
    /// full build.
    tail: Vec<Shard>,
    num_shards: usize,
    /// Global document frequency, indexed by term id.
    df: Vec<u32>,
    /// Global document length (total indexed tf mass), indexed by doc id.
    doc_len: Vec<f64>,
    /// `doc_len` summed over each `DOC_CHUNK`-document chunk, the last one
    /// possibly partial.
    chunk_sums: Vec<f64>,
    /// Mean document length (0.0 for an empty collection).
    avgdl: f64,
}

impl InvertedIndex {
    /// Build an index over `docs_tf` (raw location-weighted TF vectors,
    /// aligned with corpus items) sharded by `clusters` (disjoint member
    /// lists; documents not covered by any cluster land in one trailing
    /// shard). Pass a single cluster containing every document for an
    /// unsharded index.
    ///
    /// Each shard is a two-pass counting sort of its documents into CSR
    /// layout, one work unit per shard under `policy`; postings are
    /// ascending by doc id, so the index is bit-identical under every
    /// policy. `avgdl` sums document lengths over fixed `DOC_CHUNK`s,
    /// merged left to right. Instrumentation (when `obs` is enabled):
    /// per-shard `index.build.*` metrics plus gauges `index.shards`,
    /// `index.terms` and `index.postings`.
    pub fn build(
        docs_tf: &[SparseVector],
        clusters: &[Vec<usize>],
        policy: ExecPolicy,
        obs: &Obs,
    ) -> InvertedIndex {
        let mut index = InvertedIndex::default().extend(docs_tf, clusters, policy, obs);
        index.promote();
        index
    }

    /// The index [`InvertedIndex::build`] makes of `docs_tf` and
    /// `clusters`, at the cost of the documents after this index's base:
    /// the base is shared, and the tail is rebuilt over
    /// `docs_tf[self.base_docs()..]`. Same policy, metrics and gauges as
    /// `build`.
    ///
    /// Bit-equal to the full build when the input extends the base, which
    /// the caller proves: `docs_tf` starts with the base's documents, and
    /// `clusters` has as many clusters as the base was built with, each
    /// listing its base members first and then only documents after the
    /// base. Document frequencies are integers; each document's length is
    /// the same fold; `avgdl` merges the base's cached chunk sums and the
    /// chunks from the base's last complete one on, left to right, as the
    /// full build's reduction does.
    pub fn extend(
        &self,
        docs_tf: &[SparseVector],
        clusters: &[Vec<usize>],
        policy: ExecPolicy,
        obs: &Obs,
    ) -> InvertedIndex {
        let first = self.base_docs();
        let tail_docs = docs_tf.get(first..).unwrap_or_default();
        let mut doc_shard: Vec<u32> = vec![u32::MAX; tail_docs.len()];
        for (ci, members) in clusters.iter().enumerate() {
            for &m in members {
                if let Some(shard) = m.checked_sub(first).and_then(|i| doc_shard.get_mut(i)) {
                    *shard = ci as u32;
                }
            }
        }
        let overflow = clusters.len() as u32;
        let mut num_shards = clusters.len().max(self.base.shards.len());
        if doc_shard.contains(&u32::MAX) {
            num_shards = num_shards.max(clusters.len() + 1);
            for s in &mut doc_shard {
                if *s == u32::MAX {
                    *s = overflow;
                }
            }
        }
        // Bucketing in doc order keeps every shard's document list
        // ascending, whatever order the member lists came in.
        let mut shard_docs: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (i, &shard) in doc_shard.iter().enumerate() {
            shard_docs[shard as usize].push(first + i);
        }
        let num_terms = tail_docs
            .iter()
            .filter_map(|v| v.entries().last())
            .map(|&(term, _)| term.index() + 1)
            .fold(self.base.df.len(), usize::max);
        let tail: Vec<Shard> = par_chunks_obs(policy, num_shards, 1, obs, "index.build", |range| {
            range
                .map(|s| Shard::build(docs_tf, &shard_docs[s], num_terms))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        let mut df = self.base.df.clone();
        df.resize(num_terms, 0);
        for shard in &tail {
            for (i, &term) in shard.terms.iter().enumerate() {
                df[term.index()] += (shard.offsets[i + 1] - shard.offsets[i]) as u32;
            }
        }
        let mut doc_len = Vec::with_capacity(first + tail_docs.len());
        doc_len.extend_from_slice(&self.base.doc_len);
        doc_len.extend(tail_docs.iter().map(|v| {
            v.entries()
                .iter()
                .filter(|&&(_, tf)| tf > 0.0)
                .fold(0.0, |len, &(_, tf)| len + tf)
        }));
        // Fixed-chunk sums merged left to right -> the same float under
        // every policy and for every base size.
        let mut chunk_sums = self.base.chunk_sums.clone();
        let from = chunk_sums.len() * DOC_CHUNK;
        chunk_sums.extend(
            doc_len[from..]
                .chunks(DOC_CHUNK)
                .map(|chunk| chunk.iter().sum::<f64>()),
        );
        let n = doc_len.len();
        let total_len = chunk_sums.iter().copied().reduce(|a, b| a + b);
        let avgdl = match total_len {
            Some(total) if n > 0 => total / n as f64,
            _ => 0.0,
        };

        let index = InvertedIndex {
            base: Arc::clone(&self.base),
            tail,
            num_shards,
            df,
            doc_len,
            chunk_sums,
            avgdl,
        };
        obs.gauge("index.shards", num_shards as f64);
        obs.gauge(
            "index.terms",
            index.df.iter().filter(|&&d| d > 0).count() as f64,
        );
        obs.gauge("index.postings", index.num_postings() as f64);
        index
    }

    /// Make the tail the base: what completes a full build, whose base is
    /// empty until then.
    fn promote(&mut self) {
        debug_assert_eq!(self.base_docs(), 0, "only a full build promotes");
        let complete = self.doc_len.len() / DOC_CHUNK;
        self.base = Arc::new(Base {
            shards: std::mem::take(&mut self.tail),
            df: self.df.clone(),
            doc_len: self.doc_len.clone(),
            chunk_sums: self.chunk_sums[..complete].to_vec(),
        });
    }

    /// Number of documents in the base, which [`InvertedIndex::extend`]
    /// shares rather than rebuilds.
    pub fn base_docs(&self) -> usize {
        self.base.doc_len.len()
    }

    /// A shard's postings for `term` in the base, then in the tail, each
    /// ascending by doc id and empty when absent.
    fn parts(&self, shard: usize, term: TermId) -> [&[Posting]; 2] {
        fn part(shards: &[Shard], shard: usize, term: TermId) -> &[Posting] {
            shards
                .get(shard)
                .and_then(|s| s.get(term))
                .unwrap_or_default()
        }
        [
            part(&self.base.shards, shard, term),
            part(&self.tail, shard, term),
        ]
    }

    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Number of shards (clusters, plus a trailing overflow shard when the
    /// cluster lists did not cover every document).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Total postings stored across all shards.
    pub fn num_postings(&self) -> usize {
        self.base
            .shards
            .iter()
            .chain(&self.tail)
            .map(|s| s.postings.len())
            .sum()
    }

    /// A term's postings in one shard, ascending by doc id; empty when
    /// the shard or the term is absent.
    pub fn postings(&self, shard: usize, term: TermId) -> Vec<Posting> {
        self.parts(shard, term).concat()
    }

    /// Global document frequency of a term.
    pub fn df(&self, term: TermId) -> u32 {
        self.df.get(term.index()).copied().unwrap_or(0)
    }

    /// Global document length (indexed tf mass) of a document.
    pub fn doc_len(&self, doc: usize) -> f64 {
        self.doc_len.get(doc).copied().unwrap_or(0.0)
    }

    /// Mean document length (0.0 for an empty collection).
    pub fn avgdl(&self) -> f64 {
        self.avgdl
    }

    /// The trivial visit order: every shard, in shard order. A full scan.
    pub fn full_order(&self) -> Vec<usize> {
        (0..self.num_shards).collect()
    }

    /// Sorted, deduplicated copy of a query's term ids — the canonical
    /// term order every scoring path accumulates in.
    fn normalize(query: &[TermId]) -> Vec<TermId> {
        let mut q = query.to_vec();
        q.sort_unstable();
        q.dedup();
        q
    }

    /// Term-at-a-time BM25 over the shards in `order`, stopping early once
    /// `budget` postings have been scanned (the shard in progress is
    /// always finished, so a budget never truncates a cluster's ranking
    /// mid-way). Returns the top `k` hits sorted by (score descending,
    /// doc id ascending) and the scan accounting.
    ///
    /// Scores use global statistics, so a document scores identically
    /// whether it is reached by a routed or a full scan, and identically
    /// to the doc-at-a-time reference ([`InvertedIndex::scan_bm25`]).
    pub fn search_bm25(
        &self,
        query: &[TermId],
        k: usize,
        order: &[usize],
        budget: Option<usize>,
        params: &Bm25Params,
    ) -> (Vec<Hit>, ScanStats) {
        let query = Self::normalize(query);
        let idf: Vec<f64> = query
            .iter()
            .map(|&t| bm25_idf(self.num_docs(), self.df(t)))
            .collect();
        let mut stats = ScanStats::default();
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for &si in order {
            if budget.is_some_and(|b| stats.postings_scanned >= b) {
                break;
            }
            if si >= self.num_shards {
                continue;
            }
            stats.clusters_visited += 1;
            // Outer loop over terms in ascending order: each document
            // accumulates its term contributions in that fixed order, the
            // same order the doc-at-a-time reference uses. A document is in
            // the base or in the tail, never both.
            for (&term, &idf) in query.iter().zip(&idf) {
                for postings in self.parts(si, term) {
                    stats.postings_scanned += postings.len();
                    for p in postings {
                        let s =
                            params.score_term(p.tf, idf, self.doc_len(p.doc as usize), self.avgdl);
                        *acc.entry(p.doc).or_insert(0.0) += s;
                    }
                }
            }
        }
        stats.docs_scored = acc.len();
        (top_k(acc, k), stats)
    }

    /// Doc-at-a-time BM25 reference: scan every document's raw TF vector
    /// directly, using this index's global statistics. The differential
    /// oracle for [`InvertedIndex::search_bm25`] — same scores, same
    /// order, reached without touching the postings lists.
    pub fn scan_bm25(
        &self,
        docs_tf: &[SparseVector],
        query: &[TermId],
        k: usize,
        params: &Bm25Params,
    ) -> (Vec<Hit>, ScanStats) {
        let query = Self::normalize(query);
        let idf: Vec<f64> = query
            .iter()
            .map(|&t| bm25_idf(self.num_docs(), self.df(t)))
            .collect();
        let mut stats = ScanStats {
            clusters_visited: self.num_shards(),
            ..ScanStats::default()
        };
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for (doc, vector) in docs_tf.iter().enumerate() {
            let mut score = 0.0;
            let mut matched = false;
            for (&term, &idf) in query.iter().zip(&idf) {
                let tf = vector.get(term);
                if tf > 0.0 {
                    stats.postings_scanned += 1;
                    matched = true;
                    score += params.score_term(tf, idf, self.doc_len(doc), self.avgdl);
                }
            }
            if matched {
                acc.insert(doc as u32, score);
            }
        }
        stats.docs_scored = acc.len();
        (top_k(acc, k), stats)
    }

    /// Candidate discovery through the postings in `order` under the same
    /// budget semantics as [`InvertedIndex::search_bm25`]: every document
    /// holding at least one query term in a visited shard, ascending by
    /// doc id. The TF-IDF retrieval path scores these candidates against
    /// the cosine space; routing and budgeting cost exactly what they cost
    /// the BM25 path.
    pub fn candidates(
        &self,
        query: &[TermId],
        order: &[usize],
        budget: Option<usize>,
    ) -> (Vec<usize>, ScanStats) {
        let query = Self::normalize(query);
        let mut stats = ScanStats::default();
        let mut docs: Vec<usize> = Vec::new();
        for &si in order {
            if budget.is_some_and(|b| stats.postings_scanned >= b) {
                break;
            }
            if si >= self.num_shards {
                continue;
            }
            stats.clusters_visited += 1;
            for &term in &query {
                for postings in self.parts(si, term) {
                    stats.postings_scanned += postings.len();
                    docs.extend(postings.iter().map(|p| p.doc as usize));
                }
            }
        }
        docs.sort_unstable();
        docs.dedup();
        stats.docs_scored = docs.len();
        (docs, stats)
    }
}

/// Collect the accumulator into hits sorted by (score descending, doc id
/// ascending) — a total order, so the result is deterministic regardless
/// of hash-map iteration order — truncated to `k`.
fn top_k(acc: HashMap<u32, f64>, k: usize) -> Vec<Hit> {
    let mut hits: Vec<Hit> = acc
        .into_iter()
        .map(|(doc, score)| Hit {
            doc: doc as usize,
            score,
        })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.doc.cmp(&b.doc)));
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_text::TermId;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn vector(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(i, w)| (t(i), w)).collect())
    }

    /// Two "flight" docs (terms 0, 1) and two "job" docs (terms 2, 3);
    /// term 4 appears everywhere.
    fn docs() -> Vec<SparseVector> {
        vec![
            vector(&[(0, 2.0), (1, 1.0), (4, 1.0)]),
            vector(&[(0, 1.0), (1, 3.0), (4, 1.0)]),
            vector(&[(2, 2.0), (3, 1.0), (4, 1.0)]),
            vector(&[(2, 1.0), (3, 2.0), (4, 1.0)]),
        ]
    }

    fn clusters() -> Vec<Vec<usize>> {
        vec![vec![0, 1], vec![2, 3]]
    }

    fn build(docs: &[SparseVector], clusters: &[Vec<usize>]) -> InvertedIndex {
        InvertedIndex::build(docs, clusters, ExecPolicy::Serial, &Obs::disabled())
    }

    #[test]
    fn build_collects_global_stats() {
        let docs = docs();
        let index = build(&docs, &clusters());
        assert_eq!(index.num_docs(), 4);
        assert_eq!(index.num_shards(), 2);
        assert_eq!(index.df(t(0)), 2);
        assert_eq!(index.df(t(4)), 4);
        assert_eq!(index.df(t(9)), 0);
        assert_eq!(index.doc_len(0), 4.0);
        assert_eq!(index.avgdl(), 4.25);
        assert_eq!(index.num_postings(), 12);
    }

    #[test]
    fn uncovered_docs_land_in_overflow_shard() {
        let docs = docs();
        let index = build(&docs, &[vec![0, 1]]);
        assert_eq!(index.num_shards(), 2, "overflow shard appended");
        let (hits, _) =
            index.search_bm25(&[t(2)], 10, &index.full_order(), None, &Bm25Params::new());
        assert_eq!(hits.len(), 2, "overflow docs remain searchable");
    }

    #[test]
    fn postings_search_matches_scan_bitwise() {
        let docs = docs();
        let index = build(&docs, &clusters());
        let params = Bm25Params::new();
        for query in [
            vec![t(0)],
            vec![t(0), t(1)],
            vec![t(4), t(2)],
            vec![t(1), t(0), t(1)], // duplicates normalize away
            vec![t(7)],             // unknown term
        ] {
            let (indexed, _) = index.search_bm25(&query, 10, &index.full_order(), None, &params);
            let (scanned, _) = index.scan_bm25(&docs, &query, 10, &params);
            assert_eq!(indexed, scanned, "query {query:?}");
        }
    }

    #[test]
    fn routed_scan_touches_fewer_postings() {
        let docs = docs();
        let index = build(&docs, &clusters());
        let params = Bm25Params::new();
        // Query for flight vocabulary, routed to shard 0 only via budget.
        let (routed, routed_stats) = index.search_bm25(&[t(0), t(4)], 2, &[0, 1], Some(1), &params);
        let (full, full_stats) =
            index.search_bm25(&[t(0), t(4)], 2, &index.full_order(), None, &params);
        assert!(routed_stats.postings_scanned < full_stats.postings_scanned);
        assert_eq!(routed_stats.clusters_visited, 1);
        assert_eq!(routed, full, "the right cluster held the full top-2");
        // Scores are global: every routed hit appears in the full ranking
        // with the identical score.
        for hit in &routed {
            assert!(full.contains(hit));
        }
    }

    #[test]
    fn budget_finishes_current_shard() {
        let docs = docs();
        let index = build(&docs, &clusters());
        let (_, stats) = index.search_bm25(
            &[t(4)],
            10,
            &[0, 1],
            Some(1), // exhausted inside shard 0, but shard 0 completes
            &Bm25Params::new(),
        );
        assert_eq!(stats.clusters_visited, 1);
        assert_eq!(stats.postings_scanned, 2, "shard 0's postings all scanned");
    }

    #[test]
    fn candidates_ascend_and_dedup() {
        let docs = docs();
        let index = build(&docs, &clusters());
        let (cands, stats) = index.candidates(&[t(0), t(4)], &index.full_order(), None);
        assert_eq!(cands, vec![0, 1, 2, 3]);
        assert_eq!(stats.docs_scored, 4);
        let (cands, _) = index.candidates(&[t(0)], &[1], None);
        assert!(cands.is_empty(), "shard 1 has no postings for term 0");
    }

    #[test]
    fn ties_break_by_doc_id() {
        let docs = vec![
            vector(&[(0, 1.0)]),
            vector(&[(0, 1.0)]),
            vector(&[(1, 1.0)]),
        ];
        let index = build(&docs, &[vec![0, 1, 2]]);
        let (hits, _) =
            index.search_bm25(&[t(0)], 10, &index.full_order(), None, &Bm25Params::new());
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].score, hits[1].score);
        assert_eq!((hits[0].doc, hits[1].doc), (0, 1));
    }

    #[test]
    fn exec_policies_build_identical_indexes() {
        // Enough docs to cross DOC_CHUNK boundaries.
        let docs: Vec<SparseVector> = (0..200)
            .map(|i| {
                vector(&[
                    (i % 17, 1.0 + f64::from(i % 3)),
                    (i % 5 + 20, 0.5),
                    (40, 1.0),
                ])
            })
            .collect();
        let clusters: Vec<Vec<usize>> = (0..4)
            .map(|c| (0..docs.len()).filter(|d| d % 4 == c).collect())
            .collect();
        let baseline = build(&docs, &clusters);
        for policy in [
            ExecPolicy::Parallel { threads: 3 },
            ExecPolicy::Parallel { threads: 8 },
            ExecPolicy::Auto,
        ] {
            let index = InvertedIndex::build(&docs, &clusters, policy, &Obs::disabled());
            assert_eq!(index.df, baseline.df, "{policy:?}");
            assert_eq!(index.doc_len, baseline.doc_len, "{policy:?}");
            assert_eq!(
                index.avgdl.to_bits(),
                baseline.avgdl.to_bits(),
                "{policy:?}"
            );
            assert_eq!(index.base, baseline.base, "{policy:?}");
        }
    }

    /// Every part of two indexes a query can read, bit for bit: shard
    /// count, df, document lengths, `avgdl`, each (shard, term)'s postings,
    /// and BM25 hits and scan stats over every shard order of two.
    fn assert_same(a: &InvertedIndex, b: &InvertedIndex, num_terms: u32, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.num_shards(), b.num_shards(), "{what}");
        assert_eq!(a.df, b.df, "{what}");
        assert_eq!(bits(&a.doc_len), bits(&b.doc_len), "{what}");
        assert_eq!(a.avgdl.to_bits(), b.avgdl.to_bits(), "{what}");
        assert_eq!(a.num_postings(), b.num_postings(), "{what}");
        for shard in 0..a.num_shards() {
            for term in 0..num_terms {
                assert_eq!(
                    a.postings(shard, t(term)),
                    b.postings(shard, t(term)),
                    "{what}"
                );
            }
        }
        let params = Bm25Params::new();
        let mut orders = vec![a.full_order()];
        orders.extend((0..a.num_shards()).map(|s| vec![s, (s + 1) % a.num_shards()]));
        for query in [
            vec![t(0)],
            vec![t(3), t(21), t(40)],
            vec![t(43), t(44)],
            vec![t(99)],
        ] {
            for order in &orders {
                for budget in [None, Some(5)] {
                    let (ha, sa) = a.search_bm25(&query, 10, order, budget, &params);
                    let (hb, sb) = b.search_bm25(&query, 10, order, budget, &params);
                    let scores = |h: &[Hit]| {
                        h.iter()
                            .map(|h| (h.doc, h.score.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(scores(&ha), scores(&hb), "{what} {query:?} {order:?}");
                    assert_eq!(sa, sb, "{what} {query:?} {order:?}");
                    assert_eq!(
                        a.candidates(&query, order, budget),
                        b.candidates(&query, order, budget)
                    );
                }
            }
        }
    }

    #[test]
    fn extending_equals_building_afresh() {
        // Later documents use terms (43, 44) that early ones never do, and
        // the sizes cross `DOC_CHUNK` boundaries.
        let docs: Vec<SparseVector> = (0..200)
            .map(|i| {
                vector(&[
                    (i % 17, 1.0 + f64::from(i % 3) * 0.1),
                    (i % 5 + 20, 0.3),
                    (40 + i / 50, 1.0),
                ])
            })
            .collect();
        // Cluster layouts over the first `n` documents, each listing the
        // first `base` documents' members first: four interleaved clusters;
        // a base covered in full whose later odd documents are not (an
        // overflow shard only the tail needs); and a base whose documents
        // 2 mod 3 are never covered (an overflow shard from the base on).
        type Layout = fn(usize, usize) -> Vec<Vec<usize>>;
        let layouts: [(&str, Layout); 3] = [
            ("interleaved", |n, _| {
                (0..4)
                    .map(|c| (0..n).filter(|d| d % 4 == c).collect())
                    .collect()
            }),
            ("tail overflow", |n, base| {
                vec![(0..n).filter(|&d| d < base || d % 2 == 0).collect()]
            }),
            ("base overflow", |n, _| {
                vec![
                    (0..n).filter(|d| d % 3 == 0).collect(),
                    (0..n).filter(|d| d % 3 == 1).collect(),
                ]
            }),
        ];
        for (name, layout) in layouts {
            for base_n in [0, 1, 63, 64, 65, 130] {
                let base = build(&docs[..base_n], &layout(base_n, base_n));
                for n in [base_n, base_n + 1, base_n + 17, 200] {
                    let clusters = layout(n, base_n);
                    for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }] {
                        let extended = base.extend(&docs[..n], &clusters, policy, &Obs::disabled());
                        let fresh =
                            InvertedIndex::build(&docs[..n], &clusters, policy, &Obs::disabled());
                        assert_eq!(extended.base_docs(), base_n);
                        assert_eq!(fresh.base_docs(), n);
                        let what = format!("{name}: base {base_n}, {n} docs, {policy:?}");
                        assert_same(&extended, &fresh, 50, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_collection_is_searchable() {
        let index = build(&[], &[]);
        assert_eq!(index.num_docs(), 0);
        assert_eq!(index.avgdl(), 0.0);
        let (hits, stats) =
            index.search_bm25(&[t(0)], 5, &index.full_order(), None, &Bm25Params::new());
        assert!(hits.is_empty());
        assert_eq!(stats, ScanStats::default());
    }
}
