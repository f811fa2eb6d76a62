//! # cafc-index — inverted index, BM25 and cluster-routed retrieval
//!
//! The query side of the cluster-then-search architecture: the paper
//! clusters hidden-web sources so users can *find* the right databases;
//! this crate turns a clustered corpus into something a query can be
//! answered against.
//!
//! ## The pieces
//!
//! * [`InvertedIndex`] — term → postings (document id, raw term
//!   frequency), sharded by cluster so a router can skip whole clusters,
//!   with *global* document-frequency and document-length statistics so a
//!   routed scan produces bit-identical scores to a full scan. Built
//!   through the exec layer: chunked accumulation merged in chunk order,
//!   so the index is bit-identical under every
//!   [`ExecPolicy`](cafc_exec::ExecPolicy).
//! * [`score_term`] — Okapi BM25 at the conventional [`K1`] and [`B`],
//!   with the Lucene non-negative idf, `ln(1 + (N − df + ½)/(df + ½))`,
//!   over the corpus' location-weighted term frequencies.
//! * [`ClusterRouter`] — ranks clusters by query-to-centroid cosine; a
//!   budgeted search scans the best clusters' postings first and stops
//!   when its postings budget is exhausted.
//! * [`rrf_fuse`] — reciprocal-rank fusion of the BM25 and TF-IDF
//!   rankings: `score(d) = Σ 1/(60 + rank(d))`.
//!
//! ## Determinism contract
//!
//! Every score is accumulated per document in ascending query-term order,
//! in both the term-at-a-time postings path ([`InvertedIndex::search_bm25`])
//! and the doc-at-a-time reference scan ([`InvertedIndex::scan_bm25`]), so
//! the two produce bit-identical floats. Ties are broken (score
//! descending, document id ascending) with a total order, so result lists
//! are byte-stable across runs, thread counts and scan strategies.

#![warn(missing_docs)]

pub mod bm25;
pub mod fuse;
pub mod postings;
pub mod router;

pub use bm25::{bm25_idf, score_term, B, K1};
pub use fuse::{rrf_fuse, RRF_C};
pub use postings::{Hit, InvertedIndex, Posting, ScanStats};
pub use router::ClusterRouter;
