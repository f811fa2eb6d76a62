//! cafc-check properties for the retrieval stack.
//!
//! The load-bearing claims, pinned over generated corpora:
//!
//! * the term-at-a-time postings scan is bit-identical to the
//!   doc-at-a-time brute-force reference (differential oracle);
//! * routed, budgeted retrieval never invents or rescores a document —
//!   every hit it returns appears in the exhaustive ranking with the
//!   exact same float;
//! * BM25 scores are finite, positive and bounded by the idf mass of the
//!   query, and the idf itself is positive and strictly decreasing in
//!   document frequency;
//! * index construction and routing are deterministic across
//!   [`ExecPolicy`] — serial and parallel builds answer queries
//!   byte-identically;
//! * the counting-sort build equals a brute-force reference, posting by
//!   posting, for any cluster lists.

use cafc_check::corpus::{clustering, sparse_entries};
use cafc_check::gen::{pairs, usizes, vecs, Gen};
use cafc_check::{check, require, require_eq, CheckConfig};
use cafc_exec::ExecPolicy;
use cafc_index::{bm25_idf, ClusterRouter, InvertedIndex, Posting, K1};
use cafc_obs::Obs;
use cafc_text::TermId;
use cafc_vsm::SparseVector;

/// Term-id universe for generated corpora — small enough that documents
/// collide on terms (otherwise every query matches at most one document
/// and the properties are vacuous).
const MAX_TERM: usize = 24;

/// A generated retrieval scenario: raw TF vectors, a clustering of them,
/// and a query.
#[derive(Debug, Clone)]
struct Scenario {
    docs: Vec<SparseVector>,
    clusters: Vec<Vec<usize>>,
    query: Vec<TermId>,
}

/// Entries from [`sparse_entries`] carry signed weights; an index stores
/// only positive TF mass, so fold each weight through `abs`. Zero weights
/// are dropped by `SparseVector::from_entries`.
fn to_tf(entries: &[(usize, f64)]) -> SparseVector {
    SparseVector::from_entries(
        entries
            .iter()
            .map(|&(t, w)| (TermId(t as u32), w.abs()))
            .collect(),
    )
}

fn scenarios() -> Gen<Scenario> {
    vecs(&sparse_entries(MAX_TERM, 6), 1, 12).flat_map(|entries| {
        let docs: Vec<SparseVector> = entries.iter().map(|e| to_tf(e)).collect();
        let n = docs.len();
        pairs(&clustering(n, 4), &vecs(&usizes(0, MAX_TERM - 1), 1, 4)).map(move |(cl, terms)| {
            Scenario {
                docs: docs.clone(),
                clusters: cl.clone(),
                query: terms.iter().map(|&t| TermId(t as u32)).collect(),
            }
        })
    })
}

fn build(s: &Scenario, policy: ExecPolicy) -> InvertedIndex {
    InvertedIndex::build(&s.docs, &s.clusters, policy, &Obs::default())
}

/// The postings scan and the brute-force document scan are the same
/// function: identical hits, bit-identical scores, identical matched-doc
/// counts.
#[test]
fn postings_scan_matches_brute_force_reference() {
    check!(CheckConfig::new(), scenarios(), |s| {
        let index = build(s, ExecPolicy::Serial);
        let k = s.docs.len();
        let (fast, fast_stats) = index.search_bm25(&s.query, k, &index.full_order(), None);
        let (slow, slow_stats) = index.scan_bm25(&s.docs, &s.query, k);
        require_eq!(fast, slow);
        require_eq!(fast_stats.docs_scored, slow_stats.docs_scored);
        // Both sides walk every matching posting exactly once.
        require_eq!(fast_stats.postings_scanned, slow_stats.postings_scanned);
        Ok(())
    });
}

/// Routed, budgeted retrieval returns a subset of the exhaustive ranking:
/// every hit reappears in the full scan with the exact same score, the
/// hit list is sorted (score descending, doc ascending), and it never
/// scans more postings than the full scan.
#[test]
fn routed_retrieval_is_a_scored_subset_of_the_full_scan() {
    check!(CheckConfig::new(), scenarios(), |s| {
        let index = build(s, ExecPolicy::Serial);
        let router = ClusterRouter::new(&s.docs, &s.clusters);
        let mut order = router.route(&SparseVector::from_entries(
            s.query.iter().map(|&t| (t, 1.0)).collect(),
        ));
        order.extend(router.num_clusters()..index.num_shards());
        let k = s.docs.len();
        let (full, full_stats) = index.search_bm25(&s.query, k, &index.full_order(), None);
        for budget in [1, 4, usize::MAX] {
            let (routed, stats) = index.search_bm25(&s.query, k, &order, Some(budget));
            require!(stats.postings_scanned <= full_stats.postings_scanned);
            for (i, hit) in routed.iter().enumerate() {
                if i > 0 {
                    let prev = routed[i - 1];
                    require!(
                        prev.score > hit.score || (prev.score == hit.score && prev.doc < hit.doc),
                        "routed hits out of order at {i}: {prev:?} then {hit:?}"
                    );
                }
                require!(
                    full.iter()
                        .any(|f| f.doc == hit.doc && f.score.to_bits() == hit.score.to_bits()),
                    "routed hit {hit:?} missing from the full ranking {full:?}"
                );
            }
        }
        // Without a budget the shard order is irrelevant: same hits, and
        // the same shards, postings and documents scanned.
        let (unbudgeted, stats) = index.search_bm25(&s.query, k, &order, None);
        require_eq!(unbudgeted, full);
        require_eq!(stats, full_stats);
        Ok(())
    });
}

/// Every BM25 hit score is finite, strictly positive and bounded above by
/// `Σ idf(t) · (k1 + 1)` over the query terms (each term's contribution
/// saturates below `idf · (k1 + 1)`).
#[test]
fn bm25_scores_are_finite_positive_and_bounded() {
    check!(CheckConfig::new(), scenarios(), |s| {
        let index = build(s, ExecPolicy::Serial);
        let mut q = s.query.clone();
        q.sort_unstable();
        q.dedup();
        let bound: f64 = q
            .iter()
            .map(|&t| bm25_idf(index.num_docs(), index.df(t)) * (K1 + 1.0))
            .sum();
        let (hits, _) = index.search_bm25(&s.query, s.docs.len(), &index.full_order(), None);
        for hit in &hits {
            require!(hit.score.is_finite(), "non-finite score {hit:?}");
            require!(hit.score > 0.0, "non-positive score {hit:?}");
            require!(
                hit.score <= bound,
                "score {} above the idf bound {bound}",
                hit.score
            );
        }
        Ok(())
    });
}

/// The Lucene idf is strictly positive for every `df ≤ N` and strictly
/// decreasing in `df`: rarer terms always weigh more.
#[test]
fn idf_is_positive_and_strictly_decreasing_in_df() {
    let gen = pairs(&usizes(1, 300), &pairs(&usizes(0, 300), &usizes(0, 300)));
    check!(CheckConfig::new(), gen, |&(n, (a, b))| {
        let (a, b) = (a.min(n) as u32, b.min(n) as u32);
        let (lo, hi) = (a.min(b), a.max(b));
        require!(bm25_idf(n, lo) > 0.0);
        require!(bm25_idf(n, hi) > 0.0);
        if lo < hi {
            require!(
                bm25_idf(n, lo) > bm25_idf(n, hi),
                "idf not decreasing: idf({n}, {lo}) <= idf({n}, {hi})"
            );
        }
        Ok(())
    });
}

/// Index construction and routed retrieval are pure functions of the
/// corpus: serial and parallel builds agree on every statistic, on the
/// route order, and on the byte-exact result of a budgeted routed scan.
#[test]
fn build_and_routing_are_deterministic_across_exec_policies() {
    check!(CheckConfig::new(), scenarios(), |s| {
        let serial = build(s, ExecPolicy::Serial);
        for threads in [2, 5] {
            let parallel = build(s, ExecPolicy::Parallel { threads });
            require_eq!(serial.num_docs(), parallel.num_docs());
            require_eq!(serial.num_shards(), parallel.num_shards());
            require_eq!(serial.num_postings(), parallel.num_postings());
            require_eq!(serial.avgdl().to_bits(), parallel.avgdl().to_bits());
            for t in 0..MAX_TERM {
                require_eq!(serial.df(TermId(t as u32)), parallel.df(TermId(t as u32)));
            }
            for d in 0..s.docs.len() {
                require_eq!(serial.doc_len(d).to_bits(), parallel.doc_len(d).to_bits());
            }
            let qvec = SparseVector::from_entries(s.query.iter().map(|&t| (t, 1.0)).collect());
            let router = ClusterRouter::new(&s.docs, &s.clusters);
            let mut order = router.route(&qvec);
            order.extend(router.num_clusters()..serial.num_shards());
            require_eq!(order, {
                let r = ClusterRouter::new(&s.docs, &s.clusters);
                let mut o = r.route(&qvec);
                o.extend(r.num_clusters()..parallel.num_shards());
                o
            });
            let a = serial.search_bm25(&s.query, 10, &order, Some(8));
            let b = parallel.search_bm25(&s.query, 10, &order, Some(8));
            require_eq!(a, b);
        }
        Ok(())
    });
}

/// Docs with signed raw weights (an index keeps only the positive ones)
/// and cluster lists as a caller may pass them: members in any order,
/// empty clusters, and docs no cluster covers (they land in the overflow
/// shard).
#[derive(Debug, Clone)]
struct Sharding {
    docs: Vec<SparseVector>,
    clusters: Vec<Vec<usize>>,
}

fn shardings() -> Gen<Sharding> {
    vecs(&sparse_entries(MAX_TERM, 6), 0, 80).flat_map(|entries| {
        let docs: Vec<SparseVector> = entries
            .iter()
            .map(|e| {
                SparseVector::from_entries(e.iter().map(|&(t, w)| (TermId(t as u32), w)).collect())
            })
            .collect();
        let n = docs.len();
        // Label k means "uncovered"; keys order each cluster's members.
        let k = 4;
        pairs(
            &pairs(&vecs(&usizes(0, k), n, n), &vecs(&usizes(0, 1000), n, n)),
            &usizes(0, k),
        )
        .map(move |((labels, keys), num_clusters)| {
            let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); *num_clusters];
            for (doc, &label) in labels.iter().enumerate() {
                if let Some(members) = clusters.get_mut(label) {
                    members.push(doc);
                }
            }
            for members in &mut clusters {
                members.sort_by_key(|&doc| (keys[doc], doc));
            }
            Sharding {
                docs: docs.clone(),
                clusters,
            }
        })
    })
}

/// The counting-sort build against a brute-force reference: one shard
/// per cluster plus an overflow shard when some doc is uncovered, and for
/// every (shard, term) the docs of that shard holding the term with a
/// positive weight, ascending; df, doc lengths and the fixed-chunk avgdl
/// sum as documented. Under Serial and Parallel.
#[test]
fn build_matches_brute_force_postings() {
    check!(CheckConfig::new(), shardings(), |s| {
        let n = s.docs.len();
        let mut shard_of = vec![s.clusters.len(); n];
        for (ci, members) in s.clusters.iter().enumerate() {
            for &m in members {
                shard_of[m] = ci;
            }
        }
        let shards = s.clusters.len() + usize::from(shard_of.contains(&s.clusters.len()));
        let positive = |doc: usize, term: u32| {
            let tf = s.docs[doc].get(TermId(term));
            (tf > 0.0).then_some(tf)
        };
        let doc_len: Vec<f64> = s
            .docs
            .iter()
            .map(|v| {
                v.entries()
                    .iter()
                    .filter(|&&(_, tf)| tf > 0.0)
                    .fold(0.0, |len, &(_, tf)| len + tf)
            })
            .collect();
        let avgdl = doc_len
            .chunks(64)
            .map(|c| c.iter().sum::<f64>())
            .reduce(|a, b| a + b)
            .map_or(0.0, |total| total / n as f64);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }] {
            let index = InvertedIndex::build(&s.docs, &s.clusters, policy, &Obs::default());
            require_eq!(index.num_docs(), n);
            require_eq!(index.num_shards(), shards);
            require_eq!(index.avgdl().to_bits(), avgdl.to_bits());
            for (doc, len) in doc_len.iter().enumerate() {
                require_eq!(index.doc_len(doc).to_bits(), len.to_bits());
            }
            let mut total = 0;
            for term in 0..=MAX_TERM as u32 {
                let mut df = 0;
                for shard in 0..=shards {
                    let expected: Vec<Posting> = (0..n)
                        .filter(|&doc| shard_of[doc] == shard)
                        .filter_map(|doc| {
                            positive(doc, term).map(|tf| Posting {
                                doc: doc as u32,
                                tf,
                            })
                        })
                        .collect();
                    require_eq!(index.postings(shard, TermId(term)), expected.as_slice());
                    df += expected.len();
                }
                require_eq!(index.df(TermId(term)) as usize, df);
                total += df;
            }
            require_eq!(index.num_postings(), total);
        }
        Ok(())
    });
}
