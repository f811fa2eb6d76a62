//! `cafc-check` property suite for the sparse vector-space math: cosine
//! symmetry and range (Equation 2), norm and centroid identities on
//! generated vectors (duplicate term ids, negative and zero weights
//! included), the scatter centroid against the pairwise fold it
//! replaced, the IDF behaviour behind the paper's noise suppression, and
//! the sorted-run term counts against the `HashMap` builder they replaced.
//! Runs offline on every commit.

use cafc_check::corpus::sparse_entries;
use cafc_check::gen::{bools, f64s, from_slice, one_of, pairs, usizes, vecs, Gen};
use cafc_check::{check, require, require_close, require_eq, CheckConfig};
use cafc_text::TermId;
use cafc_vsm::{weigh, CountsBuilder, DocumentFrequencies, IdfScheme, SparseVector, TfScheme};
use std::collections::HashMap;

fn vector() -> Gen<SparseVector> {
    sparse_entries(32, 12).map(|entries| {
        SparseVector::from_entries(
            entries
                .iter()
                .map(|&(t, w)| (TermId(t as u32), w))
                .collect(),
        )
    })
}

/// Cosine is exactly symmetric: the merge-join accumulates products in
/// term-id order for both argument orders.
#[test]
fn cosine_symmetric() {
    check!(CheckConfig::new(), pairs(&vector(), &vector()), |(a, b)| {
        let lr = a.cosine(b);
        let rl = b.cosine(a);
        require!(lr == rl, "cosine asymmetric: {lr} != {rl}");
        Ok(())
    });
}

/// Cosine is clamped into [0, 1] and always finite — even with negative
/// weights, empty vectors, or duplicate-id inputs.
#[test]
fn cosine_bounded() {
    check!(CheckConfig::new(), pairs(&vector(), &vector()), |(a, b)| {
        let c = a.cosine(b);
        require!(c.is_finite(), "cosine not finite: {c}");
        require!((0.0..=1.0).contains(&c), "cosine out of range: {c}");
        Ok(())
    });
}

/// A vector with positive norm is maximally similar to itself.
#[test]
fn self_cosine_is_one() {
    check!(CheckConfig::new(), vector(), |v: &SparseVector| {
        if v.norm() > 0.0 {
            require_close!(v.cosine(v), 1.0, 1e-12);
        } else {
            require_close!(v.cosine(v), 0.0, 1e-12);
        }
        Ok(())
    });
}

/// Norms are non-negative and finite, and scale linearly:
/// `‖c·v‖ = |c|·‖v‖`.
#[test]
fn norm_nonnegative_and_homogeneous() {
    check!(CheckConfig::new(), vector(), |v: &SparseVector| {
        let n = v.norm();
        require!(n.is_finite() && n >= 0.0, "norm {n}");
        let scaled = v.scale(-2.5);
        require_close!(scaled.norm(), 2.5 * n, 1e-9);
        Ok(())
    });
}

/// The centroid of a single vector is that vector.
#[test]
fn singleton_centroid_is_identity() {
    check!(CheckConfig::new(), vector(), |v: &SparseVector| {
        let c = SparseVector::centroid([v]);
        require!(
            c.entries().len() == v.entries().len(),
            "centroid changed support: {} != {}",
            c.entries().len(),
            v.entries().len()
        );
        for (&(ct, cw), &(vt, vw)) in c.entries().iter().zip(v.entries()) {
            require!(ct == vt, "term ids diverged");
            require_close!(cw, vw, 1e-12);
        }
        Ok(())
    });
}

/// Cosine against the zero/empty vector is zero, never NaN.
#[test]
fn empty_vector_cosine_is_zero() {
    check!(CheckConfig::new(), vector(), |v: &SparseVector| {
        let empty = SparseVector::empty();
        require_close!(v.cosine(&empty), 0.0, 0.0);
        require_close!(empty.cosine(v), 0.0, 0.0);
        Ok(())
    });
}

/// The pairwise fold [`SparseVector::sum`] replaced: every vector merged
/// into the running sum through [`SparseVector::add`], in order.
fn fold_sum(vectors: &[SparseVector]) -> SparseVector {
    vectors
        .iter()
        .fold(SparseVector::empty(), |sum, v| sum.add(v))
}

/// The pairwise-fold centroid [`SparseVector::centroid`] replaced.
fn fold_centroid(vectors: &[SparseVector]) -> SparseVector {
    if vectors.is_empty() {
        SparseVector::empty()
    } else {
        fold_sum(vectors).scale(1.0 / vectors.len() as f64)
    }
}

/// Entries with weights as bits, so `-0.0`, `0.0` and NaN all compare
/// exactly.
fn bits(v: &SparseVector) -> Vec<(u32, u64)> {
    v.entries()
        .iter()
        .map(|&(t, w)| (t.0, w.to_bits()))
        .collect()
}

/// Vectors built to stress the scatter: weights from a palette that
/// cancels to exactly 0.0 across members (±1, ±0.5, ±2.5) mixed with
/// arbitrary floats, term ids either in a small colliding range or far up
/// the id space, and sometimes a scale by 1e-200 that underflows the
/// ±1e-200 weights to stored ±0.0 entries.
fn member() -> Gen<SparseVector> {
    let term = one_of(&[usizes(0, 16), usizes(100_000, 100_008)]);
    let weight = one_of(&[
        from_slice(&[1.0, -1.0, 0.5, -0.5, 2.5, -2.5, 1e-200, -1e-200]),
        f64s(-5.0, 5.0),
    ]);
    pairs(&vecs(&pairs(&term, &weight), 0, 10), &bools()).map(|(entries, tiny)| {
        let v = SparseVector::from_entries(
            entries
                .iter()
                .map(|&(t, w)| (TermId(t as u32), w))
                .collect(),
        );
        if *tiny {
            v.scale(1e-200)
        } else {
            v
        }
    })
}

/// The scatter sum and centroid equal the pairwise fold bit for bit, for
/// empty, singleton and larger sets, including exact cancellations,
/// stored zeros and sparse high term ids.
#[test]
fn scatter_centroid_matches_pairwise_fold() {
    check!(CheckConfig::new(), vecs(&member(), 0, 6), |set| {
        require_eq!(bits(&SparseVector::sum(set)), bits(&fold_sum(set)));
        require_eq!(
            bits(&SparseVector::centroid(set)),
            bits(&fold_centroid(set))
        );
        Ok(())
    });
}

/// A term whose weights cancel exactly drops out of the sum, and comes
/// back at the next member's weight as is — the fold's semantics.
#[test]
fn cancelled_term_drops_out_and_returns() {
    let v = |w: f64| SparseVector::from_entries(vec![(TermId(3), w), (TermId(7), 1.0)]);
    let set = [v(1.0), v(-1.0), v(0.25)];
    let sum = SparseVector::sum(&set);
    assert_eq!(bits(&sum), bits(&fold_sum(&set)));
    assert_eq!(sum.get(TermId(3)), 0.25);
    assert_eq!(sum.get(TermId(7)), 3.0);
    let cancelled = SparseVector::sum(&set[..2]);
    assert_eq!(cancelled.entries(), &[(TermId(7), 2.0)]);
}

/// Construction leaves entries strictly sorted by term id, with no zero
/// or non-finite weights — the structural invariant every operation
/// relies on. The raw entries collide on a few term ids and draw weights
/// that cancel to exactly zero, are zero, or are not finite.
#[test]
fn entries_sorted_and_nonzero() {
    let weight = one_of(&[
        from_slice(&[1.0, -1.0, 0.5, -0.5, 0.0, f64::NAN, f64::INFINITY]),
        f64s(-5.0, 5.0),
    ]);
    let raw = vecs(&pairs(&usizes(0, 8), &weight), 0, 12);
    let vectors = raw.map(|entries| {
        SparseVector::from_entries(
            entries
                .iter()
                .map(|&(t, w)| (TermId(t as u32), w))
                .collect(),
        )
    });
    check!(CheckConfig::new(), vectors, |v: &SparseVector| {
        require!(
            v.entries().windows(2).all(|w| w[0].0 < w[1].0),
            "entries not strictly sorted: {:?}",
            v.entries()
        );
        require!(
            v.entries().iter().all(|&(_, w)| w != 0.0 && w.is_finite()),
            "zero or non-finite weight: {:?}",
            v.entries()
        );
        Ok(())
    });
}

/// The dot product distributes over addition: `(a+b)·c = a·c + b·c`.
#[test]
fn dot_distributes_over_add() {
    let triple = pairs(&pairs(&vector(), &vector()), &vector());
    check!(CheckConfig::new(), triple, |((a, b), c)| {
        require_close!(a.add(b).dot(c), a.dot(c) + b.dot(c), 1e-6);
        Ok(())
    });
}

/// Addition is commutative, bit for bit.
#[test]
fn add_commutes() {
    check!(CheckConfig::new(), pairs(&vector(), &vector()), |(a, b)| {
        require_eq!(bits(&a.add(b)), bits(&b.add(a)));
        Ok(())
    });
}

/// The centroid of `n` copies of `v` is `v`.
#[test]
fn centroid_of_copies_is_the_vector() {
    check!(CheckConfig::new(), pairs(&vector(), &usizes(1, 4)), |(
        v,
        n,
    )| {
        let c = SparseVector::centroid(std::iter::repeat_n(v, *n));
        require_eq!(c.nnz(), v.nnz());
        for (&(t1, w1), &(t2, w2)) in c.entries().iter().zip(v.entries()) {
            require_eq!(t1, t2);
            require_close!(w1, w2, 1e-9);
        }
        Ok(())
    });
}

/// IDF is non-negative and anti-monotone in document frequency: a term in
/// fewer documents weighs strictly more.
#[test]
fn idf_antimonotone_in_document_frequency() {
    let counts = pairs(&usizes(2, 39), &pairs(&usizes(1, 9), &usizes(10, 39)));
    check!(CheckConfig::new(), counts, |&(n_docs, (rare, common))| {
        let (rare, common) = (rare.min(n_docs), common.min(n_docs));
        let mut df = DocumentFrequencies::new();
        for d in 0..n_docs {
            let mut terms = Vec::new();
            if d < rare {
                terms.push(TermId(0));
            }
            if d < common {
                terms.push(TermId(1));
            }
            let mut doc = CountsBuilder::new();
            doc.add_all(terms, 1.0);
            df.add_counts(&doc);
        }
        require!(df.idf(TermId(0)) >= 0.0, "negative idf");
        if rare < common {
            require!(
                df.idf(TermId(0)) > df.idf(TermId(1)),
                "idf({rare} docs) <= idf({common} docs) of {n_docs}"
            );
        }
        Ok(())
    });
}

/// A term in every document vanishes from every TF-IDF vector regardless
/// of its raw frequency — the paper's noise-suppression mechanism.
#[test]
fn ubiquitous_term_vanishes() {
    check!(
        CheckConfig::new(),
        pairs(&f64s(1.0, 100.0), &usizes(2, 19)),
        |&(tf, n_docs)| {
            let mut df = DocumentFrequencies::new();
            let mut doc = CountsBuilder::new();
            doc.add_all([TermId(0), TermId(1)], 1.0);
            for _ in 0..n_docs {
                df.add_counts(&doc);
            }
            let mut counts = CountsBuilder::new();
            counts.add(TermId(0), tf);
            require!(counts.tf_idf(&df).is_empty(), "tf {tf} survived idf 0");
            Ok(())
        }
    );
}

/// The per-term `HashMap` accumulator `CountsBuilder` used before it
/// became one sorted run, kept as the reference the run must match bit
/// for bit: each term's weights are added from `0.0` in arrival order.
#[derive(Default)]
struct HashCounts {
    counts: HashMap<TermId, f64>,
}

impl HashCounts {
    fn add(&mut self, term: TermId, w: f64) {
        if w.is_finite() {
            *self.counts.entry(term).or_insert(0.0) += w;
        }
    }

    fn entries(&self) -> Vec<(TermId, f64)> {
        let mut entries: Vec<_> = self.counts.iter().map(|(&t, &w)| (t, w)).collect();
        entries.sort_by_key(|&(t, _)| t);
        entries
    }

    fn tf(&self) -> SparseVector {
        SparseVector::from_entries(self.counts.iter().map(|(&t, &w)| (t, w)).collect())
    }

    fn remap(&self, f: impl Fn(TermId) -> TermId) -> HashCounts {
        let mut out = HashCounts::default();
        for (&t, &w) in &self.counts {
            *out.counts.entry(f(t)).or_insert(0.0) += w;
        }
        out
    }

    /// `weigh` as it read over the `HashMap` builder.
    fn weigh(&self, df: &DocumentFrequencies, tf: TfScheme, idf: IdfScheme) -> SparseVector {
        let v = self.tf();
        let max_tf = v.entries().iter().map(|&(_, w)| w).fold(0.0f64, f64::max);
        SparseVector::from_entries(
            v.entries()
                .iter()
                .map(|&(t, w)| {
                    let tf = match tf {
                        TfScheme::Raw => w,
                        TfScheme::Log if w > 0.0 => 1.0 + w.ln(),
                        TfScheme::Binary if w > 0.0 => 1.0,
                        TfScheme::MaxNorm if max_tf > 0.0 => w / max_tf,
                        _ => 0.0,
                    };
                    (t, tf * idf.apply(df.num_docs(), df.doc_freq(t)))
                })
                .collect(),
        )
    }
}

/// `(term, weight, repeats)` occurrence groups: inexact weights, both
/// zeros, NaN, ±∞, overflow-prone magnitudes and long repeats.
fn occurrences() -> Gen<Vec<(TermId, f64)>> {
    let weight = one_of(&[
        from_slice(&[
            0.3,
            0.1,
            -0.0,
            0.0,
            0.5,
            1.0,
            2.0,
            -1.5,
            1e-300,
            1e308,
            -1e308,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]),
        f64s(-3.0, 3.0),
    ]);
    let group = pairs(&pairs(&usizes(0, 23), &weight), &usizes(1, 40));
    vecs(&group, 0, 24).map(|groups| {
        groups
            .iter()
            .flat_map(|&((t, w), n)| std::iter::repeat_n((TermId(t as u32), w), n))
            .collect()
    })
}

fn same_bits(a: &[(TermId, f64)], b: &[(TermId, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Sorted-run counts equal the `HashMap` reference bit for bit: the sums
/// and distinct ids, DF against a count of each reference's keys, `tf`,
/// `weigh` under every scheme pair, and a remap through an injective id
/// map.
#[test]
fn sorted_run_counts_match_hashmap_reference() {
    let docs = vecs(&occurrences(), 1, 4);
    check!(CheckConfig::new(), pairs(&docs, &usizes(0, 1000)), |(
        docs,
        shift,
    )| {
        let built: Vec<(CountsBuilder, HashCounts)> = docs
            .iter()
            .map(|occ| {
                let mut run = CountsBuilder::new();
                let mut reference = HashCounts::default();
                for &(t, w) in occ {
                    run.add(t, w);
                    reference.add(t, w);
                }
                run.fold();
                (run, reference)
            })
            .collect();
        let mut df = DocumentFrequencies::new();
        let mut reference_df: HashMap<TermId, u32> = HashMap::new();
        for (run, reference) in &built {
            df.add_counts(run);
            for &t in reference.counts.keys() {
                *reference_df.entry(t).or_insert(0) += 1;
            }
        }
        require_eq!(df.num_docs() as usize, built.len());
        for (run, reference) in &built {
            let expected = reference.entries();
            require!(same_bits(&run.entries(), &expected), "sums and ids differ");
            require_eq!(run.distinct_terms(), expected.len());
            for &(t, _) in &expected {
                require_eq!(df.doc_freq(t), reference_df[&t]);
            }
            require!(
                same_bits(run.tf().entries(), reference.tf().entries()),
                "tf differs"
            );
            for tf in [
                TfScheme::Raw,
                TfScheme::Log,
                TfScheme::Binary,
                TfScheme::MaxNorm,
            ] {
                for idf in [
                    IdfScheme::Plain,
                    IdfScheme::Smooth,
                    IdfScheme::Probabilistic,
                    IdfScheme::None,
                ] {
                    let got = weigh(run, &df, tf, idf);
                    // `df` equals the reference counts, checked above.
                    let want = reference.weigh(&df, tf, idf);
                    require!(
                        same_bits(got.entries(), want.entries())
                            && got.norm().to_bits() == want.norm().to_bits(),
                        "weigh({tf:?}, {idf:?}) differs"
                    );
                }
            }
            // An injective map that reverses the order of ids.
            let map = |t: TermId| TermId(1_000 + *shift as u32 - t.0);
            require!(
                same_bits(
                    &run.clone().remap(map).entries(),
                    &reference.remap(map).entries()
                ),
                "remap differs"
            );
        }
        Ok(())
    });
}
