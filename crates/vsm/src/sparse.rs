//! Sparse term vectors sorted by [`TermId`].
//!
//! The invariant — entries strictly sorted by term id, no zero weights — is
//! maintained by construction, which lets [`SparseVector::dot`] run as a
//! linear merge and keeps cosine similarity O(nnz(a) + nnz(b)).
//!
//! A vector never changes once built, so its entries live in one
//! reference-counted allocation: a clone shares them. Cloning a corpus, or
//! handing its vectors to a search index, copies a pointer per vector,
//! never the entries.

use cafc_text::TermId;
use std::sync::Arc;

/// An immutable sparse vector over term ids.
///
/// Equality, `Debug` and [`SparseVector::heap_bytes`] read the entries, so
/// a clone compares, prints and counts as the vector it shares them with.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    /// `(term, weight)` entries, strictly sorted by term; weights non-zero.
    entries: Arc<[(TermId, f64)]>,
    /// Euclidean norm of `entries`, computed once at construction.
    norm: f64,
}

impl Default for SparseVector {
    fn default() -> Self {
        SparseVector::new(Arc::new([]))
    }
}

impl SparseVector {
    /// The empty vector.
    pub fn empty() -> Self {
        SparseVector::default()
    }

    /// Freeze `entries` (already in canonical form), computing the norm
    /// once: the vector is immutable, so every later [`SparseVector::norm`]
    /// is this one fold's bits. Entries collected straight into the `Arc`
    /// from an iterator of known length are written once; a `Vec` is
    /// copied.
    fn new(entries: Arc<[(TermId, f64)]>) -> Self {
        let norm = entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        SparseVector { entries, norm }
    }

    /// Build from entries that may be unsorted and may repeat term ids;
    /// repeated ids are summed, zero (and non-finite) results dropped.
    pub fn from_entries(mut entries: Vec<(TermId, f64)>) -> Self {
        entries.retain(|(_, w)| w.is_finite());
        entries.sort_unstable_by_key(|&(t, _)| t);
        let mut merged: Vec<(TermId, f64)> = Vec::with_capacity(entries.len());
        for (t, w) in entries {
            match merged.last_mut() {
                Some((last_t, last_w)) if *last_t == t => *last_w += w,
                _ => merged.push((t, w)),
            }
        }
        merged.retain(|(_, w)| *w != 0.0);
        SparseVector::new(merged.into())
    }

    /// Build from entries already strictly sorted by term id, dropping zero
    /// and non-finite weights: [`SparseVector::from_entries`] without its
    /// sort and merge. The entries are stored exactly, with no spare
    /// capacity, since a corpus keeps its vectors for its whole life.
    pub(crate) fn from_sorted(mut entries: Vec<(TermId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        entries.retain(|&(_, w)| w.is_finite() && w != 0.0);
        SparseVector::new(entries.into())
    }

    /// Entries, strictly sorted by term id.
    pub fn entries(&self) -> &[(TermId, f64)] {
        &self.entries
    }

    /// True when `self` and `other` share one allocation of entries: one
    /// is a clone of the other, or both are clones of a third. Such vectors
    /// are equal, norm included, since a vector never changes.
    pub fn shares_entries(&self, other: &SparseVector) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight of `term` (0.0 when absent).
    pub fn get(&self, term: TermId) -> f64 {
        match self.entries.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Dot product by linear merge.
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (a, b) = (self.entries(), other.entries());
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < a.len() && j < b.len() {
            let (ta, wa) = a[i];
            let (tb, wb) = b[j];
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm, computed once when the vector was built.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Cosine similarity (Equation 2). Zero when either vector is empty.
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm * other.norm;
        if denom == 0.0 {
            return 0.0;
        }
        // Clamp to [0,1]: floating rounding can nudge identical vectors to
        // 1.0000000000000002, which would break distance computations.
        (self.dot(other) / denom).clamp(0.0, 1.0)
    }

    /// Scale every weight by `factor`.
    pub fn scale(&self, factor: f64) -> SparseVector {
        if factor == 0.0 {
            return SparseVector::empty();
        }
        SparseVector::new(self.entries.iter().map(|&(t, w)| (t, w * factor)).collect())
    }

    /// Element-wise sum.
    pub fn add(&self, other: &SparseVector) -> SparseVector {
        let (a, b) = (self.entries(), other.entries());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ta, wa) = a[i];
            let (tb, wb) = b[j];
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => {
                    out.push((ta, wa));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push((tb, wb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let w = wa + wb;
                    if w != 0.0 {
                        out.push((ta, w));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        SparseVector::new(out.into())
    }

    /// The element-wise sum of a set of vectors (empty for an empty set).
    ///
    /// Bit-identical to folding the vectors left to right through
    /// [`SparseVector::add`], in one scatter pass: each term's weights are
    /// added in the same order, a term whose running sum is exactly zero
    /// drops out until its next weight, and a weight meeting an absent term
    /// is taken as is. Costs O(Σ nnz + touched · log touched) plus a slot
    /// per term id up to the largest one present, where the fold costs
    /// O(members × nnz(sum)).
    pub fn sum<'a, I>(vectors: I) -> SparseVector
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        let mut sums: Vec<f64> = Vec::new();
        let mut present: Vec<bool> = Vec::new();
        let mut touched: Vec<TermId> = Vec::new();
        for v in vectors {
            if let Some(&(last, _)) = v.entries.last() {
                if last.index() >= present.len() {
                    sums.resize(last.index() + 1, 0.0);
                    present.resize(last.index() + 1, false);
                }
            }
            for &(t, w) in v.entries() {
                let i = t.index();
                if present[i] {
                    let s = sums[i] + w;
                    if s != 0.0 {
                        sums[i] = s;
                    } else {
                        present[i] = false;
                    }
                } else {
                    sums[i] = w;
                    present[i] = true;
                    touched.push(t);
                }
            }
        }
        // A term that cancelled out and came back was pushed twice.
        touched.sort_unstable();
        touched.dedup();
        touched.retain(|t| present[t.index()]);
        SparseVector::new(touched.iter().map(|&t| (t, sums[t.index()])).collect())
    }

    /// The centroid (arithmetic mean, Equation 4) of a set of vectors:
    /// their [`SparseVector::sum`] scaled by `1 / n`. Returns the empty
    /// vector for an empty set.
    pub fn centroid<'a, I>(vectors: I) -> SparseVector
    where
        I: IntoIterator<Item = &'a SparseVector>,
    {
        let mut n = 0usize;
        let sum = SparseVector::sum(vectors.into_iter().inspect(|_| n += 1));
        if n == 0 {
            SparseVector::empty()
        } else {
            sum.scale(1.0 / n as f64)
        }
    }

    /// Estimated heap footprint of this vector in bytes: one
    /// `(TermId, f64)` entry per non-zero term. Deterministic (a function
    /// of `nnz` alone, not of allocator capacity), so memory-budget
    /// accounting built on it is reproducible across runs and policies.
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(TermId, f64)>()
    }

    /// The `k` highest-weighted terms, descending by weight (ties by id).
    pub fn top_terms(&self, k: usize) -> Vec<(TermId, f64)> {
        let mut v = self.entries.to_vec();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn vec_of(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(i, w)| (t(i), w)).collect())
    }

    #[test]
    fn from_entries_sorts_and_merges() {
        let v = vec_of(&[(3, 1.0), (1, 2.0), (3, 4.0)]);
        assert_eq!(v.entries(), &[(t(1), 2.0), (t(3), 5.0)]);
    }

    #[test]
    fn zero_weights_dropped() {
        let v = vec_of(&[(1, 1.0), (1, -1.0), (2, 0.0)]);
        assert!(v.is_empty());
    }

    #[test]
    fn non_finite_dropped() {
        let v = vec_of(&[(1, f64::NAN), (2, f64::INFINITY), (3, 1.0)]);
        assert_eq!(v.entries(), &[(t(3), 1.0)]);
    }

    #[test]
    fn get_present_and_absent() {
        let v = vec_of(&[(1, 2.0), (5, 3.0)]);
        assert_eq!(v.get(t(1)), 2.0);
        assert_eq!(v.get(t(5)), 3.0);
        assert_eq!(v.get(t(3)), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = vec_of(&[(1, 1.0), (2, 2.0), (4, 3.0)]);
        let b = vec_of(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
    }

    #[test]
    fn dot_disjoint_is_zero() {
        let a = vec_of(&[(1, 1.0)]);
        let b = vec_of(&[(2, 1.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn norm() {
        let v = vec_of(&[(1, 3.0), (2, 4.0)]);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(SparseVector::empty().norm(), 0.0);
    }

    #[test]
    fn stored_norm_is_the_fold_of_the_entries() {
        let fold = |v: &SparseVector| v.entries().iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        let a = vec_of(&[(1, 0.3), (4, 1.7), (9, 2.5)]);
        let b = vec_of(&[(4, -1.7), (5, 0.1)]);
        for v in [
            SparseVector::empty(),
            SparseVector::default(),
            a.clone(),
            a.scale(0.37),
            a.add(&b),
            SparseVector::sum([&a, &b]),
            SparseVector::centroid([&a, &b, &a]),
        ] {
            assert_eq!(v.norm().to_bits(), fold(&v).to_bits(), "{v:?}");
        }
    }

    #[test]
    fn cosine_identical_is_one() {
        let v = vec_of(&[(1, 0.3), (7, 1.9), (9, 0.01)]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = vec_of(&[(1, 1.0)]);
        let b = vec_of(&[(2, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_empty_is_zero() {
        let a = vec_of(&[(1, 1.0)]);
        assert_eq!(a.cosine(&SparseVector::empty()), 0.0);
        assert_eq!(SparseVector::empty().cosine(&SparseVector::empty()), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = vec_of(&[(1, 1.0), (2, 2.0)]);
        let b = a.scale(42.0);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_merges() {
        let a = vec_of(&[(1, 1.0), (2, 1.0)]);
        let b = vec_of(&[(2, 1.0), (3, 1.0)]);
        assert_eq!(
            a.add(&b).entries(),
            &[(t(1), 1.0), (t(2), 2.0), (t(3), 1.0)]
        );
    }

    #[test]
    fn add_cancelling_removes_entry() {
        let a = vec_of(&[(1, 1.0)]);
        let b = vec_of(&[(1, -1.0)]);
        assert!(a.add(&b).is_empty());
    }

    #[test]
    fn centroid_of_two() {
        let a = vec_of(&[(1, 2.0)]);
        let b = vec_of(&[(1, 4.0), (2, 2.0)]);
        let c = SparseVector::centroid([&a, &b]);
        assert_eq!(c.entries(), &[(t(1), 3.0), (t(2), 1.0)]);
    }

    #[test]
    fn centroid_of_none_is_empty() {
        assert!(SparseVector::centroid(std::iter::empty()).is_empty());
    }

    #[test]
    fn top_terms_ordering() {
        let v = vec_of(&[(1, 0.5), (2, 3.0), (3, 3.0), (4, 1.0)]);
        let top = v.top_terms(3);
        assert_eq!(top, vec![(t(2), 3.0), (t(3), 3.0), (t(4), 1.0)]);
    }

    #[test]
    fn scale_by_zero_is_empty() {
        let v = vec_of(&[(1, 1.0)]);
        assert!(v.scale(0.0).is_empty());
    }

    #[test]
    fn clones_share_entries_and_read_as_the_original() {
        let v = vec_of(&[(1, 0.5), (4, 2.0), (9, -1.25)]);
        let copy = v.clone();
        assert!(copy.shares_entries(&v));
        assert_eq!(copy, v);
        assert_eq!(format!("{copy:?}"), format!("{v:?}"));
        assert_eq!(copy.heap_bytes(), v.heap_bytes());
        assert_eq!(copy.norm().to_bits(), v.norm().to_bits());
        // An equal vector built on its own has its own entries.
        let rebuilt = vec_of(&[(1, 0.5), (4, 2.0), (9, -1.25)]);
        assert_eq!(rebuilt, v);
        assert!(!rebuilt.shares_entries(&v));
        // The printed form is the entry list's, as when it was a `Vec`.
        assert_eq!(
            format!("{v:?}"),
            format!(
                "SparseVector {{ entries: {:?}, norm: {:?} }}",
                v.entries().to_vec(),
                v.norm()
            )
        );
    }

    #[test]
    fn heap_bytes_tracks_nnz_only() {
        assert_eq!(SparseVector::empty().heap_bytes(), 0);
        let v = vec_of(&[(1, 1.0), (2, 2.0), (9, 0.5)]);
        assert_eq!(v.heap_bytes(), 3 * std::mem::size_of::<(TermId, f64)>());
        // Construction path must not change the estimate: merged duplicates
        // and dropped zeros count once and zero times respectively.
        let merged = vec_of(&[(1, 1.0), (1, 2.0), (2, 0.0)]);
        assert_eq!(merged.heap_bytes(), std::mem::size_of::<(TermId, f64)>());
    }
}
