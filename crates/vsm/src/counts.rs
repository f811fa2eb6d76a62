//! Location-weighted term-frequency accumulation — the `LOC_i × TF_i` part
//! of Equation 1.
//!
//! Each occurrence of a term is added with the weight of the location where
//! it occurred (e.g. 0.5 inside an `<option>`, 2.0 inside `<title>`). With
//! all weights at 1.0 this degenerates to plain term frequency, which is
//! exactly the §4.4 "uniform weights" ablation.
//!
//! Occurrences are appended to one run and [`CountsBuilder::fold`] sorts it
//! once, *stably* by term id, then sums each term's weights from `0.0` in
//! arrival order. That is the order a per-term `HashMap` accumulator adds
//! them in, so every sum has the same bits as one, for any weights.

use crate::df::DocumentFrequencies;
use crate::sparse::SparseVector;
use cafc_text::TermId;
use std::borrow::Cow;

/// Accumulates `Σ_occurrences loc_weight` per term for one document.
#[derive(Debug, Clone, Default)]
pub struct CountsBuilder {
    /// `(term, weight)` occurrences; one entry per term, sorted by term,
    /// when `folded`.
    entries: Vec<(TermId, f64)>,
    folded: bool,
}

impl CountsBuilder {
    /// An empty accumulator.
    pub fn new() -> Self {
        CountsBuilder::default()
    }

    /// Add one occurrence of `term` with the given location weight.
    pub fn add(&mut self, term: TermId, loc_weight: f64) {
        // A non-finite weight would poison every later sum for this term;
        // drop it at the door (SparseVector::from_entries double-checks).
        if !loc_weight.is_finite() {
            return;
        }
        self.entries.push((term, loc_weight));
        self.folded = false;
    }

    /// Add every term in `terms` with the same location weight.
    pub fn add_all<I>(&mut self, terms: I, loc_weight: f64)
    where
        I: IntoIterator<Item = TermId>,
    {
        for term in terms {
            self.add(term, loc_weight);
        }
    }

    /// Sort the occurrences stably by term and sum each term's weights, in
    /// place. Reads fold on the fly when this has not run since the last
    /// [`CountsBuilder::add`], so calling it only saves their work.
    pub fn fold(&mut self) {
        if !self.folded {
            fold_runs(&mut self.entries);
            self.folded = true;
        }
    }

    /// Each term's summed weight, ascending by term.
    pub(crate) fn folded(&self) -> Cow<'_, [(TermId, f64)]> {
        if self.folded {
            Cow::Borrowed(&self.entries)
        } else {
            let mut entries = self.entries.clone();
            fold_runs(&mut entries);
            Cow::Owned(entries)
        }
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct terms.
    pub fn distinct_terms(&self) -> usize {
        self.folded().len()
    }

    /// Rewrite every term id through `f`, merging counts when two ids map
    /// to the same target. Used when documents are tokenized against a
    /// chunk-local dictionary and later re-based onto the shared one, where
    /// `f` is injective and the rewrite is a gather and one sort.
    pub fn remap<F>(mut self, f: F) -> CountsBuilder
    where
        F: Fn(TermId) -> TermId,
    {
        self.fold();
        for entry in &mut self.entries {
            entry.0 = f(entry.0);
        }
        fold_runs(&mut self.entries);
        self
    }

    /// Lossless dump of the accumulated `(term, weight)` entries, sorted by
    /// term id. Unlike [`CountsBuilder::tf`] this keeps zero-weight entries
    /// (a term whose weights summed to 0.0 still contributes to document
    /// frequency), so `from_entries(b.entries())` reproduces `b` exactly —
    /// the checkpoint/resume path depends on that round trip for
    /// bit-identical IDF on resume.
    pub fn entries(&self) -> Vec<(TermId, f64)> {
        self.folded().into_owned()
    }

    /// Rebuild a builder from [`CountsBuilder::entries`] output. Weights
    /// are restored verbatim (they were finite when admitted by `add`).
    pub fn from_entries(entries: &[(TermId, f64)]) -> CountsBuilder {
        CountsBuilder {
            entries: entries.to_vec(),
            folded: entries.windows(2).all(|w| w[0].0 < w[1].0),
        }
    }

    /// The raw weighted-TF vector (no IDF).
    pub fn tf(&self) -> SparseVector {
        SparseVector::from_sorted(self.folded().into_owned())
    }

    /// The full Equation-1 vector: `w_i = (Σ LOC) × idf(i)` over this
    /// document's terms, using collection statistics `df`.
    pub fn tf_idf(&self, df: &DocumentFrequencies) -> SparseVector {
        SparseVector::from_sorted(
            self.folded()
                .iter()
                .map(|&(t, w)| (t, w * df.idf(t)))
                .collect(),
        )
    }
}

/// Stable-sort `entries` by term, then replace each term's run with one
/// entry holding its weights summed from `0.0` in run order. The vector is
/// shrunk to the distinct count: a page's counts wait for the chunk merge
/// alongside a whole shard's pages, and should not hold their occurrence
/// run's capacity meanwhile.
fn fold_runs(entries: &mut Vec<(TermId, f64)>) {
    entries.sort_by_key(|&(t, _)| t);
    let mut out = 0;
    let mut i = 0;
    while i < entries.len() {
        let term = entries[i].0;
        let mut sum = 0.0;
        while i < entries.len() && entries[i].0 == term {
            sum += entries[i].1;
            i += 1;
        }
        entries[out] = (term, sum);
        out += 1;
    }
    entries.truncate(out);
    entries.shrink_to_fit();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn accumulates_weighted_occurrences() {
        let mut b = CountsBuilder::new();
        b.add(t(0), 1.0);
        b.add(t(0), 0.5);
        b.add(t(1), 2.0);
        let tf = b.tf();
        assert_eq!(tf.get(t(0)), 1.5);
        assert_eq!(tf.get(t(1)), 2.0);
        assert_eq!(b.distinct_terms(), 2);
    }

    #[test]
    fn add_all_shares_weight() {
        let mut b = CountsBuilder::new();
        b.add_all(vec![t(0), t(1), t(0)], 0.5);
        assert_eq!(b.tf().get(t(0)), 1.0);
        assert_eq!(b.tf().get(t(1)), 0.5);
    }

    #[test]
    fn tfidf_zeroes_ubiquitous_terms() {
        let mut df = DocumentFrequencies::new();
        for terms in [vec![t(0), t(1)], vec![t(0)]] {
            let mut doc = CountsBuilder::new();
            doc.add_all(terms, 1.0);
            df.add_counts(&doc);
        }

        let mut b = CountsBuilder::new();
        b.add(t(0), 3.0); // in every doc -> idf 0 -> dropped
        b.add(t(1), 1.0); // in half the docs -> positive weight
        let v = b.tf_idf(&df);
        assert_eq!(v.get(t(0)), 0.0);
        assert!(v.get(t(1)) > 0.0);
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn empty_builder_empty_vector() {
        let b = CountsBuilder::new();
        assert!(b.is_empty());
        assert!(b.tf().is_empty());
        assert!(b.tf_idf(&DocumentFrequencies::new()).is_empty());
    }

    #[test]
    fn remap_rewrites_and_merges() {
        let mut b = CountsBuilder::new();
        b.add(t(0), 1.0);
        b.add(t(1), 2.0);
        b.add(t(2), 4.0);
        // 0 and 2 collapse onto the same id; 1 moves.
        let b = b.remap(|id| match id.0 {
            0 | 2 => t(0),
            _ => t(11),
        });
        assert_eq!(b.distinct_terms(), 2);
        assert_eq!(b.tf().get(t(0)), 5.0);
        assert_eq!(b.tf().get(t(11)), 2.0);
    }

    #[test]
    fn entries_round_trip_losslessly() {
        let mut b = CountsBuilder::new();
        b.add(t(9), 2.5);
        b.add(t(1), 1.0);
        b.add(t(4), -1.0);
        b.add(t(4), 1.0); // sums to exactly 0.0 — must survive the round trip
        let entries = b.entries();
        assert_eq!(
            entries.iter().map(|&(t, _)| t.0).collect::<Vec<_>>(),
            vec![1, 4, 9],
            "entries are sorted by term id"
        );
        let restored = CountsBuilder::from_entries(&entries);
        assert_eq!(restored.entries(), entries);
        assert_eq!(restored.distinct_terms(), 3, "zero-weight entry kept");
    }

    #[test]
    fn term_ids_are_distinct() {
        let mut b = CountsBuilder::new();
        b.add(t(3), 1.0);
        b.add(t(3), 1.0);
        b.add(t(5), 1.0);
        let ids: Vec<TermId> = b.entries().iter().map(|&(t, _)| t).collect();
        assert_eq!(ids, vec![t(3), t(5)]);
    }
}
