//! Collection-level document frequencies and the IDF factor of Equation 1.
//!
//! The paper weights a term by `log(N / n_i)` where `N` is the number of
//! documents (form pages) in the collection and `n_i` is the number of
//! documents containing term *i*. Terms that occur in every document get an
//! IDF of zero — the paper's mechanism for suppressing web-generic noise
//! such as `privaci`, `shop`, `copyright`, `help` (§2.1).

use crate::counts::CountsBuilder;
use cafc_text::TermId;

/// Document-frequency table for a document collection.
#[derive(Debug, Clone, Default)]
pub struct DocumentFrequencies {
    /// `n_i` indexed by term id.
    doc_freq: Vec<u32>,
    /// `N`.
    num_docs: u32,
}

impl DocumentFrequencies {
    /// An empty table.
    pub fn new() -> Self {
        DocumentFrequencies::default()
    }

    /// Record one document: each distinct term of its counts once. Their
    /// ids are already sorted and distinct, so this is one pass with no
    /// sort. A term whose weights summed to zero still counts.
    pub fn add_counts(&mut self, counts: &CountsBuilder) {
        for &(term, _) in counts.folded().iter() {
            let idx = term.index();
            if idx >= self.doc_freq.len() {
                self.doc_freq.resize(idx + 1, 0);
            }
            self.doc_freq[idx] += 1;
        }
        self.num_docs += 1;
    }

    /// Number of documents recorded (`N`).
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// `n_i` for a term (0 for never-seen terms).
    pub fn doc_freq(&self, term: TermId) -> u32 {
        self.doc_freq.get(term.index()).copied().unwrap_or(0)
    }

    /// The IDF factor `log(N / n_i)` (natural log).
    ///
    /// Returns 0.0 for terms never seen in the collection (they carry no
    /// evidence) and 0.0 when the collection is empty. A term present in
    /// every document also gets exactly 0.0.
    pub fn idf(&self, term: TermId) -> f64 {
        let n_i = self.doc_freq(term);
        if n_i == 0 || self.num_docs == 0 {
            return 0.0;
        }
        (f64::from(self.num_docs) / f64::from(n_i)).ln()
    }

    /// Iterate `(term, n_i)` over all terms with non-zero document frequency.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, u32)> + '_ {
        self.doc_freq
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (TermId(i as u32), n)) // indices come from u32 TermIds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// Record one document holding `terms` (duplicates allowed).
    fn add(df: &mut DocumentFrequencies, terms: &[u32]) {
        let mut counts = CountsBuilder::new();
        counts.add_all(terms.iter().map(|&i| t(i)), 1.0);
        df.add_counts(&counts);
    }

    #[test]
    fn counts_distinct_terms_once_per_doc() {
        let mut df = DocumentFrequencies::new();
        add(&mut df, &[0, 0, 1]);
        add(&mut df, &[0]);
        assert_eq!(df.num_docs(), 2);
        assert_eq!(df.doc_freq(t(0)), 2);
        assert_eq!(df.doc_freq(t(1)), 1);
        assert_eq!(df.doc_freq(t(9)), 0);
    }

    #[test]
    fn idf_ubiquitous_term_is_zero() {
        let mut df = DocumentFrequencies::new();
        add(&mut df, &[0]);
        add(&mut df, &[0]);
        assert_eq!(df.idf(t(0)), 0.0);
    }

    #[test]
    fn idf_rare_term_is_positive() {
        let mut df = DocumentFrequencies::new();
        add(&mut df, &[0, 1]);
        add(&mut df, &[0]);
        add(&mut df, &[0]);
        let idf = df.idf(t(1));
        assert!((idf - (3.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn idf_unseen_term_is_zero() {
        let mut df = DocumentFrequencies::new();
        add(&mut df, &[0]);
        assert_eq!(df.idf(t(7)), 0.0);
    }

    #[test]
    fn idf_empty_collection_is_zero() {
        let df = DocumentFrequencies::new();
        assert_eq!(df.idf(t(0)), 0.0);
    }

    #[test]
    fn idf_monotone_in_rarity() {
        let mut df = DocumentFrequencies::new();
        add(&mut df, &[0, 1]);
        add(&mut df, &[0, 1]);
        add(&mut df, &[0]);
        add(&mut df, &[0]);
        assert!(df.idf(t(1)) > df.idf(t(0)));
    }

    #[test]
    fn iter_skips_zero() {
        let mut df = DocumentFrequencies::new();
        add(&mut df, &[2]);
        let got: Vec<_> = df.iter().collect();
        assert_eq!(got, vec![(t(2), 1)]);
    }
}
