//! Term dictionary: interns stemmed terms into dense [`TermId`]s.
//!
//! The vector-space layer (`cafc-vsm`) keys sparse vectors by `TermId`
//! rather than `String`, which makes cosine computations integer-indexed
//! and keeps each term's bytes stored exactly once for the whole corpus.

use std::collections::HashMap;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interner mapping terms to dense ids, assigned in first-intern order.
/// [`TermDict::truncate`] can forget a suffix of them; ids below the cut
/// never change.
///
/// It also keeps a private memo for [`Analyzer`](crate::Analyzer): surface
/// token → the term id analysis gave it, or `None` when analysis dropped
/// it (a stopword, an empty stem, or a stem that is a stopword). Analysis
/// is a pure function of the token and the analyzer's
/// `(remove_stopwords, stem)` flags, so the memo holds for the flags that
/// filled it and is cleared when an analyzer with other flags calls in.
/// It only caches: ids and term order are those of analysing every token
/// afresh. The memo is never persisted; a dictionary rebuilt from its
/// terms starts with an empty one.
#[derive(Debug, Default, Clone)]
pub struct TermDict {
    by_term: HashMap<String, TermId>,
    terms: Vec<String>,
    memo: HashMap<Box<str>, Option<TermId>>,
    memo_flags: Option<(bool, bool)>,
}

impl TermDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        TermDict::default()
    }

    /// Intern `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("fewer than 4Gi distinct terms"));
        self.terms.push(term.to_owned());
        self.by_term.insert(term.to_owned(), id);
        id
    }

    /// Look up an id without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }

    /// Resolve an id back to its term.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Forget every term interned since the dictionary held `len` terms,
    /// with the analysis memo entries that name one, so a page rejected
    /// after its text was analysed leaves the ids of later terms unchanged.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.terms.len() {
            return;
        }
        for term in self.terms.drain(len..) {
            self.by_term.remove(&term);
        }
        self.memo
            .retain(|_, term| term.is_none_or(|id| id.index() < len));
    }

    /// Make the memo valid for analysis under `flags`
    /// (`(remove_stopwords, stem)`), clearing it if other flags filled it.
    pub(crate) fn memo_for(&mut self, flags: (bool, bool)) {
        if self.memo_flags != Some(flags) {
            self.memo.clear();
            self.memo_flags = Some(flags);
        }
    }

    /// The memoized analysis of `token`: `None` on a miss.
    pub(crate) fn memo_get(&self, token: &str) -> Option<Option<TermId>> {
        self.memo.get(token).copied()
    }

    /// Memoize the analysis of `token`.
    pub(crate) fn memo_put(&mut self, token: &str, term: Option<TermId>) {
        self.memo.insert(token.into(), term);
    }

    /// Iterate `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_str())) // ids assigned as u32 in intern
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern("flight");
        let b = d.intern("flight");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = TermDict::new();
        assert_eq!(d.intern("a"), TermId(0));
        assert_eq!(d.intern("b"), TermId(1));
        assert_eq!(d.intern("c"), TermId(2));
    }

    #[test]
    fn roundtrip() {
        let mut d = TermDict::new();
        let id = d.intern("hotel");
        assert_eq!(d.term(id), "hotel");
        assert_eq!(d.get("hotel"), Some(id));
        assert_eq!(d.get("missing"), None);
    }

    #[test]
    fn iter_in_order() {
        let mut d = TermDict::new();
        d.intern("x");
        d.intern("y");
        let got: Vec<_> = d.iter().map(|(id, t)| (id.0, t.to_owned())).collect();
        assert_eq!(got, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn truncate_forgets_later_terms() {
        let mut d = TermDict::new();
        d.intern("a");
        d.memo_for((true, true));
        let b = d.intern("b");
        d.memo_put("as", Some(b));
        d.memo_put("the", None);
        d.truncate(1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get("b"), None);
        assert_eq!(d.memo_get("as"), None);
        assert_eq!(d.memo_get("the"), Some(None));
        assert_eq!(d.intern("c"), TermId(1));
    }

    #[test]
    fn empty_dict() {
        let d = TermDict::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
