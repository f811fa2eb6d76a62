//! Term dictionary: interns stemmed terms into dense [`TermId`]s.
//!
//! The vector-space layer (`cafc-vsm`) keys sparse vectors by `TermId`
//! rather than `String`, which makes cosine computations integer-indexed
//! and keeps each term's bytes stored exactly once for the whole corpus.

use std::collections::HashMap;
use std::sync::Arc;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interner mapping terms to dense ids, assigned in first-intern order;
/// it only appends, so an id never changes. Each term's bytes are one
/// shared allocation, which a clone of the dictionary shares (see
/// [`TermDict::shares_prefix`]).
///
/// It also keeps a private memo for [`Analyzer`](crate::Analyzer): surface
/// token → the term id analysis gave it, or `None` when analysis dropped
/// it (a stopword, an empty stem, or a stem that is a stopword). Analysis
/// is a pure function of the token, so the memo only caches: ids and term
/// order are those of analysing every token afresh. The memo is never
/// persisted; a dictionary rebuilt from its terms starts with an empty
/// one.
#[derive(Debug, Default, Clone)]
pub struct TermDict {
    by_term: HashMap<Arc<str>, TermId>,
    terms: Vec<Arc<str>>,
    memo: HashMap<Box<str>, Option<TermId>>,
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
        let term: Arc<str> = term.into();
        self.terms.push(Arc::clone(&term));
        self.by_term.insert(term, id);
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

    /// True when the first `len` terms of `self` are provably those of
    /// `other`: both hold term `len - 1` in the same allocation (vacuously
    /// true for `len == 0`). A dictionary only appends, and interning
    /// always allocates, so that allocation sits at id `len - 1` only in the
    /// dictionary that interned it and in its clones, which all share the
    /// ids before it.
    /// Both hold the allocation, so its address cannot be reused by another
    /// term meanwhile. O(1): one pointer comparison.
    pub fn shares_prefix(&self, other: &TermDict, len: usize) -> bool {
        let Some(last) = len.checked_sub(1) else {
            return true;
        };
        match (self.terms.get(last), other.terms.get(last)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
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
            .map(|(i, t)| (TermId(i as u32), &**t)) // ids assigned as u32 in intern
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
    fn clones_share_a_prefix_and_fresh_dictionaries_do_not() {
        let mut d = TermDict::new();
        d.intern("a");
        d.intern("b");
        let mut clone = d.clone();
        clone.intern("c");
        assert!(clone.shares_prefix(&d, 2));
        assert!(clone.shares_prefix(&d, 0));
        assert!(!clone.shares_prefix(&d, 3), "d has no third term");
        // The same terms interned afresh are other allocations.
        let mut fresh = TermDict::new();
        fresh.intern("a");
        fresh.intern("b");
        assert!(!fresh.shares_prefix(&d, 2));
    }

    #[test]
    fn empty_dict() {
        let d = TermDict::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
