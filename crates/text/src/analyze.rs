//! The analysis pipeline: tokenize → stopword-filter → stem → intern.

use crate::dict::{TermDict, TermId};
use crate::stem::stem;
use crate::stopwords::is_stopword;
use crate::tokenize::for_each_token;
use std::ops::ControlFlow;

/// The paper's text analysis (§2.1): tokens of 2–30 characters that are
/// not all digits, stopwords removed, every word Porter-stemmed. It has no
/// options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer;

impl Analyzer {
    /// Analyze `text` into a sequence of interned term ids (with repeats —
    /// term frequency is computed downstream).
    pub fn analyze(&self, text: &str, dict: &mut TermDict) -> Vec<TermId> {
        let mut out = Vec::new();
        self.analyze_into(text, dict, &mut out);
        out
    }

    /// Like [`Analyzer::analyze`] but appends into a reusable buffer,
    /// avoiding per-call allocation in the corpus-scale loops.
    pub fn analyze_into(&self, text: &str, dict: &mut TermDict, out: &mut Vec<TermId>) {
        self.analyze_into_budget(text, dict, out, usize::MAX);
    }

    /// Like [`Analyzer::analyze_into`], but `out` never grows past
    /// `budget` terms. Returns `true` when the budget cut the analysis
    /// short: a term was left out for want of room, and was not interned,
    /// so entity bombs and megabyte attribute dumps yield bounded work and
    /// bounded dictionaries. Tokens that analysis drops (stopwords) never
    /// trip the budget. A `budget` of `usize::MAX` never trims.
    ///
    /// Each distinct surface token is analysed once per dictionary (see
    /// the memo on [`TermDict`]); a repeat costs one lookup.
    pub fn analyze_into_budget(
        &self,
        text: &str,
        dict: &mut TermDict,
        out: &mut Vec<TermId>,
        budget: usize,
    ) -> bool {
        for_each_token(text, |token| {
            let id = match dict.memo_get(token) {
                Some(Some(id)) => id,
                Some(None) => return ControlFlow::Continue(()),
                None => {
                    let Some(term) = term(token) else {
                        dict.memo_put(token, None);
                        return ControlFlow::Continue(());
                    };
                    if out.len() >= budget {
                        return ControlFlow::Break(());
                    }
                    let id = dict.intern(&term);
                    dict.memo_put(token, Some(id));
                    id
                }
            };
            if out.len() >= budget {
                return ControlFlow::Break(());
            }
            out.push(id);
            ControlFlow::Continue(())
        })
        .is_break()
    }

    /// Analyze into plain strings (for debugging and golden tests).
    pub fn analyze_to_strings(&self, text: &str) -> Vec<String> {
        let mut dict = TermDict::new();
        self.analyze(text, &mut dict)
            .into_iter()
            .map(|id| dict.term(id).to_owned())
            .collect()
    }
}

/// The term `token` analyses to, or `None` when analysis drops it.
fn term(token: &str) -> Option<String> {
    if is_stopword(token) {
        return None;
    }
    let term = stem(token);
    // Stemming can collapse a content word onto a stopword ("ares"
    // -> "are"); filter again post-stem so no stopword survives.
    if term.is_empty() || is_stopword(&term) {
        return None;
    }
    Some(term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline() {
        let a = Analyzer;
        assert_eq!(
            a.analyze_to_strings("Searching for the cheapest flights to Paris!"),
            vec!["search", "cheapest", "flight", "pari"]
        );
    }

    #[test]
    fn repeats_preserved_for_tf() {
        let a = Analyzer;
        let mut dict = TermDict::new();
        let ids = a.analyze("book books booking", &mut dict);
        // book, book, book — stem collapses all three to the same id.
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn shared_dict_across_documents() {
        let a = Analyzer;
        let mut dict = TermDict::new();
        let d1 = a.analyze("cheap flights", &mut dict);
        let d2 = a.analyze("flights to denver", &mut dict);
        // "flight" got the same id in both documents.
        assert!(d1.iter().any(|id| d2.contains(id)));
    }

    #[test]
    fn empty_text() {
        let a = Analyzer;
        let mut dict = TermDict::new();
        assert!(a.analyze("", &mut dict).is_empty());
        assert!(a.analyze("   !!!   ", &mut dict).is_empty());
    }

    #[test]
    fn budget_trims_and_reports() {
        let a = Analyzer;
        let mut dict = TermDict::new();
        let mut out = Vec::new();
        let trimmed =
            a.analyze_into_budget("cheap flights to sunny lisbon", &mut dict, &mut out, 2);
        assert!(trimmed);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn budget_large_enough_matches_unbounded() {
        let a = Analyzer;
        let mut dict = TermDict::new();
        let mut budgeted = Vec::new();
        let trimmed = a.analyze_into_budget(
            "cheap flights to denver",
            &mut dict,
            &mut budgeted,
            usize::MAX,
        );
        assert!(!trimmed);
        let mut dict2 = TermDict::new();
        let plain = a.analyze("cheap flights to denver", &mut dict2);
        assert_eq!(budgeted.len(), plain.len());
    }
}
