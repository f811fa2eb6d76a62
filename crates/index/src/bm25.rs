//! Okapi BM25 scoring over location-weighted term frequencies.
//!
//! The corpus' "term frequency" is Equation 1's `Σ LOC_i` mass — a page
//! with *flights* twice in the title counts 4.0, not 2 — which BM25's
//! saturation handles exactly like an integer count. The idf is the
//! Lucene/ATIRE non-negative variant, so a term appearing in every
//! document contributes a small positive weight instead of a negative one
//! (the classic Robertson idf goes negative for `df > N/2`, which breaks
//! the score-monotonicity properties the check suite pins down).

/// The non-negative BM25 idf: `ln(1 + (N − df + ½)/(df + ½))`.
///
/// Strictly positive for every `df ≤ N` (the fraction is positive), and
/// strictly decreasing in `df` — rarer terms always weigh more. Finite for
/// every valid input because the fraction is finite and positive.
pub fn bm25_idf(num_docs: usize, df: u32) -> f64 {
    let n = num_docs as f64;
    let df = f64::from(df);
    (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
}

/// Term-frequency saturation: the conventional `k1 = 1.2`. Higher values
/// let repeated terms keep adding score for longer.
pub const K1: f64 = 1.2;

/// Length-normalization strength, the conventional `b = 0.75`: `0` would
/// ignore document length, `1` fully normalizes by `dl / avgdl`.
pub const B: f64 = 0.75;

/// One term's BM25 contribution:
/// `idf · tf·(K1+1) / (tf + K1·(1 − B + B·dl/avgdl))`.
///
/// With `tf > 0`, `idf > 0` and a non-degenerate collection the result
/// is finite and positive; an empty collection (`avgdl == 0`) skips
/// length normalization rather than dividing by zero.
pub fn score_term(tf: f64, idf: f64, doc_len: f64, avgdl: f64) -> f64 {
    let norm = if avgdl > 0.0 {
        1.0 - B + B * doc_len / avgdl
    } else {
        1.0
    };
    idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idf_is_positive_and_monotone() {
        let n = 1000;
        let mut prev = f64::INFINITY;
        for df in 1..=1000 {
            let idf = bm25_idf(n, df);
            assert!(idf > 0.0, "idf({df}) = {idf}");
            assert!(idf < prev, "idf must strictly decrease in df");
            prev = idf;
        }
    }

    #[test]
    fn score_saturates_in_tf() {
        let idf = bm25_idf(100, 3);
        let s1 = score_term(1.0, idf, 10.0, 10.0);
        let s2 = score_term(2.0, idf, 10.0, 10.0);
        let s100 = score_term(100.0, idf, 10.0, 10.0);
        assert!(s2 > s1, "more occurrences score higher");
        assert!(
            s100 < idf * (K1 + 1.0),
            "score is bounded by idf·(k1+1) regardless of tf"
        );
    }

    #[test]
    fn longer_documents_are_penalized() {
        let idf = bm25_idf(100, 3);
        let short = score_term(2.0, idf, 5.0, 10.0);
        let long = score_term(2.0, idf, 50.0, 10.0);
        assert!(short > long);
    }

    #[test]
    fn empty_collection_does_not_divide_by_zero() {
        let s = score_term(1.0, 1.0, 0.0, 0.0);
        assert!(s.is_finite());
    }
}
