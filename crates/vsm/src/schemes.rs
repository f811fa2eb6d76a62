//! TF and IDF weighting-scheme variants.
//!
//! Equation 1 uses raw TF and plain `log(N/n_i)` IDF. The IR literature
//! offers several alternatives; implementing them makes the paper's choice
//! an *ablation* rather than an assumption (bench `exp_tfidf_variants`).

use crate::counts::CountsBuilder;
use crate::df::DocumentFrequencies;
use crate::sparse::SparseVector;

/// Term-frequency transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TfScheme {
    /// Raw (location-weighted) frequency — the paper's choice.
    #[default]
    Raw,
    /// `1 + ln(tf)` — dampens very frequent terms.
    Log,
    /// 1 for any presence — pure set-of-words.
    Binary,
    /// `tf / max_tf` within the document.
    MaxNorm,
}

impl TfScheme {
    fn apply(self, tf: f64, max_tf: f64) -> f64 {
        match self {
            TfScheme::Raw => tf,
            TfScheme::Log => {
                if tf > 0.0 {
                    1.0 + tf.ln()
                } else {
                    0.0
                }
            }
            TfScheme::Binary => {
                if tf > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            TfScheme::MaxNorm => {
                if max_tf > 0.0 {
                    tf / max_tf
                } else {
                    0.0
                }
            }
        }
    }
}

/// Inverse-document-frequency transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdfScheme {
    /// `ln(N / n_i)` — the paper's choice; ubiquitous terms vanish.
    #[default]
    Plain,
    /// `ln(1 + N / n_i)` — ubiquitous terms keep a small weight.
    Smooth,
    /// `ln((N − n_i + 0.5) / (n_i + 0.5))`, floored at 0 — the BM25 form.
    Probabilistic,
    /// Constant 1 — no collection statistics at all.
    None,
}

impl IdfScheme {
    /// The IDF factor for a term with document frequency `n_i` out of `n`.
    pub fn apply(self, n: u32, n_i: u32) -> f64 {
        if n_i == 0 || n == 0 {
            return 0.0;
        }
        let (n, n_i) = (f64::from(n), f64::from(n_i));
        match self {
            IdfScheme::Plain => (n / n_i).ln(),
            IdfScheme::Smooth => (1.0 + n / n_i).ln(),
            IdfScheme::Probabilistic => ((n - n_i + 0.5) / (n_i + 0.5)).ln().max(0.0),
            IdfScheme::None => 1.0,
        }
    }
}

/// Build a document vector under the given schemes.
pub fn weigh(
    counts: &CountsBuilder,
    df: &DocumentFrequencies,
    tf_scheme: TfScheme,
    idf_scheme: IdfScheme,
) -> SparseVector {
    // The raw TF vector's entries: every summed weight but zero and
    // non-finite ones, as `CountsBuilder::tf` keeps.
    let sums = counts.folded();
    let tf = || {
        sums.iter()
            .copied()
            .filter(|&(_, w)| w.is_finite() && w != 0.0)
    };
    let max_tf = tf().map(|(_, w)| w).fold(0.0f64, f64::max);
    SparseVector::from_sorted(
        tf().map(|(t, w)| {
            (
                t,
                tf_scheme.apply(w, max_tf) * idf_scheme.apply(df.num_docs(), df.doc_freq(t)),
            )
        })
        .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_text::TermId;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn setup() -> (CountsBuilder, DocumentFrequencies) {
        let mut df = DocumentFrequencies::new();
        for terms in [vec![t(0), t(1)], vec![t(0)], vec![t(0)]] {
            let mut doc = CountsBuilder::new();
            doc.add_all(terms, 1.0);
            df.add_counts(&doc);
        }
        let mut b = CountsBuilder::new();
        b.add(t(0), 4.0);
        b.add(t(1), 1.0);
        (b, df)
    }

    #[test]
    fn raw_plain_matches_tf_idf() {
        let (b, df) = setup();
        let via_schemes = weigh(&b, &df, TfScheme::Raw, IdfScheme::Plain);
        let direct = b.tf_idf(&df);
        assert_eq!(via_schemes, direct);
    }

    #[test]
    fn binary_ignores_frequency() {
        let (b, df) = setup();
        let v = weigh(&b, &df, TfScheme::Binary, IdfScheme::None);
        assert_eq!(v.get(t(0)), 1.0);
        assert_eq!(v.get(t(1)), 1.0);
    }

    #[test]
    fn log_dampens() {
        let (b, df) = setup();
        let raw = weigh(&b, &df, TfScheme::Raw, IdfScheme::None);
        let log = weigh(&b, &df, TfScheme::Log, IdfScheme::None);
        // t0 has tf 4: log form 1+ln4 ≈ 2.39 < 4.
        assert!(log.get(t(0)) < raw.get(t(0)));
        assert!((log.get(t(0)) - (1.0 + 4.0f64.ln())).abs() < 1e-12);
        // tf 1 stays 1 under both.
        assert_eq!(log.get(t(1)), raw.get(t(1)));
    }

    #[test]
    fn maxnorm_scales_to_unit_max() {
        let (b, df) = setup();
        let v = weigh(&b, &df, TfScheme::MaxNorm, IdfScheme::None);
        assert_eq!(v.get(t(0)), 1.0);
        assert_eq!(v.get(t(1)), 0.25);
    }

    #[test]
    fn smooth_keeps_ubiquitous_terms() {
        let (b, df) = setup();
        // t0 is in all 3 documents: plain IDF kills it, smooth keeps it.
        let plain = weigh(&b, &df, TfScheme::Raw, IdfScheme::Plain);
        let smooth = weigh(&b, &df, TfScheme::Raw, IdfScheme::Smooth);
        assert_eq!(plain.get(t(0)), 0.0);
        assert!(smooth.get(t(0)) > 0.0);
    }

    #[test]
    fn probabilistic_floors_at_zero() {
        // n=3, n_i=3 -> ln(0.5/3.5) < 0 -> floored to 0.
        assert_eq!(IdfScheme::Probabilistic.apply(3, 3), 0.0);
        assert!(IdfScheme::Probabilistic.apply(100, 1) > 0.0);
    }

    #[test]
    fn idf_handles_empty_collection() {
        for scheme in [
            IdfScheme::Plain,
            IdfScheme::Smooth,
            IdfScheme::Probabilistic,
            IdfScheme::None,
        ] {
            assert_eq!(scheme.apply(0, 0), 0.0, "{scheme:?}");
            assert_eq!(scheme.apply(5, 0), 0.0, "{scheme:?}");
        }
    }
}
