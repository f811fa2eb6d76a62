//! The hardened ingestion layer: typed outcomes for every page fed to the
//! model, instead of panics or silent misfeatures.
//!
//! CAFC clusters *arbitrary* form pages scraped off the open web; the
//! paper's 454-page corpus is exactly the kind of messy HTML (unterminated
//! tags, bogus entities, nested forms) that breaks naive pipelines. This
//! module defines the contract the pipeline keeps on hostile input:
//!
//! * **no input byte sequence panics** — structural hazards are capped
//!   (parse depth, node count, term budget) or rejected up front (hard
//!   size limit);
//! * **every page is accounted for** — each input page gets exactly one
//!   [`PageOutcome`]: `Ok`, `Degraded` (kept, with the applied fallbacks
//!   listed), or `Quarantined` (excluded, with the reason). The identity
//!   `ok + degraded + quarantined == total` always holds; see
//!   [`IngestReport::is_accounted`].
//!
//! The signals are produced where the hazard lives — `cafc_html` reports
//! parse caps and control-character stripping, `cafc_text` reports term
//! budget trims, `cafc_vsm` drops non-finite weights — and mapped onto
//! this shared taxonomy here. DESIGN.md §8 documents the full matrix.

use std::fmt;

/// Why a page was rejected outright (excluded from the corpus).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The raw document exceeds the hard size limit; parsing it would be
    /// a resource attack, not ingestion.
    TooLarge {
        /// Actual size of the input.
        bytes: usize,
        /// The configured hard limit it exceeded.
        limit: usize,
    },
    /// No analyzable text survived parsing — an all-markup, all-control or
    /// empty document vectorizes to zero everywhere and would only add
    /// degenerate points to the cluster space.
    EmptyDocument,
    /// Keeping this page's vectors would push the corpus past its
    /// configured memory budget ([`IngestLimits::max_corpus_bytes`]). The
    /// page is excluded so a 10^6-page build degrades predictably — later
    /// pages quarantined, accounting intact — instead of OOMing.
    BudgetExhausted {
        /// Estimated bytes this page's kept vectors would have added.
        needed: usize,
        /// The configured corpus budget that was exhausted.
        budget: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::TooLarge { bytes, limit } => {
                write!(f, "document of {bytes} bytes exceeds hard limit {limit}")
            }
            IngestError::EmptyDocument => write!(f, "no analyzable text"),
            IngestError::BudgetExhausted { needed, budget } => {
                write!(
                    f,
                    "corpus memory budget exhausted: page needs {needed} bytes \
                     against budget {budget}"
                )
            }
        }
    }
}

/// A fallback the pipeline applied while keeping the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradedReason {
    /// Input exceeded the soft size limit and was truncated to it.
    InputTruncated,
    /// Disallowed control characters were stripped before tokenizing.
    ControlCharsStripped,
    /// Element nesting hit the parser's depth cap; deeper elements were
    /// reparented at the cap.
    DepthCapped,
    /// The per-page term budget cut text analysis short.
    TermBudgetExceeded,
    /// The page has no `<title>` text, so the model's strongest location
    /// signal is absent.
    MissingTitle,
    /// The page contributed no form-content terms; its FC vector is empty
    /// and only PC similarity can place it.
    NoFormContent,
}

impl DegradedReason {
    /// All reasons, for exhaustive reporting tables.
    pub const ALL: [DegradedReason; 6] = [
        DegradedReason::InputTruncated,
        DegradedReason::ControlCharsStripped,
        DegradedReason::DepthCapped,
        DegradedReason::TermBudgetExceeded,
        DegradedReason::MissingTitle,
        DegradedReason::NoFormContent,
    ];

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DegradedReason::InputTruncated => "input-truncated",
            DegradedReason::ControlCharsStripped => "control-chars-stripped",
            DegradedReason::DepthCapped => "depth-capped",
            DegradedReason::TermBudgetExceeded => "term-budget-exceeded",
            DegradedReason::MissingTitle => "missing-title",
            DegradedReason::NoFormContent => "no-form-content",
        }
    }

    /// The `ingest.degraded.<label>` counter that counts pages degraded
    /// for this reason.
    pub(crate) fn counter_name(self) -> &'static str {
        match self {
            DegradedReason::InputTruncated => "ingest.degraded.input-truncated",
            DegradedReason::ControlCharsStripped => "ingest.degraded.control-chars-stripped",
            DegradedReason::DepthCapped => "ingest.degraded.depth-capped",
            DegradedReason::TermBudgetExceeded => "ingest.degraded.term-budget-exceeded",
            DegradedReason::MissingTitle => "ingest.degraded.missing-title",
            DegradedReason::NoFormContent => "ingest.degraded.no-form-content",
        }
    }
}

/// Per-page ingestion outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum PageOutcome {
    /// Vectorized cleanly.
    Ok,
    /// Kept, but one or more fallbacks applied (sorted, deduplicated).
    Degraded {
        /// The fallbacks that were applied.
        reasons: Vec<DegradedReason>,
    },
    /// Excluded from the corpus.
    Quarantined {
        /// Why the page was rejected.
        error: IngestError,
    },
}

impl PageOutcome {
    /// True unless quarantined.
    pub fn is_kept(&self) -> bool {
        !matches!(self, PageOutcome::Quarantined { .. })
    }
}

/// Structural limits applied during ingestion.
///
/// Construct with [`IngestLimits::default`] plus the chainable `with_*`
/// setters; the struct is `#[non_exhaustive]` so future limits are not
/// breaking changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestLimits {
    /// Documents larger than this are quarantined unparsed.
    pub hard_max_bytes: usize,
    /// Documents larger than this (but under the hard limit) are truncated
    /// to it and marked degraded.
    pub soft_max_bytes: usize,
    /// Maximum analyzed terms per page across all text runs; the rest of
    /// the page is ignored and the page marked degraded.
    pub max_terms: usize,
    /// Pages per ingestion work unit (shard). Fixed up front — never
    /// derived from the thread count — so chunk boundaries are identical
    /// under every execution policy; and because the shard merge re-bases
    /// term ids in input order, the built corpus is bit-identical under
    /// **any** value of this knob (the shard-merge invariance contract,
    /// DESIGN.md §17). Larger shards amortize per-chunk overhead at
    /// 10^5–10^6 pages; clamped to ≥ 1 at use sites.
    pub shard_pages: usize,
    /// Memory budget in bytes for the kept per-page vector entries
    /// (estimated at 16 bytes per distinct PC/FC term; the shared term
    /// dictionary is excluded — it is needed either way for term-id
    /// stability). Pages whose vectors would exceed the budget are
    /// quarantined with [`IngestError::BudgetExhausted`], in input order,
    /// so an oversized build degrades predictably instead of OOMing.
    /// Default: unlimited.
    pub max_corpus_bytes: usize,
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits {
            hard_max_bytes: 16 * 1024 * 1024,
            soft_max_bytes: 1024 * 1024,
            max_terms: 200_000,
            shard_pages: 16,
            max_corpus_bytes: usize::MAX,
        }
    }
}

impl IngestLimits {
    /// The default limits (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the hard size limit above which documents are quarantined.
    pub fn with_hard_max_bytes(mut self, bytes: usize) -> Self {
        self.hard_max_bytes = bytes;
        self
    }

    /// Set the soft size limit above which documents are truncated.
    pub fn with_soft_max_bytes(mut self, bytes: usize) -> Self {
        self.soft_max_bytes = bytes;
        self
    }

    /// Set the per-page analyzed-term budget.
    pub fn with_max_terms(mut self, terms: usize) -> Self {
        self.max_terms = terms;
        self
    }

    /// Set the pages-per-shard work-unit size (output-invariant; a pure
    /// throughput knob).
    pub fn with_shard_pages(mut self, pages: usize) -> Self {
        self.shard_pages = pages;
        self
    }

    /// Set the corpus memory budget in bytes.
    pub fn with_max_corpus_bytes(mut self, bytes: usize) -> Self {
        self.max_corpus_bytes = bytes;
        self
    }
}

/// The accounting record of one ingestion run: an outcome per input page,
/// plus the mapping from corpus index to input index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// One outcome per input page, in input order.
    pub outcomes: Vec<PageOutcome>,
    /// For each page of the built corpus, the index of the input page it
    /// came from (quarantined pages have no corpus entry).
    pub kept: Vec<usize>,
}

impl IngestReport {
    /// Number of input pages.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of pages vectorized without fallbacks.
    pub fn ok(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, PageOutcome::Ok))
            .count()
    }

    /// Number of pages kept with fallbacks applied.
    pub fn degraded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, PageOutcome::Degraded { .. }))
            .count()
    }

    /// Number of pages excluded from the corpus.
    pub fn quarantined(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, PageOutcome::Quarantined { .. }))
            .count()
    }

    /// How often each degradation reason occurred, in [`DegradedReason::ALL`]
    /// order.
    pub fn reason_counts(&self) -> Vec<(DegradedReason, usize)> {
        DegradedReason::ALL
            .iter()
            .map(|&r| {
                let n = self
                    .outcomes
                    .iter()
                    .filter(
                        |o| matches!(o, PageOutcome::Degraded { reasons } if reasons.contains(&r)),
                    )
                    .count();
                (r, n)
            })
            .collect()
    }

    /// The accounting identity: every input page has exactly one outcome
    /// and every kept page has exactly one corpus entry.
    pub fn is_accounted(&self) -> bool {
        let kept = self.ok() + self.degraded();
        self.ok() + self.degraded() + self.quarantined() == self.total() && self.kept.len() == kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_identity() {
        let report = IngestReport {
            outcomes: vec![
                PageOutcome::Ok,
                PageOutcome::Degraded {
                    reasons: vec![DegradedReason::MissingTitle],
                },
                PageOutcome::Quarantined {
                    error: IngestError::EmptyDocument,
                },
                PageOutcome::Ok,
            ],
            kept: vec![0, 1, 3],
        };
        assert_eq!(report.total(), 4);
        assert_eq!(report.ok(), 2);
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.quarantined(), 1);
        assert!(report.is_accounted());
    }

    #[test]
    fn mismatched_kept_breaks_identity() {
        let report = IngestReport {
            outcomes: vec![PageOutcome::Ok],
            kept: vec![],
        };
        assert!(!report.is_accounted());
    }

    #[test]
    fn reason_counts_cover_all_reasons() {
        let report = IngestReport {
            outcomes: vec![PageOutcome::Degraded {
                reasons: vec![DegradedReason::InputTruncated, DegradedReason::MissingTitle],
            }],
            kept: vec![0],
        };
        let counts = report.reason_counts();
        assert_eq!(counts.len(), DegradedReason::ALL.len());
        assert_eq!(counts[0], (DegradedReason::InputTruncated, 1));
        assert_eq!(counts[4], (DegradedReason::MissingTitle, 1));
        assert_eq!(counts[5], (DegradedReason::NoFormContent, 0));
    }

    #[test]
    fn error_display() {
        let e = IngestError::TooLarge {
            bytes: 100,
            limit: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(IngestError::EmptyDocument.to_string().contains("text"));
        let b = IngestError::BudgetExhausted {
            needed: 320,
            budget: 64,
        };
        assert!(b.to_string().contains("320"));
        assert!(b.to_string().contains("budget"));
    }

    #[test]
    fn limits_defaults_and_setters() {
        let limits = IngestLimits::new();
        assert_eq!(limits.shard_pages, 16);
        assert_eq!(limits.max_corpus_bytes, usize::MAX);
        let limits = limits.with_shard_pages(1024).with_max_corpus_bytes(1 << 20);
        assert_eq!(limits.shard_pages, 1024);
        assert_eq!(limits.max_corpus_bytes, 1 << 20);
    }

    #[test]
    fn labels_are_stable() {
        for r in DegradedReason::ALL {
            assert!(!r.label().is_empty());
            assert!(r
                .label()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
            assert_eq!(r.counter_name(), format!("ingest.degraded.{}", r.label()));
        }
    }
}
