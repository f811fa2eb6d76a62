//! The form-page model (§2.1): `FP(PC, FC)` — and, for CAFC-CH, the
//! extended `FP(Backlink, PC, FC)` plus the anchor-text extension of §6.
//!
//! Each form page is represented in two vector spaces built from located
//! text: **FC** (everything between the FORM tags, with `<option>` content
//! down-weighted) and **PC** (everything on the page, with `<title>` text
//! up-weighted). Term weights follow Equation 1,
//! `w_i = LOC_i · TF_i · log(N / n_i)`, with document frequencies computed
//! per feature space.

use crate::ingest::{DegradedReason, IngestError, IngestLimits, IngestReport, PageOutcome};
use cafc_exec::{par_chunks_obs, par_map_slice, ExecPolicy};
use cafc_html::{parse, parse_into, strip_control_chars, LocatedSink, ParseStats, TextLocation};
use cafc_obs::Obs;
use cafc_text::{Analyzer, TermDict, TermId};
use cafc_vsm::{weigh, CountsBuilder, DocumentFrequencies, IdfScheme, SparseVector, TfScheme};
use cafc_webgraph::{PageId, WebGraph};

/// Pages per work unit when vectorization fans out. Fixed (never derived
/// from the thread count) so chunk boundaries — and therefore term-id
/// assignment order — are identical under every [`ExecPolicy`].
pub(crate) const PAGE_CHUNK: usize = 16;

/// The `LOC_i` factor of Equation 1: a multiplier per text location.
///
/// The paper's §4.4 configuration: "for form contents, lower weights are
/// given to terms inside option tags; and for page contents, weights given
/// to terms inside the title tag are higher than for terms in the body."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationWeights {
    /// `<title>` text (PC space).
    pub title: f64,
    /// Heading text (PC space).
    pub heading: f64,
    /// Anchor text of links on the page (PC space).
    pub anchor: f64,
    /// Plain body text (PC space).
    pub body: f64,
    /// Free text between the form tags (FC space).
    pub form_text: f64,
    /// `<option>` contents (FC space) — database *contents*, down-weighted.
    pub form_option: f64,
    /// Visible field values: button labels, prefills (FC space).
    pub form_value: f64,
}

impl LocationWeights {
    /// The paper's differentiated weighting.
    pub fn differentiated() -> Self {
        LocationWeights {
            title: 2.0,
            heading: 1.5,
            anchor: 1.0,
            body: 1.0,
            form_text: 1.0,
            form_option: 0.5,
            form_value: 1.0,
        }
    }

    /// The §4.4 ablation: every location weighs 1.0 (plain TF-IDF).
    pub fn uniform() -> Self {
        LocationWeights {
            title: 1.0,
            heading: 1.0,
            anchor: 1.0,
            body: 1.0,
            form_text: 1.0,
            form_option: 1.0,
            form_value: 1.0,
        }
    }

    /// The multiplier for a location.
    pub fn weight(&self, loc: TextLocation) -> f64 {
        match loc {
            TextLocation::Title => self.title,
            TextLocation::Heading => self.heading,
            TextLocation::Anchor => self.anchor,
            TextLocation::Body => self.body,
            TextLocation::FormText => self.form_text,
            TextLocation::FormOption => self.form_option,
            TextLocation::FormValue => self.form_value,
        }
    }
}

impl Default for LocationWeights {
    fn default() -> Self {
        LocationWeights::differentiated()
    }
}

/// Model construction options.
///
/// Construct with [`ModelOptions::default`] (the paper's configuration)
/// plus the chainable `with_*` setters; the struct is `#[non_exhaustive]`
/// so future knobs are not breaking changes.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct ModelOptions {
    /// Location weighting (Equation 1's `LOC_i`).
    pub weights: LocationWeights,
    /// Text analysis pipeline (tokenize/stopword/stem).
    pub analyzer: Analyzer,
    /// Term-frequency scheme (Equation 1 uses raw TF).
    pub tf: TfScheme,
    /// IDF scheme (Equation 1 uses plain `log(N/n_i)`).
    pub idf: IdfScheme,
}

impl ModelOptions {
    /// The paper's configuration (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the location weighting.
    pub fn with_weights(mut self, weights: LocationWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Set the text analysis pipeline.
    pub fn with_analyzer(mut self, analyzer: Analyzer) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Set the term-frequency scheme.
    pub fn with_tf(mut self, tf: TfScheme) -> Self {
        self.tf = tf;
        self
    }

    /// Set the IDF scheme.
    pub fn with_idf(mut self, idf: IdfScheme) -> Self {
        self.idf = idf;
        self
    }
}

/// The vectorized corpus: per-page PC/FC (and optionally anchor) vectors
/// sharing one term dictionary.
#[derive(Debug, Clone)]
pub struct FormPageCorpus {
    /// Shared term dictionary.
    pub dict: TermDict,
    /// Page-content vectors, one per page.
    pub pc: Vec<SparseVector>,
    /// Raw location-weighted page-content term frequencies (Equation 1's
    /// `LOC_i · TF_i`, before IDF), one per page. The TF-IDF weighting in
    /// `pc` drops terms whose idf is 0, so BM25 indexing — which needs the
    /// raw frequencies and its own collection statistics — reads this
    /// space instead.
    pub pc_tf: Vec<SparseVector>,
    /// Form-content vectors, one per page.
    pub fc: Vec<SparseVector>,
    /// In-link anchor-text vectors (empty vectors unless built from a graph
    /// with [`FormPageCorpus::from_graph_with_anchors`]).
    pub anchor: Vec<SparseVector>,
    /// Page-content collection statistics the `pc` weights were computed
    /// from. The streaming layer (`StreamCorpus`) keeps weighing late
    /// arrivals against these, updated per arrival, so streamed vectors
    /// live on the same scale as the batch-built ones.
    pub pc_df: DocumentFrequencies,
    /// Form-content collection statistics behind `fc`, kept for the same
    /// reason as `pc_df`.
    pub fc_df: DocumentFrequencies,
}

impl FormPageCorpus {
    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// True when the corpus has no pages.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Build the model from raw HTML documents.
    pub fn from_html<'a, I>(pages: I, opts: &ModelOptions) -> FormPageCorpus
    where
        I: IntoIterator<Item = &'a str>,
    {
        Self::from_html_exec(pages, opts, ExecPolicy::Serial)
    }

    /// Build the model from raw HTML documents under an explicit execution
    /// policy.
    ///
    /// Bit-identical to [`FormPageCorpus::from_html`] (which delegates here
    /// with [`ExecPolicy::Serial`]) for every policy: pages are vectorized
    /// in fixed-size chunks against chunk-local term dictionaries, and the
    /// chunks are re-based onto the shared dictionary in chunk order, which
    /// reproduces the serial first-occurrence id assignment exactly.
    pub fn from_html_exec<'a, I>(
        pages: I,
        opts: &ModelOptions,
        policy: ExecPolicy,
    ) -> FormPageCorpus
    where
        I: IntoIterator<Item = &'a str>,
    {
        Self::from_html_obs(pages, opts, policy, &Obs::disabled())
    }

    /// [`FormPageCorpus::from_html_exec`] with instrumentation (which
    /// delegates here with [`Obs::disabled`]): spans `corpus.vectorize` and
    /// `corpus.tfidf`, per-chunk `corpus.vectorize.*` metrics, and gauges
    /// `corpus.pages` / `corpus.terms`.
    pub fn from_html_obs<'a, I>(
        pages: I,
        opts: &ModelOptions,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> FormPageCorpus
    where
        I: IntoIterator<Item = &'a str>,
    {
        let pages: Vec<&str> = pages.into_iter().collect();
        let vectorize_span = obs.span("corpus.vectorize");
        let chunks = par_chunks_obs(
            policy,
            pages.len(),
            PAGE_CHUNK,
            obs,
            "corpus.vectorize",
            |range| {
                let mut local = LocalVectors::default();
                for &html in &pages[range] {
                    local.push(html, opts);
                }
                local
            },
        );
        let (dict, pc_counts, fc_counts) = merge_local_vectors(chunks);
        drop(vectorize_span);
        Self::finish(dict, pc_counts, fc_counts, None, opts, policy, obs)
    }

    /// Build the model through the hardened ingestion layer (DESIGN.md §8):
    /// every page gets a [`PageOutcome`], structural limits are enforced,
    /// and quarantined pages are excluded from the corpus instead of
    /// contributing degenerate vectors.
    ///
    /// `report.kept[i]` gives the input index of corpus page `i`, and
    /// `report.is_accounted()` always holds on return.
    pub fn from_html_ingest<'a, I>(
        pages: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
    ) -> (FormPageCorpus, IngestReport)
    where
        I: IntoIterator<Item = &'a str>,
    {
        Self::from_html_ingest_exec(pages, opts, limits, ExecPolicy::Serial)
    }

    /// Hardened ingestion under an explicit execution policy.
    ///
    /// Bit-identical to [`FormPageCorpus::from_html_ingest`] (which
    /// delegates here with [`ExecPolicy::Serial`]) for every policy: page
    /// outcomes are produced per fixed-size chunk and concatenated in chunk
    /// order, so the outcome sequence, the quarantine order and the
    /// `kept` mapping never depend on the thread count — and
    /// `report.is_accounted()` always holds on return.
    pub fn from_html_ingest_exec<'a, I>(
        pages: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
        policy: ExecPolicy,
    ) -> (FormPageCorpus, IngestReport)
    where
        I: IntoIterator<Item = &'a str>,
    {
        Self::from_html_ingest_obs(pages, opts, limits, policy, &Obs::disabled())
    }

    /// [`FormPageCorpus::from_html_ingest_exec`] with instrumentation
    /// (which delegates here with [`Obs::disabled`]): an `ingest` span,
    /// per-chunk `ingest.*` metrics, per-page `ingest.sanitize_us` /
    /// `ingest.parse_us` / `ingest.analyze_us` histograms (recorded by
    /// worker threads — safe, counters and histograms aggregate
    /// commutatively), outcome counters `ingest.pages_total` /
    /// `ingest.pages_ok` / `ingest.pages_degraded` /
    /// `ingest.pages_quarantined`, and one `ingest.degraded.<label>`
    /// counter per [`DegradedReason`] observed.
    pub fn from_html_ingest_obs<'a, I>(
        pages: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> (FormPageCorpus, IngestReport)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let pages: Vec<&str> = pages.into_iter().collect();
        let ingest_span = obs.span("ingest");
        let mut merge = IngestMerge::new(limits);
        ingest_shard(&pages, opts, limits, policy, obs, &mut merge);
        drop(ingest_span);
        emit_ingest_metrics(&merge.report, obs);
        let corpus = Self::finish(
            merge.dict,
            merge.pc_counts,
            merge.fc_counts,
            None,
            opts,
            policy,
            obs,
        );
        (corpus, merge.report)
    }

    /// Build the model through hardened ingestion from pre-cut shards of
    /// pages, merged in shard order.
    ///
    /// This is the 10^5–10^6-page entry point (ROADMAP item 3): shards are
    /// consumed one at a time from the iterator, so a generator-backed
    /// caller (`cafc bench`, the sharded synthetic corpus) never holds more
    /// than one shard of raw HTML in memory while the accumulated state
    /// grows only with the *kept* corpus — which
    /// [`IngestLimits::max_corpus_bytes`] bounds.
    ///
    /// **Shard-merge invariance:** per-page outcomes are pure functions of
    /// the page, and the merge re-bases chunk-local term ids onto the
    /// shared dictionary in input order — reproducing the global
    /// first-occurrence term-id order of a serial single-batch pass. The
    /// corpus and report are therefore bit-identical to
    /// [`FormPageCorpus::from_html_ingest`] over the concatenated pages,
    /// for **any** partition of the input into shards and any
    /// [`IngestLimits::shard_pages`] value (pinned by `tests/scale.rs` and
    /// the cafc-check properties).
    pub fn from_shards<I>(
        shards: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
    ) -> (FormPageCorpus, IngestReport)
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        Self::from_shards_exec(shards, opts, limits, ExecPolicy::Serial)
    }

    /// [`FormPageCorpus::from_shards`] under an explicit execution policy;
    /// bit-identical for every policy.
    pub fn from_shards_exec<I>(
        shards: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
        policy: ExecPolicy,
    ) -> (FormPageCorpus, IngestReport)
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        Self::from_shards_obs(shards, opts, limits, policy, &Obs::disabled())
    }

    /// [`FormPageCorpus::from_shards_exec`] with instrumentation — the
    /// `ingest` span and `ingest.*` metrics of
    /// [`FormPageCorpus::from_html_ingest_obs`].
    pub fn from_shards_obs<I>(
        shards: I,
        opts: &ModelOptions,
        limits: &IngestLimits,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> (FormPageCorpus, IngestReport)
    where
        I: IntoIterator<Item = Vec<String>>,
    {
        let ingest_span = obs.span("ingest");
        let mut merge = IngestMerge::new(limits);
        for shard in shards {
            let refs: Vec<&str> = shard.iter().map(String::as_str).collect();
            ingest_shard(&refs, opts, limits, policy, obs, &mut merge);
        }
        drop(ingest_span);
        emit_ingest_metrics(&merge.report, obs);
        let corpus = Self::finish(
            merge.dict,
            merge.pc_counts,
            merge.fc_counts,
            None,
            opts,
            policy,
            obs,
        );
        (corpus, merge.report)
    }

    /// Build the model for `pages` stored in `graph`, without anchor text.
    pub fn from_graph(graph: &WebGraph, pages: &[PageId], opts: &ModelOptions) -> FormPageCorpus {
        Self::from_graph_impl(
            graph,
            pages,
            opts,
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
    }

    /// Graph construction under an explicit execution policy; bit-identical
    /// to [`FormPageCorpus::from_graph`] for every policy.
    pub fn from_graph_exec(
        graph: &WebGraph,
        pages: &[PageId],
        opts: &ModelOptions,
        policy: ExecPolicy,
    ) -> FormPageCorpus {
        Self::from_graph_impl(graph, pages, opts, false, policy, &Obs::disabled())
    }

    /// [`FormPageCorpus::from_graph_exec`] with instrumentation — the
    /// `corpus.*` spans and metrics of [`FormPageCorpus::from_html_obs`].
    pub fn from_graph_obs(
        graph: &WebGraph,
        pages: &[PageId],
        opts: &ModelOptions,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> FormPageCorpus {
        Self::from_graph_impl(graph, pages, opts, false, policy, obs)
    }

    /// Build the model plus the §6 anchor-text extension: for each target
    /// page, the text of every in-link anchor pointing at it (from the hub
    /// pages' HTML) forms a third feature space.
    pub fn from_graph_with_anchors(
        graph: &WebGraph,
        pages: &[PageId],
        opts: &ModelOptions,
    ) -> FormPageCorpus {
        Self::from_graph_impl(
            graph,
            pages,
            opts,
            true,
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
    }

    /// Graph-plus-anchors construction under an explicit execution policy;
    /// bit-identical to [`FormPageCorpus::from_graph_with_anchors`] for
    /// every policy.
    pub fn from_graph_with_anchors_exec(
        graph: &WebGraph,
        pages: &[PageId],
        opts: &ModelOptions,
        policy: ExecPolicy,
    ) -> FormPageCorpus {
        Self::from_graph_impl(graph, pages, opts, true, policy, &Obs::disabled())
    }

    /// [`FormPageCorpus::from_graph_with_anchors_exec`] with
    /// instrumentation — additionally wraps the in-link anchor pass in a
    /// `corpus.anchors` span.
    pub fn from_graph_with_anchors_obs(
        graph: &WebGraph,
        pages: &[PageId],
        opts: &ModelOptions,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> FormPageCorpus {
        Self::from_graph_impl(graph, pages, opts, true, policy, obs)
    }

    fn from_graph_impl(
        graph: &WebGraph,
        pages: &[PageId],
        opts: &ModelOptions,
        with_anchors: bool,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> FormPageCorpus {
        let vectorize_span = obs.span("corpus.vectorize");
        let chunks = par_chunks_obs(
            policy,
            pages.len(),
            PAGE_CHUNK,
            obs,
            "corpus.vectorize",
            |range| {
                let mut local = LocalVectors::default();
                for &page in &pages[range] {
                    local.push(graph.html(page).unwrap_or(""), opts);
                }
                local
            },
        );
        let (mut dict, pc_counts, fc_counts) = merge_local_vectors(chunks);
        drop(vectorize_span);

        // The anchor pass interns into the merged dictionary on the calling
        // thread, after all page terms — exactly the serial interleaving.
        let _anchor_span = with_anchors.then(|| obs.span("corpus.anchors"));
        let anchor_counts = with_anchors.then(|| {
            let mut term_buf: Vec<TermId> = Vec::new();
            let mut counts: Vec<CountsBuilder> =
                (0..pages.len()).map(|_| CountsBuilder::new()).collect();
            // Parse each distinct linking page once; map its anchors to
            // targets by resolved URL.
            let mut linkers: Vec<PageId> = pages
                .iter()
                .flat_map(|&p| graph.in_links(p).iter().copied())
                .collect();
            linkers.sort_unstable();
            linkers.dedup();
            let target_index: std::collections::HashMap<&cafc_webgraph::Url, usize> = pages
                .iter()
                .enumerate()
                .map(|(i, &p)| (graph.url(p), i))
                .collect();
            for linker in linkers {
                let Some(html) = graph.html(linker) else {
                    continue;
                };
                let doc = parse(html);
                let base = graph.url(linker);
                for node in doc.elements_named("a") {
                    let Some(href) = doc.attr(node, "href") else {
                        continue;
                    };
                    let Some(url) = base.resolve(href) else {
                        continue;
                    };
                    if let Some(&target) = target_index.get(&url) {
                        let text = doc.text_content(node);
                        term_buf.clear();
                        opts.analyzer.analyze_into(&text, &mut dict, &mut term_buf);
                        counts[target].add_all(term_buf.iter().copied(), 1.0);
                    }
                }
            }
            counts.iter_mut().for_each(CountsBuilder::fold);
            counts
        });
        drop(_anchor_span);

        Self::finish(dict, pc_counts, fc_counts, anchor_counts, opts, policy, obs)
    }

    /// Apply per-space IDF (Equation 1's `log(N/n_i)`) and freeze vectors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        dict: TermDict,
        pc_counts: Vec<CountsBuilder>,
        fc_counts: Vec<CountsBuilder>,
        anchor_counts: Option<Vec<CountsBuilder>>,
        opts: &ModelOptions,
        policy: ExecPolicy,
        obs: &Obs,
    ) -> FormPageCorpus {
        let _tfidf_span = obs.span("corpus.tfidf");
        let n = pc_counts.len();
        let mut pc_df = DocumentFrequencies::new();
        let mut fc_df = DocumentFrequencies::new();
        for c in &pc_counts {
            pc_df.add_counts(c);
        }
        for c in &fc_counts {
            fc_df.add_counts(c);
        }
        // Each page's Equation-1 weighting is one closure -> the same floats
        // under every policy.
        let pc = par_map_slice(policy, &pc_counts, |_, c| {
            weigh(c, &pc_df, opts.tf, opts.idf)
        });
        let pc_tf = par_map_slice(policy, &pc_counts, |_, c| c.tf());
        let fc = par_map_slice(policy, &fc_counts, |_, c| {
            weigh(c, &fc_df, opts.tf, opts.idf)
        });
        let anchor = match anchor_counts {
            Some(counts) => {
                let mut adf = DocumentFrequencies::new();
                for c in &counts {
                    adf.add_counts(c);
                }
                par_map_slice(policy, &counts, |_, c| weigh(c, &adf, opts.tf, opts.idf))
            }
            None => vec![SparseVector::empty(); n],
        };
        obs.gauge("corpus.pages", n as f64);
        obs.gauge("corpus.terms", dict.len() as f64);
        FormPageCorpus {
            dict,
            pc,
            pc_tf,
            fc,
            anchor,
            pc_df,
            fc_df,
        }
    }
}

/// One chunk's worth of page vectors, keyed by a chunk-local dictionary.
#[derive(Default)]
struct LocalVectors {
    dict: TermDict,
    term_buf: Vec<TermId>,
    pc: Vec<CountsBuilder>,
    fc: Vec<CountsBuilder>,
}

impl LocalVectors {
    /// Count one page, with no limits: the ingest pass without a budget.
    fn push(&mut self, html: &str, opts: &ModelOptions) {
        let page = count_page(
            html,
            opts,
            usize::MAX,
            &mut self.dict,
            &mut self.term_buf,
            &Obs::disabled(),
        );
        self.pc.push(page.pc);
        self.fc.push(page.fc);
    }
}

/// Re-base chunk-local term ids onto one shared dictionary, in chunk order.
///
/// Interning each chunk's terms in local-id order (= first-occurrence order
/// within the chunk) reproduces the global first-occurrence order a serial
/// pass would produce, so the merged dictionary and every remapped vector
/// are identical to the single-dictionary construction.
fn merge_local_vectors(
    chunks: Vec<LocalVectors>,
) -> (TermDict, Vec<CountsBuilder>, Vec<CountsBuilder>) {
    let mut dict = TermDict::new();
    let mut pc_counts = Vec::new();
    let mut fc_counts = Vec::new();
    for chunk in chunks {
        let map: Vec<TermId> = chunk.dict.iter().map(|(_, t)| dict.intern(t)).collect();
        pc_counts.extend(chunk.pc.into_iter().map(|c| c.remap(|id| map[id.index()])));
        fc_counts.extend(chunk.fc.into_iter().map(|c| c.remap(|id| map[id.index()])));
    }
    (dict, pc_counts, fc_counts)
}

/// Estimated bytes per kept vector entry: one `(TermId, f64)` pair, the
/// same figure `SparseVector::heap_bytes` reports. A function of the
/// distinct-term count alone, so budget accounting is deterministic.
pub(crate) const VECTOR_ENTRY_BYTES: usize = 16;

/// Accumulates per-chunk ingestion output into the shared dictionary,
/// counts and report, enforcing [`IngestLimits::max_corpus_bytes`] at the
/// merge — which runs serially in input order under every policy, so
/// budget decisions are execution- and shard-size-invariant.
///
/// Shared by the single-batch path ([`FormPageCorpus::from_html_ingest`]),
/// the sharded path ([`FormPageCorpus::from_shards`]) and the resumable
/// path (resume.rs), so they can never diverge on accounting.
pub(crate) struct IngestMerge {
    pub(crate) dict: TermDict,
    pub(crate) pc_counts: Vec<CountsBuilder>,
    pub(crate) fc_counts: Vec<CountsBuilder>,
    pub(crate) report: IngestReport,
    /// Estimated bytes of kept vector entries so far.
    pub(crate) used_bytes: usize,
    max_corpus_bytes: usize,
}

impl IngestMerge {
    pub(crate) fn new(limits: &IngestLimits) -> IngestMerge {
        IngestMerge {
            dict: TermDict::new(),
            pc_counts: Vec::new(),
            fc_counts: Vec::new(),
            report: IngestReport::default(),
            used_bytes: 0,
            max_corpus_bytes: limits.max_corpus_bytes,
        }
    }

    /// Rebuild from previously accumulated state (the resume path):
    /// `used_bytes` is recomputed from the kept counts, so a resumed run
    /// makes the same budget decisions as an uninterrupted one.
    pub(crate) fn from_parts(
        dict: TermDict,
        pc_counts: Vec<CountsBuilder>,
        fc_counts: Vec<CountsBuilder>,
        report: IngestReport,
        limits: &IngestLimits,
    ) -> IngestMerge {
        let used_bytes = pc_counts
            .iter()
            .zip(&fc_counts)
            .map(|(pc, fc)| (pc.distinct_terms() + fc.distinct_terms()) * VECTOR_ENTRY_BYTES)
            .sum();
        IngestMerge {
            dict,
            pc_counts,
            fc_counts,
            report,
            used_bytes,
            max_corpus_bytes: limits.max_corpus_bytes,
        }
    }

    /// Merge one chunk's local dictionary and outcomes, in input order.
    ///
    /// A kept page whose estimated vector footprint would push
    /// `used_bytes` past the budget is quarantined here with
    /// [`IngestError::BudgetExhausted`] (its terms stay in the dictionary
    /// — interning already happened chunk-wide, and dictionary order must
    /// not depend on budget decisions).
    pub(crate) fn absorb(
        &mut self,
        local_dict: TermDict,
        outcomes: Vec<(PageOutcome, Option<(CountsBuilder, CountsBuilder)>)>,
    ) {
        let map: Vec<TermId> = local_dict
            .iter()
            .map(|(_, t)| self.dict.intern(t))
            .collect();
        for (outcome, counts) in outcomes {
            let index = self.report.outcomes.len();
            match counts {
                Some((pc, fc)) => {
                    let needed = (pc.distinct_terms() + fc.distinct_terms()) * VECTOR_ENTRY_BYTES;
                    if self.used_bytes.saturating_add(needed) > self.max_corpus_bytes {
                        self.report.outcomes.push(PageOutcome::Quarantined {
                            error: IngestError::BudgetExhausted {
                                needed,
                                budget: self.max_corpus_bytes,
                            },
                        });
                    } else {
                        self.used_bytes += needed;
                        self.report.kept.push(index);
                        self.pc_counts.push(pc.remap(|id| map[id.index()]));
                        self.fc_counts.push(fc.remap(|id| map[id.index()]));
                        self.report.outcomes.push(outcome);
                    }
                }
                None => self.report.outcomes.push(outcome),
            }
        }
    }
}

/// Ingest one contiguous run of pages — chunked by
/// [`IngestLimits::shard_pages`] on the exec layer — into `merge`.
pub(crate) fn ingest_shard(
    pages: &[&str],
    opts: &ModelOptions,
    limits: &IngestLimits,
    policy: ExecPolicy,
    obs: &Obs,
    merge: &mut IngestMerge,
) {
    let chunk_len = limits.shard_pages.max(1);
    let chunks = par_chunks_obs(policy, pages.len(), chunk_len, obs, "ingest", |range| {
        let mut dict = TermDict::new();
        let mut term_buf: Vec<TermId> = Vec::new();
        let outcomes: Vec<_> = pages[range]
            .iter()
            .map(|&html| ingest_page(html, opts, limits, &mut dict, &mut term_buf, obs))
            .collect();
        (dict, outcomes)
    });
    for (local_dict, outcomes) in chunks {
        merge.absorb(local_dict, outcomes);
    }
}

/// Emit the standard `ingest.*` outcome counters for a finished report.
pub(crate) fn emit_ingest_metrics(report: &IngestReport, obs: &Obs) {
    if obs.is_enabled() {
        obs.add("ingest.pages_total", report.total() as u64);
        obs.add("ingest.pages_ok", report.ok() as u64);
        obs.add("ingest.pages_degraded", report.degraded() as u64);
        obs.add("ingest.pages_quarantined", report.quarantined() as u64);
        for (reason, count) in report.reason_counts() {
            obs.add(&format!("ingest.degraded.{}", reason.label()), count as u64);
        }
    }
}

/// One page's term counts as its located-text runs arrive from the
/// parser: each run goes through the analyzer under what is left of the
/// page's term budget, and its terms join the page's PC (and, for form
/// locations, FC) occurrence runs at the location's weight. A spent budget
/// stops analysis, not parsing: title presence and [`ParseStats`] need the
/// whole page.
pub(crate) struct PageTerms<'p> {
    opts: &'p ModelOptions,
    dict: &'p mut TermDict,
    term_buf: &'p mut Vec<TermId>,
    obs: &'p Obs,
    /// Terms the page may still add.
    budget: usize,
    budget_hit: bool,
    /// Nanoseconds spent in the analyzer; the clock is read only when
    /// `obs` is enabled.
    analyze_ns: u64,
    pc: CountsBuilder,
    fc: CountsBuilder,
}

/// What one pass over a page found.
pub(crate) struct PageCounts {
    pc: CountsBuilder,
    fc: CountsBuilder,
    has_title: bool,
    stats: ParseStats,
    budget_hit: bool,
    analyze_ns: u64,
}

impl<'p> PageTerms<'p> {
    pub(crate) fn new(
        opts: &'p ModelOptions,
        max_terms: usize,
        dict: &'p mut TermDict,
        term_buf: &'p mut Vec<TermId>,
        obs: &'p Obs,
    ) -> PageTerms<'p> {
        PageTerms {
            opts,
            dict,
            term_buf,
            obs,
            budget: max_terms,
            budget_hit: false,
            analyze_ns: 0,
            pc: CountsBuilder::new(),
            fc: CountsBuilder::new(),
        }
    }

    /// Analyze one located text run.
    pub(crate) fn run(&mut self, text: &str, location: TextLocation) {
        if self.budget_hit {
            return;
        }
        let t0 = self.obs.start_timer();
        self.term_buf.clear();
        self.budget_hit =
            self.opts
                .analyzer
                .analyze_into_budget(text, self.dict, self.term_buf, self.budget);
        if let (Some(t0), Some(t1)) = (t0, self.obs.start_timer()) {
            self.analyze_ns += t1.saturating_sub(t0);
        }
        self.budget -= self.term_buf.len();
        let w = self.opts.weights.weight(location);
        if location.is_form() {
            // Form text belongs to both spaces: FC by definition, and PC
            // covers "all words within the HTML tags".
            self.fc.add_all(self.term_buf.iter().copied(), w);
        }
        self.pc.add_all(self.term_buf.iter().copied(), w);
    }

    /// Fold the page's runs into per-term sums.
    pub(crate) fn finish(mut self, has_title: bool, stats: ParseStats) -> PageCounts {
        self.pc.fold();
        self.fc.fold();
        PageCounts {
            pc: self.pc,
            fc: self.fc,
            has_title,
            stats,
            budget_hit: self.budget_hit,
            analyze_ns: self.analyze_ns,
        }
    }
}

/// Parse `html` straight into analysis in one pass, with no tree: the
/// located-text sink hands each run to [`PageTerms::run`].
fn count_page(
    html: &str,
    opts: &ModelOptions,
    max_terms: usize,
    dict: &mut TermDict,
    term_buf: &mut Vec<TermId>,
    obs: &Obs,
) -> PageCounts {
    let mut terms = PageTerms::new(opts, max_terms, dict, term_buf, obs);
    let (sink, stats) = parse_into(html, LocatedSink::new(|text, loc| terms.run(text, loc)));
    let has_title = sink.has_title();
    terms.finish(has_title, stats)
}

/// Run one page through the hardened ingestion checks; `Some` counts mean
/// the page is kept.
///
/// Phase timings are recorded per page into `obs` histograms:
/// `ingest.sanitize_us`, `ingest.analyze_us` (the time inside the analyzer)
/// and `ingest.parse_us` (the rest of the parse-and-count pass). They are
/// order-independent aggregates, so recording from parallel ingestion
/// workers preserves snapshot determinism (under a logical clock every
/// duration is 0).
pub(crate) fn ingest_page(
    html: &str,
    opts: &ModelOptions,
    limits: &IngestLimits,
    dict: &mut TermDict,
    term_buf: &mut Vec<TermId>,
    obs: &Obs,
) -> (PageOutcome, Option<(CountsBuilder, CountsBuilder)>) {
    let mut reasons: Vec<DegradedReason> = Vec::new();

    if html.len() > limits.hard_max_bytes {
        let outcome = PageOutcome::Quarantined {
            error: IngestError::TooLarge {
                bytes: html.len(),
                limit: limits.hard_max_bytes,
            },
        };
        return (outcome, None);
    }
    let sanitize_t0 = obs.start_timer();
    let html = if html.len() > limits.soft_max_bytes {
        reasons.push(DegradedReason::InputTruncated);
        // Truncate on a char boundary; mid-tag cuts are exactly what the
        // tokenizer is built to absorb.
        let mut cut = limits.soft_max_bytes;
        while cut > 0 && !html.is_char_boundary(cut) {
            cut -= 1;
        }
        &html[..cut]
    } else {
        html
    };
    let (html, stripped) = strip_control_chars(html);
    if stripped {
        reasons.push(DegradedReason::ControlCharsStripped);
    }
    obs.observe_since("ingest.sanitize_us", sanitize_t0);

    let pass_t0 = obs.start_timer();
    let page = count_page(&html, opts, limits.max_terms, dict, term_buf, obs);
    if let (Some(t0), Some(t1)) = (pass_t0, obs.start_timer()) {
        let pass_ns = t1.saturating_sub(t0).saturating_sub(page.analyze_ns);
        obs.observe("ingest.parse_us", pass_ns as f64 / 1_000.0);
    }
    page_outcome(page, reasons, obs)
}

/// The outcome taxonomy over one page's pass, however it was parsed: the
/// batch path enters from [`ingest_page`], the streaming layer from a
/// [`StreamingParser`](cafc_html::StreamingParser) over the same sink.
/// `reasons` carries whatever degradations the caller's sanitize phase
/// already found. Records `ingest.analyze_us`.
pub(crate) fn page_outcome(
    page: PageCounts,
    mut reasons: Vec<DegradedReason>,
    obs: &Obs,
) -> (PageOutcome, Option<(CountsBuilder, CountsBuilder)>) {
    if obs.is_enabled() {
        obs.observe("ingest.analyze_us", page.analyze_ns as f64 / 1_000.0);
    }
    if page.stats.depth_capped {
        reasons.push(DegradedReason::DepthCapped);
    }
    if page.stats.nodes_capped {
        reasons.push(DegradedReason::InputTruncated);
    }
    if page.budget_hit {
        reasons.push(DegradedReason::TermBudgetExceeded);
    }
    if page.pc.is_empty() {
        let outcome = PageOutcome::Quarantined {
            error: IngestError::EmptyDocument,
        };
        return (outcome, None);
    }
    if !page.has_title {
        reasons.push(DegradedReason::MissingTitle);
    }
    if page.fc.is_empty() {
        reasons.push(DegradedReason::NoFormContent);
    }

    let outcome = if reasons.is_empty() {
        PageOutcome::Ok
    } else {
        reasons.sort_unstable();
        reasons.dedup();
        PageOutcome::Degraded { reasons }
    };
    (outcome, Some((page.pc, page.fc)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{DegradedReason, IngestError, IngestLimits, PageOutcome};

    fn opts() -> ModelOptions {
        ModelOptions::default()
    }

    #[test]
    fn builds_separate_spaces() {
        let pages = [
            "<title>Cheap Flights</title><p>airfare deals</p><form>Departure <input name=d></form>",
            "<title>Job Search</title><p>careers employment</p><form>Keywords <input name=k></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &opts());
        assert_eq!(corpus.len(), 2);
        // FC vectors contain only form vocabulary.
        let departure = corpus
            .dict
            .get("departur")
            .expect("stemmed 'departure' interned");
        assert!(corpus.fc[0].get(departure) > 0.0);
        assert_eq!(corpus.fc[1].get(departure), 0.0);
        // PC vectors contain body vocabulary.
        let airfare = corpus
            .dict
            .get("airfar")
            .expect("stemmed 'airfare' interned");
        assert!(corpus.pc[0].get(airfare) > 0.0);
    }

    #[test]
    fn form_text_included_in_pc() {
        let pages = [
            "<form>departure city <input name=a></form>",
            "<p>something else entirely different</p><form><input name=b></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &opts());
        let departure = corpus.dict.get("departur").expect("interned");
        assert!(
            corpus.pc[0].get(departure) > 0.0,
            "PC must cover form text too"
        );
    }

    #[test]
    fn raw_tf_keeps_what_tfidf_drops() {
        // "privacy" on every page -> idf 0 -> absent from pc, but its raw
        // location-weighted frequency survives in pc_tf for BM25.
        let pages = [
            "<p>privacy flights flights</p><form><input name=a></form>",
            "<p>privacy jobs</p><form><input name=b></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &opts());
        assert_eq!(corpus.pc_tf.len(), corpus.len());
        let privacy = corpus.dict.get("privaci").expect("interned");
        assert_eq!(corpus.pc[0].get(privacy), 0.0, "idf-0 term dropped from pc");
        assert_eq!(corpus.pc_tf[0].get(privacy), 1.0, "raw tf retained");
        let flights = corpus.dict.get("flight").expect("interned");
        assert_eq!(corpus.pc_tf[0].get(flights), 2.0, "two body occurrences");
    }

    #[test]
    fn ubiquitous_terms_vanish() {
        // "privacy" on every page -> idf 0 -> absent from all vectors.
        let pages = [
            "<p>privacy flights</p><form><input name=a></form>",
            "<p>privacy jobs</p><form><input name=b></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &opts());
        let privacy = corpus.dict.get("privaci").expect("interned");
        assert_eq!(corpus.pc[0].get(privacy), 0.0);
        assert_eq!(corpus.pc[1].get(privacy), 0.0);
    }

    #[test]
    fn title_upweighted() {
        // Same word once in title (page 0) vs once in body (page 1); a
        // third page without it makes idf positive.
        let pages = [
            "<title>flights</title><p>x</p>",
            "<p>flights y</p>",
            "<p>unrelated z</p>",
        ];
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &opts());
        let flights = corpus.dict.get("flight").expect("interned");
        assert!(
            corpus.pc[0].get(flights) > corpus.pc[1].get(flights),
            "title occurrence must outweigh body occurrence"
        );
    }

    #[test]
    fn uniform_weights_remove_location_effect() {
        let pages = ["<title>flights</title>", "<p>flights</p>", "<p>other</p>"];
        let o = opts().with_weights(LocationWeights::uniform());
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &o);
        let flights = corpus.dict.get("flight").expect("interned");
        assert!((corpus.pc[0].get(flights) - corpus.pc[1].get(flights)).abs() < 1e-12);
    }

    #[test]
    fn options_downweighted_in_fc() {
        let pages = [
            "<form><select><option>texas</option></select> texas <input name=a></form>",
            "<form><input name=b></form>",
        ];
        let corpus = FormPageCorpus::from_html(pages.iter().copied(), &opts());
        let texas = corpus.dict.get("texa").expect("interned");
        // One occurrence at weight 0.5 (option) + one at 1.0 (form text)
        // = 1.5x idf; with uniform weights it would be 2x idf.
        let differentiated = corpus.fc[0].get(texas);
        let o = opts().with_weights(LocationWeights::uniform());
        let uniform_corpus = FormPageCorpus::from_html(pages.iter().copied(), &o);
        let uniform = uniform_corpus.fc[0].get(texas);
        assert!(differentiated < uniform);
    }

    #[test]
    fn graph_construction_with_anchors() {
        use cafc_webgraph::{Url, WebGraph};
        let mut g = WebGraph::new();
        let target = g.add_page(
            Url::parse("http://a.com/f").expect("url"),
            "<form>search <input name=q></form>".into(),
        );
        let hub = g.add_page(
            Url::parse("http://hub.com/").expect("url"),
            r#"<a href="http://a.com/f">discount airfare tickets</a>"#.into(),
        );
        g.add_link(hub, target);
        let corpus = FormPageCorpus::from_graph_with_anchors(&g, &[target], &opts());
        assert_eq!(corpus.len(), 1);
        // Anchor vocabulary was collected... but with a single page the idf
        // of every anchor term is ln(1/1)=0. Build with two pages instead.
        let target2 = g.add_page(
            Url::parse("http://b.com/f").expect("url"),
            "<form>keywords <input name=q></form>".into(),
        );
        let hub2 = g.add_page(
            Url::parse("http://hub2.com/").expect("url"),
            r#"<a href="http://b.com/f">engineering jobs board</a>"#.into(),
        );
        g.add_link(hub2, target2);
        let corpus = FormPageCorpus::from_graph_with_anchors(&g, &[target, target2], &opts());
        let airfare = corpus.dict.get("airfar").expect("anchor term interned");
        assert!(corpus.anchor[0].get(airfare) > 0.0);
        assert_eq!(corpus.anchor[1].get(airfare), 0.0);
    }

    #[test]
    fn from_graph_without_anchors_has_empty_anchor_vectors() {
        use cafc_webgraph::{Url, WebGraph};
        let mut g = WebGraph::new();
        let p = g.add_page(
            Url::parse("http://a.com/f").expect("url"),
            "<form><input name=q></form>".into(),
        );
        let corpus = FormPageCorpus::from_graph(&g, &[p], &ModelOptions::default());
        assert!(corpus.anchor[0].is_empty());
    }

    #[test]
    fn empty_corpus() {
        let corpus = FormPageCorpus::from_html(std::iter::empty(), &ModelOptions::default());
        assert!(corpus.is_empty());
    }

    #[test]
    fn ingest_clean_page_is_ok() {
        let pages = ["<title>Flights</title><p>airfare</p><form>depart <input name=d></form>"];
        let (corpus, report) =
            FormPageCorpus::from_html_ingest(pages.iter().copied(), &opts(), &Default::default());
        assert_eq!(corpus.len(), 1);
        assert_eq!(report.outcomes, vec![PageOutcome::Ok]);
        assert_eq!(report.kept, vec![0]);
        assert!(report.is_accounted());
    }

    #[test]
    fn ingest_quarantines_empty_and_oversized() {
        let big = "x".repeat(64);
        let limits = IngestLimits::new()
            .with_hard_max_bytes(32)
            .with_soft_max_bytes(16)
            .with_max_terms(1000);
        let pages = ["", "<!-- only a comment -->", big.as_str()];
        let (corpus, report) =
            FormPageCorpus::from_html_ingest(pages.iter().copied(), &opts(), &limits);
        assert!(corpus.is_empty());
        assert_eq!(report.quarantined(), 3);
        assert!(report.is_accounted());
        assert!(matches!(
            report.outcomes[2],
            PageOutcome::Quarantined {
                error: IngestError::TooLarge {
                    bytes: 64,
                    limit: 32
                }
            }
        ));
    }

    #[test]
    fn ingest_degrades_but_keeps() {
        // No title, no form -> two degradation reasons, page kept.
        let pages = ["<p>airfare deals and cheap flights</p>"];
        let (corpus, report) =
            FormPageCorpus::from_html_ingest(pages.iter().copied(), &opts(), &Default::default());
        assert_eq!(corpus.len(), 1);
        match &report.outcomes[0] {
            PageOutcome::Degraded { reasons } => {
                assert!(reasons.contains(&DegradedReason::MissingTitle));
                assert!(reasons.contains(&DegradedReason::NoFormContent));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert!(report.is_accounted());
    }

    #[test]
    fn ingest_soft_limit_truncates() {
        let body = format!(
            "<title>t</title><form>a <input name=q></form><p>{}</p>",
            "word ".repeat(4000)
        );
        let limits = IngestLimits::new().with_soft_max_bytes(256);
        let pages = [body.as_str()];
        let (corpus, report) =
            FormPageCorpus::from_html_ingest(pages.iter().copied(), &opts(), &limits);
        assert_eq!(corpus.len(), 1);
        match &report.outcomes[0] {
            PageOutcome::Degraded { reasons } => {
                assert!(reasons.contains(&DegradedReason::InputTruncated))
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn ingest_term_budget_applies() {
        let body = format!(
            "<title>t</title><form>q <input name=q></form><p>{}</p>",
            "flight ".repeat(64)
        );
        let limits = IngestLimits::new().with_max_terms(8);
        let pages = [body.as_str()];
        let (corpus, report) =
            FormPageCorpus::from_html_ingest(pages.iter().copied(), &opts(), &limits);
        assert_eq!(corpus.len(), 1);
        match &report.outcomes[0] {
            PageOutcome::Degraded { reasons } => {
                assert!(reasons.contains(&DegradedReason::TermBudgetExceeded))
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn term_budget_trips_only_on_a_term_past_it() {
        // Four PC terms: flight, departur, cheap, airfar. The last run of
        // text is all stopwords, and "the" trails the third run.
        for page in [
            "<title>Flights</title><form>departure <input name=q></form>\
             <p>cheap airfare</p><p>the of and</p>",
            "<title>Flights</title><form>departure <input name=q></form>\
             <p>cheap airfare the</p>",
        ] {
            let (unlimited, _) =
                FormPageCorpus::from_html_ingest([page], &opts(), &IngestLimits::new());
            // One page, so IDF zeroes `pc`; the raw frequencies keep it.
            assert_eq!(unlimited.pc_tf[0].nnz(), 4);
            let (exact, report) = FormPageCorpus::from_html_ingest(
                [page],
                &opts(),
                &IngestLimits::new().with_max_terms(4),
            );
            assert_eq!(report.outcomes[0], PageOutcome::Ok, "{page}");
            assert_eq!(exact.pc_tf[0], unlimited.pc_tf[0]);
            assert_eq!(exact.fc, unlimited.fc);
            assert_eq!(exact.dict.len(), unlimited.dict.len());
            // One term short: the page is trimmed, and the term left out
            // is never interned.
            let (short, report) = FormPageCorpus::from_html_ingest(
                [page],
                &opts(),
                &IngestLimits::new().with_max_terms(3),
            );
            assert_eq!(
                report.outcomes[0],
                PageOutcome::Degraded {
                    reasons: vec![DegradedReason::TermBudgetExceeded]
                }
            );
            assert_eq!(short.pc_tf[0].nnz(), 3);
            assert_eq!(short.dict.len(), 3);
        }
    }

    #[test]
    fn exec_policies_build_identical_corpora() {
        // More pages than one PAGE_CHUNK so the merge path actually runs
        // across chunk boundaries, with shared and page-unique vocabulary.
        let pages: Vec<String> = (0..40)
            .map(|i| {
                format!(
                    "<title>Page {i}</title><p>shared travel words unique{i} tail{}</p>\
                     <form>field{} <input name=q></form>",
                    i % 7,
                    i % 5
                )
            })
            .collect();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let baseline = FormPageCorpus::from_html_ingest_exec(
            refs.iter().copied(),
            &opts(),
            &IngestLimits::new(),
            ExecPolicy::Serial,
        );
        for policy in [
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
            ExecPolicy::Auto,
        ] {
            let (corpus, report) = FormPageCorpus::from_html_ingest_exec(
                refs.iter().copied(),
                &opts(),
                &IngestLimits::new(),
                policy,
            );
            assert_eq!(report, baseline.1, "{policy:?}");
            assert_eq!(corpus.dict.len(), baseline.0.dict.len(), "{policy:?}");
            for i in 0..corpus.len() {
                assert_eq!(corpus.pc[i], baseline.0.pc[i], "pc[{i}] under {policy:?}");
                assert_eq!(
                    corpus.pc_tf[i], baseline.0.pc_tf[i],
                    "pc_tf[{i}] under {policy:?}"
                );
                assert_eq!(corpus.fc[i], baseline.0.fc[i], "fc[{i}] under {policy:?}");
            }
        }
    }

    #[test]
    fn corpus_budget_quarantines_later_pages() {
        let pages: Vec<String> = (0..6)
            .map(|i| format!("<title>t{i}</title><p>travel word{i}</p><form>f{i} <input></form>"))
            .collect();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        // Establish the per-page cost, then budget for exactly two pages.
        let (_, unbounded) =
            FormPageCorpus::from_html_ingest(refs.iter().copied(), &opts(), &IngestLimits::new());
        assert_eq!(unbounded.kept.len(), 6);
        // A zero budget quarantines everything and reports each page's
        // exact cost in the error, so the test needs no knowledge of the
        // analyzer's term counts.
        let (_, zero) = FormPageCorpus::from_html_ingest(
            refs.iter().copied(),
            &opts(),
            &IngestLimits::new().with_max_corpus_bytes(0),
        );
        let costs: Vec<usize> = zero
            .outcomes
            .iter()
            .map(|o| match o {
                PageOutcome::Quarantined {
                    error: IngestError::BudgetExhausted { needed, .. },
                } => *needed,
                other => panic!("zero budget must quarantine, got {other:?}"),
            })
            .collect();
        assert!(costs.iter().all(|&c| c > 0));
        let limits = IngestLimits::new().with_max_corpus_bytes(costs[0] + costs[1]);
        let (corpus, report) =
            FormPageCorpus::from_html_ingest(refs.iter().copied(), &opts(), &limits);
        assert_eq!(corpus.len(), 2, "budget for two pages keeps two pages");
        assert_eq!(report.kept, vec![0, 1]);
        assert_eq!(report.quarantined(), 4);
        assert!(report.is_accounted());
        for outcome in &report.outcomes[2..] {
            assert!(
                matches!(
                    outcome,
                    PageOutcome::Quarantined {
                        error: IngestError::BudgetExhausted { .. }
                    }
                ),
                "over-budget page must carry the budget error, got {outcome:?}"
            );
        }
    }

    #[test]
    fn budget_decisions_survive_exec_policy_and_shard_size() {
        let pages: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    "<title>t{i}</title><p>shared unique{i}</p><form>f{} <input></form>",
                    i % 3
                )
            })
            .collect();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let base_limits = IngestLimits::new().with_max_corpus_bytes(1200);
        let baseline =
            FormPageCorpus::from_html_ingest(refs.iter().copied(), &opts(), &base_limits);
        assert!(baseline.1.quarantined() > 0, "budget must actually bind");
        assert!(!baseline.1.kept.is_empty());
        for shard_pages in [1, 3, 16, 100] {
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 5 }] {
                let limits = base_limits.with_shard_pages(shard_pages);
                let (corpus, report) = FormPageCorpus::from_html_ingest_exec(
                    refs.iter().copied(),
                    &opts(),
                    &limits,
                    policy,
                );
                assert_eq!(report, baseline.1, "shard_pages={shard_pages} {policy:?}");
                assert_eq!(corpus.dict.len(), baseline.0.dict.len());
                assert_eq!(
                    corpus.pc, baseline.0.pc,
                    "shard_pages={shard_pages} {policy:?}"
                );
                assert_eq!(
                    corpus.fc, baseline.0.fc,
                    "shard_pages={shard_pages} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn from_shards_matches_single_batch_for_any_partition() {
        let pages: Vec<String> = (0..23)
            .map(|i| {
                format!(
                    "<title>Page {i}</title><p>shared travel unique{i} tail{}</p>\
                     <form>field{} <input name=q></form>",
                    i % 7,
                    i % 5
                )
            })
            .collect();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let limits = IngestLimits::new();
        let baseline = FormPageCorpus::from_html_ingest(refs.iter().copied(), &opts(), &limits);
        // Partitions including empty and singleton shards (satellite edge
        // cases): every one must reproduce the single-batch build exactly.
        let partitions: Vec<Vec<Vec<String>>> = vec![
            vec![pages.clone()],
            pages.iter().map(|p| vec![p.clone()]).collect(),
            vec![
                pages[..5].to_vec(),
                Vec::new(),
                pages[5..6].to_vec(),
                pages[6..].to_vec(),
                Vec::new(),
            ],
        ];
        for (which, shards) in partitions.into_iter().enumerate() {
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 4 }] {
                let (corpus, report) =
                    FormPageCorpus::from_shards_exec(shards.clone(), &opts(), &limits, policy);
                assert_eq!(report, baseline.1, "partition {which} {policy:?}");
                assert_eq!(corpus.dict.len(), baseline.0.dict.len());
                for i in 0..corpus.len() {
                    assert_eq!(corpus.pc[i], baseline.0.pc[i], "partition {which} pc[{i}]");
                    assert_eq!(corpus.fc[i], baseline.0.fc[i], "partition {which} fc[{i}]");
                    assert_eq!(
                        corpus.pc_tf[i], baseline.0.pc_tf[i],
                        "partition {which} pc_tf[{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn from_shards_of_only_empty_shards_is_empty() {
        let (corpus, report) = FormPageCorpus::from_shards(
            vec![Vec::new(), Vec::new()],
            &opts(),
            &IngestLimits::new(),
        );
        assert!(corpus.is_empty());
        assert_eq!(report.total(), 0);
        assert!(report.is_accounted());
    }

    #[test]
    fn ingest_control_chars_reported() {
        let pages = ["<title>flights</title>\u{0}<form>departure <input name=a></form>"];
        let (_, report) =
            FormPageCorpus::from_html_ingest(pages.iter().copied(), &opts(), &Default::default());
        match &report.outcomes[0] {
            PageOutcome::Degraded { reasons } => {
                assert!(reasons.contains(&DegradedReason::ControlCharsStripped))
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }
}
