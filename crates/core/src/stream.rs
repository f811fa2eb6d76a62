//! Streaming ingestion with incremental clustering (ROADMAP item 1).
//!
//! The batch pipeline parses, vectorizes, and clusters a finished corpus in
//! one shot. [`StreamCorpus`] instead absorbs pages *as the crawler finds
//! them*: each arrival is fed chunk-by-chunk through the incremental HTML
//! parser, vectorized against the live [`TermDict`](cafc_text::TermDict) with the corpus's
//! per-space collection statistics (updated per arrival, so streamed
//! vectors stay on the batch scale), appended to the corpus, and assigned
//! to the nearest existing cluster centroid immediately — the paper's §5
//! "classify new sources against built clusters", made operational.
//!
//! Nearest-centroid assignment slowly degrades a partition: centroids
//! absorb every arrival, including border cases a fresh k-means would place
//! elsewhere. Two repair mechanisms bound that decay, both running at
//! deterministic page-count boundaries so same-seed replays are
//! byte-identical (see DESIGN.md §16):
//!
//! * every [`repair_interval`](StreamConfig::repair_interval) arrivals, a
//!   **mini-batch pass** re-evaluates the arrivals since the last repair
//!   against current centroids (fanned out on the `cafc-exec` layer) and
//!   moves the ones that landed in the wrong cluster;
//! * after each mini-batch pass, **centroid drift** — how far centroids
//!   have moved since the last full clustering — is measured, and when it
//!   exceeds [`drift_threshold`](StreamConfig::drift_threshold) the whole
//!   corpus is re-clustered with k-means seeded from the current members,
//!   resetting the drift baseline.
//!
//! Observability: `stream.pages_assigned`, `stream.pages_quarantined`,
//! `stream.repairs`, `stream.moved`, and `stream.reclusters` counters plus
//! the `stream.drift` gauge.

use crate::incremental::IncrementalClusters;
use crate::ingest::{IngestLimits, PageOutcome};
use crate::model::{page_outcome, FormPageCorpus, ModelOptions, PageTerms};
use crate::space::{FeatureConfig, FormPageSpace};
use cafc_cluster::{kmeans, KMeansOptions, Partition};
use cafc_exec::{par_map_slice, ExecPolicy};
use cafc_html::{strip_control_chars, LocatedSink, StreamingParser};
use cafc_obs::Obs;
use cafc_text::TermId;
use cafc_vsm::{weigh, SparseVector};

/// Iteration cap for the drift-triggered re-cluster.
const RECLUSTER_ITERATIONS: usize = 20;

/// Streaming-ingestion knobs.
///
/// Construct with [`StreamConfig::new`] plus the chainable `with_*`
/// setters; `#[non_exhaustive]` so future knobs are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct StreamConfig {
    /// Feature spaces used for assignment and repair similarity.
    pub feature: FeatureConfig,
    /// Vectorization options; must match the seed corpus's build for the
    /// streamed vectors to live on the same scale.
    pub opts: ModelOptions,
    /// Hardened-ingestion limits applied to each arrival.
    pub limits: IngestLimits,
    /// Arrivals between repair passes.
    pub repair_interval: usize,
    /// Mean centroid drift (see [`IncrementalClusters::drift`]) above which
    /// a repair pass escalates to a full re-cluster.
    pub drift_threshold: f64,
    /// Execution policy for repair passes and re-clustering.
    pub policy: ExecPolicy,
}

impl Default for StreamConfig {
    /// Combined FC+PC features, default model options and limits, a repair
    /// pass every 32 arrivals, re-cluster past 0.25 mean drift.
    fn default() -> Self {
        StreamConfig {
            feature: FeatureConfig::combined(),
            opts: ModelOptions::default(),
            limits: IngestLimits::default(),
            repair_interval: 32,
            drift_threshold: 0.25,
            policy: ExecPolicy::Serial,
        }
    }
}

impl StreamConfig {
    /// The default configuration (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the feature spaces used for assignment similarity.
    pub fn with_feature(mut self, feature: FeatureConfig) -> Self {
        self.feature = feature;
        self
    }

    /// Set the vectorization options.
    pub fn with_opts(mut self, opts: ModelOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the per-arrival ingestion limits.
    pub fn with_limits(mut self, limits: IngestLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Set the number of arrivals between repair passes (minimum 1).
    pub fn with_repair_interval(mut self, interval: usize) -> Self {
        self.repair_interval = interval.max(1);
        self
    }

    /// Set the drift threshold that escalates repair to a re-cluster.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Set the execution policy for repair and re-cluster passes.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// What happened to one streamed-in page.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Corpus index of the page, if it was kept.
    pub page: Option<usize>,
    /// Cluster the page was assigned to, if it was kept.
    pub cluster: Option<usize>,
    /// The hardened-ingestion outcome (ok / degraded / quarantined).
    pub outcome: PageOutcome,
    /// Centroid drift measured by the repair pass, if one ran after this
    /// arrival.
    pub drift: Option<f64>,
    /// Items moved between clusters by the mini-batch pass, if one ran.
    pub moved: Option<usize>,
    /// Whether drift escalated the repair into a full re-cluster.
    pub reclustered: bool,
}

/// A clustered corpus that grows: seed it with a batch-built corpus and
/// partition, then stream pages in.
pub struct StreamCorpus {
    corpus: FormPageCorpus,
    clusters: IncrementalClusters,
    config: StreamConfig,
    obs: Obs,
    term_buf: Vec<TermId>,
    /// Pages appended since the last repair pass.
    recent: Vec<usize>,
    streamed: u64,
}

impl StreamCorpus {
    /// Wrap a batch-built corpus and its partition for streaming growth.
    pub fn new(
        corpus: FormPageCorpus,
        partition: &Partition,
        config: StreamConfig,
        obs: Obs,
    ) -> StreamCorpus {
        let clusters = {
            let space = FormPageSpace::new(&corpus, config.feature);
            IncrementalClusters::from_partition(&space, partition)
        };
        StreamCorpus {
            corpus,
            clusters,
            config,
            obs,
            term_buf: Vec::new(),
            recent: Vec::new(),
            streamed: 0,
        }
    }

    /// The corpus as it currently stands (seed pages plus kept arrivals).
    pub fn corpus(&self) -> &FormPageCorpus {
        &self.corpus
    }

    /// The current clustering state.
    pub fn clusters(&self) -> &IncrementalClusters {
        &self.clusters
    }

    /// Snapshot the current clustering as a [`Partition`].
    pub fn partition(&self) -> Partition {
        self.clusters.to_partition(self.corpus.len())
    }

    /// Total pages streamed in (kept or not).
    pub fn streamed(&self) -> u64 {
        self.streamed
    }

    /// Stream one page in as HTML chunks: incremental parse, hardened
    /// ingestion, vectorize against the live dictionary, append, assign.
    ///
    /// Chunks are pushed through a [`StreamingParser`] over the same
    /// located-text sink as the batch pipeline, as they come — sanitized
    /// per chunk (control-char stripping is per-character, so chunking
    /// cannot change it) and truncated at the soft byte limit — so each
    /// text run is analysed as it is parsed, under the same budget and
    /// outcome taxonomy as the batch pipeline.
    pub fn ingest_chunks<'a, I>(&mut self, chunks: I) -> Arrival
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.streamed += 1;
        let limits = self.config.limits;
        let terms_before = self.corpus.dict.len();
        let mut terms = PageTerms::new(
            &self.config.opts,
            limits.max_terms,
            &mut self.corpus.dict,
            &mut self.term_buf,
            &self.obs,
        );
        let mut parser =
            StreamingParser::with_sink(LocatedSink::new(|text, loc| terms.run(text, loc)));
        let mut bytes_seen = 0usize;
        let mut stripped_any = false;
        let mut truncated = false;
        for chunk in chunks {
            if bytes_seen >= limits.hard_max_bytes {
                // Past the hard limit the page is quarantined whatever its
                // content; stop paying for parsing it.
                bytes_seen += chunk.len();
                continue;
            }
            // Soft limit: feed only the prefix that fits, on a char
            // boundary — mid-tag cuts are what the streaming parser absorbs.
            let budget = limits.soft_max_bytes.saturating_sub(bytes_seen);
            bytes_seen += chunk.len();
            let fed = if chunk.len() > budget {
                truncated = true;
                let mut cut = budget;
                while cut > 0 && !chunk.is_char_boundary(cut) {
                    cut -= 1;
                }
                &chunk[..cut]
            } else {
                chunk
            };
            let (clean, stripped) = strip_control_chars(fed);
            stripped_any |= stripped;
            parser.push_chunk(&clean);
        }
        let (sink, stats) = parser.finish_sink();
        let has_title = sink.has_title();
        let page = terms.finish(has_title, stats);
        if bytes_seen > limits.hard_max_bytes {
            // The text fed before the limit was known is forgotten, so the
            // page leaves no terms behind.
            self.corpus.dict.truncate(terms_before);
            self.obs.incr("stream.pages_quarantined");
            return Arrival {
                page: None,
                cluster: None,
                outcome: PageOutcome::Quarantined {
                    error: crate::ingest::IngestError::TooLarge {
                        bytes: bytes_seen,
                        limit: limits.hard_max_bytes,
                    },
                },
                drift: None,
                moved: None,
                reclustered: false,
            };
        }
        let mut reasons = Vec::new();
        if truncated {
            reasons.push(crate::ingest::DegradedReason::InputTruncated);
        }
        if stripped_any {
            reasons.push(crate::ingest::DegradedReason::ControlCharsStripped);
        }
        let (outcome, counts) = page_outcome(page, reasons, &self.obs);
        let Some((pc_counts, fc_counts)) = counts else {
            self.obs.incr("stream.pages_quarantined");
            return Arrival {
                page: None,
                cluster: None,
                outcome,
                drift: None,
                moved: None,
                reclustered: false,
            };
        };

        // Fold the arrival into the collection statistics first, then weigh
        // it — mirroring the batch build, where every page contributes to
        // the DF its own weights are computed from.
        self.corpus.pc_df.add_counts(&pc_counts);
        self.corpus.fc_df.add_counts(&fc_counts);
        let opts = &self.config.opts;
        let pc = weigh(&pc_counts, &self.corpus.pc_df, opts.tf, opts.idf);
        let fc = weigh(&fc_counts, &self.corpus.fc_df, opts.tf, opts.idf);
        let page = self.corpus.len();
        self.corpus.pc.push(pc);
        self.corpus.pc_tf.push(pc_counts.tf());
        self.corpus.fc.push(fc);
        // Streamed arrivals carry no in-link anchor text; the empty vector
        // drops out of the Equation 3 average.
        self.corpus.anchor.push(SparseVector::empty());
        self.obs.gauge("corpus.pages", self.corpus.len() as f64);
        self.obs
            .gauge("corpus.terms", self.corpus.dict.len() as f64);

        let space = FormPageSpace::new(&self.corpus, self.config.feature);
        let cluster = self.clusters.assign(&space, page);
        self.obs.incr("stream.pages_assigned");
        self.recent.push(page);

        let (drift, moved, reclustered) = if self.recent.len() >= self.config.repair_interval {
            let (drift, moved, reclustered) = self.repair();
            (Some(drift), Some(moved), reclustered)
        } else {
            (None, None, false)
        };
        Arrival {
            page: Some(page),
            cluster: Some(cluster),
            outcome,
            drift,
            moved,
            reclustered,
        }
    }

    /// Stream one page in as a single HTML string.
    pub fn ingest_html(&mut self, html: &str) -> Arrival {
        self.ingest_chunks(std::iter::once(html))
    }

    /// Run a repair pass now: mini-batch reassignment of the arrivals since
    /// the last pass, then drift measurement, escalating to a full
    /// re-cluster past the threshold. Returns `(drift, moved, reclustered)`.
    ///
    /// Deterministic for a given corpus state: the mini-batch fan-out uses
    /// the bit-stable `cafc-exec` primitives and moves are applied in page
    /// order, so every [`ExecPolicy`] produces the same clustering.
    pub fn repair(&mut self) -> (f64, usize, bool) {
        self.obs.incr("stream.repairs");
        let recent = std::mem::take(&mut self.recent);
        let moved = self.mini_batch(&recent);
        let space = FormPageSpace::new(&self.corpus, self.config.feature);
        let drift = self.clusters.drift(&space);
        self.obs.gauge("stream.drift", drift);
        let reclustered = drift > self.config.drift_threshold;
        if reclustered {
            self.obs.incr("stream.reclusters");
            let seeds: Vec<Vec<usize>> = self
                .clusters
                .members()
                .iter()
                .filter(|m| !m.is_empty())
                .cloned()
                .collect();
            let outcome = kmeans(
                &space,
                &seeds,
                &KMeansOptions::new().with_max_iterations(RECLUSTER_ITERATIONS),
                self.config.policy,
                &self.obs,
            );
            self.clusters = IncrementalClusters::from_partition(&space, &outcome.partition);
        }
        (drift, moved, reclustered)
    }

    /// Re-evaluate `items` against the current centroids in parallel and
    /// move the misassigned ones, refreshing affected clusters once at the
    /// end. Returns how many items moved.
    fn mini_batch(&mut self, items: &[usize]) -> usize {
        let space = FormPageSpace::new(&self.corpus, self.config.feature);
        // One closure per item, read-only over the cached centroids — the
        // same floats under every policy.
        let clusters = &self.clusters;
        let best: Vec<Option<usize>> = par_map_slice(self.config.policy, items, |_, &item| {
            clusters.nearest(&space, item)
        });
        let mut moved = 0usize;
        let mut touched: Vec<usize> = Vec::new();
        for (&item, &target) in items.iter().zip(&best) {
            let Some(target) = target else {
                continue;
            };
            let Some(current) = self
                .clusters
                .members()
                .iter()
                .position(|m| m.contains(&item))
            else {
                continue;
            };
            if current != target {
                self.clusters.move_item(item, current, target);
                moved += 1;
                touched.push(current);
                touched.push(target);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.clusters.refresh_centroids(&space, &touched);
        if moved > 0 {
            self.obs.add("stream.moved", moved as u64);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_obs::Obs;

    const AIRFARE: [&str; 2] = [
        "<p>airfare flights travel airline deals</p><form>departure <input name=a></form>",
        "<p>flights airfare vacation travel</p><form>arrival <input name=b></form>",
    ];
    const CAREERS: [&str; 2] = [
        "<p>careers employment salary resume</p><form>keywords <input name=c></form>",
        "<p>employment careers hiring resume</p><form>category <input name=d></form>",
    ];

    /// Batch-build the 4 seed pages and wrap them for streaming.
    fn seeded(config: StreamConfig, obs: Obs) -> StreamCorpus {
        let pages = AIRFARE.iter().chain(CAREERS.iter()).copied();
        let corpus =
            FormPageCorpus::from_html(pages, &config.opts, ExecPolicy::Serial, &Obs::disabled());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 4);
        StreamCorpus::new(corpus, &partition, config, obs)
    }

    const ARRIVAL_AIRFARE: &str = "<title>airfare deals</title>\
         <p>airline flights airfare deals</p><form>departure <input name=a></form>";
    const ARRIVAL_CAREERS: &str = "<title>careers hiring</title>\
         <p>careers salary openings hiring</p><form>keywords <input name=c></form>";

    #[test]
    fn arrivals_join_matching_clusters() {
        let mut sc = seeded(StreamConfig::new(), Obs::disabled());
        let a = sc.ingest_html(ARRIVAL_AIRFARE);
        assert_eq!(a.page, Some(4));
        assert_eq!(a.cluster, Some(0));
        assert_eq!(a.outcome, PageOutcome::Ok);
        let b = sc.ingest_html(ARRIVAL_CAREERS);
        assert_eq!(b.page, Some(5));
        assert_eq!(b.cluster, Some(1));
        assert_eq!(sc.corpus().len(), 6);
        assert_eq!(sc.streamed(), 2);
        let partition = sc.partition();
        assert_eq!(partition.clusters()[0], vec![0, 1, 4]);
        assert_eq!(partition.clusters()[1], vec![2, 3, 5]);
    }

    #[test]
    fn chunked_ingestion_matches_whole() {
        // The same page pushed whole or in tiny chunks — including cuts
        // inside tags — must produce the identical arrival and clustering.
        let mut whole = seeded(StreamConfig::new(), Obs::disabled());
        let mut chunked = seeded(StreamConfig::new(), Obs::disabled());
        for page in [ARRIVAL_AIRFARE, ARRIVAL_CAREERS] {
            let a = whole.ingest_html(page);
            let pieces: Vec<&str> = page
                .as_bytes()
                .chunks(3)
                .map(|c| std::str::from_utf8(c).expect("ascii page"))
                .collect();
            let b = chunked.ingest_chunks(pieces.iter().copied());
            assert_eq!(a, b, "page {page:?} diverged under chunking");
        }
        assert_eq!(whole.partition(), chunked.partition());
        assert_eq!(whole.corpus().pc, chunked.corpus().pc);
        assert_eq!(whole.corpus().fc, chunked.corpus().fc);
    }

    #[test]
    fn oversized_arrival_is_quarantined() {
        let config = StreamConfig::new().with_limits(IngestLimits::new().with_hard_max_bytes(64));
        let mut sc = seeded(config, Obs::disabled());
        let terms = sc.corpus().dict.len();
        let big = format!("<p>{}</p>", "zygote airfare ".repeat(16));
        let arrival = sc.ingest_html(&big);
        assert_eq!(arrival.page, None);
        assert_eq!(arrival.cluster, None);
        assert!(
            matches!(
                arrival.outcome,
                PageOutcome::Quarantined {
                    error: crate::ingest::IngestError::TooLarge { .. }
                }
            ),
            "outcome: {:?}",
            arrival.outcome
        );
        assert_eq!(sc.corpus().len(), 4, "quarantined page must not be kept");
        assert_eq!(sc.streamed(), 1);
        // Its text was analysed as it was parsed, before the size was
        // known; none of its terms may stay behind.
        assert_eq!(sc.corpus().dict.len(), terms);
        assert_eq!(sc.corpus().dict.get("zygot"), None);
    }

    #[test]
    fn empty_page_content_is_quarantined_without_breaking_the_stream() {
        let mut sc = seeded(StreamConfig::new(), Obs::disabled());
        let arrival = sc.ingest_html("<form><input name=only></form>");
        assert_eq!(arrival.page, None);
        assert!(matches!(arrival.outcome, PageOutcome::Quarantined { .. }));
        // The stream keeps going afterwards.
        let next = sc.ingest_html(ARRIVAL_AIRFARE);
        assert_eq!(next.page, Some(4));
        assert_eq!(next.cluster, Some(0));
    }

    #[test]
    fn soft_limit_truncates_and_degrades() {
        let config = StreamConfig::new().with_limits(IngestLimits::new().with_soft_max_bytes(70));
        let mut sc = seeded(config, Obs::disabled());
        let long = format!(
            "<p>airfare flights travel airline deals {}</p>",
            "filler ".repeat(40)
        );
        let arrival = sc.ingest_html(&long);
        assert_eq!(arrival.page, Some(4), "soft-limited page is kept");
        match &arrival.outcome {
            PageOutcome::Degraded { reasons } => assert!(
                reasons.contains(&crate::ingest::DegradedReason::InputTruncated),
                "reasons: {reasons:?}"
            ),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn repair_runs_at_the_configured_interval() {
        let obs = Obs::enabled();
        let config = StreamConfig::new().with_repair_interval(2);
        let mut sc = seeded(config, obs.clone());
        let first = sc.ingest_html(ARRIVAL_AIRFARE);
        assert_eq!(first.drift, None, "no repair before the interval");
        let second = sc.ingest_html(ARRIVAL_CAREERS);
        assert!(second.drift.is_some(), "repair fires on the interval");
        assert_eq!(second.moved, Some(0), "well-separated arrivals stay put");
        let snap = obs.snapshot();
        let count = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(count("stream.pages_assigned"), 2);
        assert_eq!(count("stream.repairs"), 1);
        assert!(
            snap.gauges.iter().any(|(k, _)| k == "stream.drift"),
            "drift gauge recorded"
        );
    }

    #[test]
    fn mini_batch_moves_a_misplaced_arrival_back() {
        let mut sc = seeded(StreamConfig::new(), Obs::enabled());
        let a = sc.ingest_html(ARRIVAL_AIRFARE);
        sc.ingest_html(ARRIVAL_CAREERS);
        // Forge a wrong state: push the airfare arrival into the careers
        // cluster, then let the repair pass notice and undo it.
        sc.clusters.move_item(a.page.unwrap(), 0, 1);
        let (_, moved, _) = sc.repair();
        assert_eq!(moved, 1, "repair must move the misplaced arrival");
        assert_eq!(sc.partition().clusters()[0], vec![0, 1, 4]);
        assert_eq!(sc.partition().clusters()[1], vec![2, 3, 5]);
    }

    #[test]
    fn drift_past_threshold_triggers_a_recluster() {
        // A negative threshold makes any drift (always >= 0) escalate.
        let obs = Obs::enabled();
        let config = StreamConfig::new()
            .with_repair_interval(2)
            .with_drift_threshold(-1.0);
        let mut sc = seeded(config, obs.clone());
        sc.ingest_html(ARRIVAL_AIRFARE);
        let second = sc.ingest_html(ARRIVAL_CAREERS);
        assert!(second.reclustered, "arrival: {second:?}");
        let snap = obs.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|(k, v)| k == "stream.reclusters" && *v == 1));
        // The re-cluster keeps the two topical clusters intact.
        let clusters = sc.partition();
        assert_eq!(clusters.num_clusters(), 2);
        assert_eq!(clusters.num_assigned(), 6);
    }

    #[test]
    fn parallel_repair_matches_serial() {
        let serial = {
            let config = StreamConfig::new().with_repair_interval(2);
            let mut sc = seeded(config, Obs::disabled());
            for page in [ARRIVAL_AIRFARE, ARRIVAL_CAREERS, ARRIVAL_AIRFARE] {
                sc.ingest_html(page);
            }
            sc.partition()
        };
        let parallel = {
            let config = StreamConfig::new()
                .with_repair_interval(2)
                .with_policy(ExecPolicy::Parallel { threads: 3 });
            let mut sc = seeded(config, Obs::disabled());
            for page in [ARRIVAL_AIRFARE, ARRIVAL_CAREERS, ARRIVAL_AIRFARE] {
                sc.ingest_html(page);
            }
            sc.partition()
        };
        assert_eq!(serial, parallel);
    }

    #[test]
    fn same_input_replays_identically() {
        let run = || {
            let config = StreamConfig::new().with_repair_interval(3);
            let mut sc = seeded(config, Obs::disabled());
            let arrivals: Vec<Arrival> = [
                ARRIVAL_AIRFARE,
                ARRIVAL_CAREERS,
                "<p>resume employment salary careers</p><form>industry <input name=h></form>",
                "<p>travel airfare airline vacation</p><form>cabin <input name=g></form>",
            ]
            .iter()
            .map(|page| sc.ingest_html(page))
            .collect();
            (arrivals, sc.partition())
        };
        assert_eq!(run(), run());
    }
}
