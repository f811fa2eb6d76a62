//! The unified front door: one builder that wires model construction,
//! hardened ingestion, feature configuration, algorithm choice and the
//! execution policy together.
//!
//! Each stage it wires is also one public function —
//! [`FormPageCorpus::from_html`], [`FormPageCorpus::from_graph`],
//! [`FormPageCorpus::from_shards`], [`cafc_c`], [`cafc_ch`], [`hac()`] and
//! [`bisecting_kmeans`] — taking the execution policy and the
//! observability handle as its last two arguments. The pipeline passes its
//! own [`ExecPolicy`] and [`Obs`] to every stage, so one builder call sets
//! both for the whole run:
//!
//! ```
//! use cafc::prelude::*;
//! use cafc_corpus::{generate, CorpusConfig};
//!
//! let web = generate(&CorpusConfig::small(7));
//! let targets = web.form_page_ids();
//!
//! let outcome = Pipeline::builder()
//!     .algorithm(Algorithm::CafcCh(CafcChConfig::paper_default(8)))
//!     .exec(ExecPolicy::Auto)
//!     .seed(1)
//!     .build()
//!     .run_graph(&web.graph, &targets)
//!     .expect("graph input satisfies CAFC-CH");
//! assert_eq!(outcome.partition.num_clusters(), 8);
//! ```

use crate::algorithms::{cafc_c, cafc_ch, CafcChConfig};
use crate::ingest::{IngestLimits, IngestReport};
use crate::model::{FormPageCorpus, ModelOptions};
use crate::space::{FeatureConfig, FormPageSpace};
use cafc_cluster::{
    bisecting_kmeans, hac, BisectOptions, HacOptions, KMeansOptions, Linkage, Partition,
};
use cafc_exec::ExecPolicy;
use cafc_obs::Obs;
use cafc_webgraph::{HubStats, PageId, WebGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Which clustering algorithm the pipeline runs.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Algorithm {
    /// CAFC-C (Algorithm 1): k-means from random singleton seeds.
    CafcC {
        /// Number of clusters.
        k: usize,
    },
    /// CAFC-CH (Algorithms 2–3): hub-cluster seeds, then k-means. Requires
    /// graph input ([`Pipeline::run_graph`]).
    CafcCh(CafcChConfig),
    /// Hierarchical agglomerative clustering from singletons (§4.3).
    Hac {
        /// Target number of clusters.
        k: usize,
        /// Linkage criterion.
        linkage: Linkage,
    },
    /// Bisecting k-means (the \[31\] baseline).
    Bisect {
        /// Target number of clusters.
        k: usize,
        /// Trial splits per bisection.
        trials: usize,
    },
}

impl Default for Algorithm {
    /// The paper's headline algorithm at its headline configuration.
    fn default() -> Self {
        Algorithm::CafcCh(CafcChConfig::default())
    }
}

/// Why a pipeline run could not produce a clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The configured algorithm needs backlink structure; feed the pipeline
    /// through [`Pipeline::run_graph`] instead of [`Pipeline::run_html`].
    NeedsGraph,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NeedsGraph => write!(
                f,
                "the configured algorithm requires a web graph; use run_graph"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Algorithm-specific result details beyond the partition itself.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum AlgorithmDetails {
    /// CAFC-C / plain k-means loop statistics.
    KMeans {
        /// Assignment iterations performed.
        iterations: usize,
        /// Whether the move-fraction criterion was met.
        converged: bool,
    },
    /// CAFC-CH seeding and loop statistics.
    CafcCh {
        /// Hub construction statistics (§3.1 numbers).
        hub_stats: HubStats,
        /// Seeds taken from hub clusters.
        hub_seeds: usize,
        /// Seeds padded with random singletons.
        padded_seeds: usize,
        /// Hub clusters dropped by the quality gate.
        quality_rejected: usize,
        /// Assignment iterations performed.
        iterations: usize,
        /// Whether the move-fraction criterion was met.
        converged: bool,
    },
    /// HAC has no extra statistics.
    Hac,
    /// Bisecting k-means has no extra statistics.
    Bisect,
}

/// Everything one pipeline run produces.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineOutcome {
    /// The clustering.
    pub partition: Partition,
    /// The vectorized corpus the clustering ran over.
    pub corpus: FormPageCorpus,
    /// Per-page ingestion accounting — `Some` only when ingest limits were
    /// configured and the input was raw HTML.
    pub ingest: Option<IngestReport>,
    /// Algorithm-specific statistics.
    pub details: AlgorithmDetails,
}

/// A fully configured CAFC run: model → features → algorithm, under one
/// execution policy. Build with [`Pipeline::builder`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    model: ModelOptions,
    limits: Option<IngestLimits>,
    features: FeatureConfig,
    algorithm: Algorithm,
    exec: ExecPolicy,
    seed: u64,
    anchors: bool,
    obs: Obs,
}

impl Pipeline {
    /// Start configuring a pipeline. Every knob has the paper's default.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The configured execution policy.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.exec
    }

    /// The observability handle this pipeline records into (disabled unless
    /// the builder installed one via [`PipelineBuilder::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Cluster raw HTML documents.
    ///
    /// When ingest limits are configured the hardened ingestion layer runs
    /// and the outcome carries an [`IngestReport`]; otherwise all pages are
    /// vectorized directly. Fails with [`PipelineError::NeedsGraph`] if the
    /// configured algorithm needs backlink structure.
    pub fn run_html(&self, pages: &[&str]) -> Result<PipelineOutcome, PipelineError> {
        if matches!(self.algorithm, Algorithm::CafcCh(_)) {
            return Err(PipelineError::NeedsGraph);
        }
        let (corpus, ingest) = match &self.limits {
            Some(limits) => {
                let (corpus, report) =
                    FormPageCorpus::from_shards([pages], &self.model, limits, self.exec, &self.obs);
                (corpus, Some(report))
            }
            None => (
                FormPageCorpus::from_html(pages.iter().copied(), &self.model, self.exec, &self.obs),
                None,
            ),
        };
        let (partition, details) = self.cluster(&corpus, None)?;
        Ok(PipelineOutcome {
            partition,
            corpus,
            ingest,
            details,
        })
    }

    /// Cluster target pages stored in a web graph (with anchor-text vectors
    /// when the builder enabled them).
    pub fn run_graph(
        &self,
        graph: &WebGraph,
        targets: &[PageId],
    ) -> Result<PipelineOutcome, PipelineError> {
        let corpus = FormPageCorpus::from_graph(
            graph,
            targets,
            &self.model,
            self.anchors,
            self.exec,
            &self.obs,
        );
        let (partition, details) = self.cluster(&corpus, Some((graph, targets)))?;
        Ok(PipelineOutcome {
            partition,
            corpus,
            ingest: None,
            details,
        })
    }

    fn cluster(
        &self,
        corpus: &FormPageCorpus,
        graph: Option<(&WebGraph, &[PageId])>,
    ) -> Result<(Partition, AlgorithmDetails), PipelineError> {
        let space = FormPageSpace::new(corpus, self.features);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let _cluster_span = self.obs.span("cluster");
        match &self.algorithm {
            Algorithm::CafcC { k } => {
                let out = cafc_c(
                    &space,
                    *k,
                    &KMeansOptions::default(),
                    &mut rng,
                    self.exec,
                    &self.obs,
                );
                Ok((
                    out.partition,
                    AlgorithmDetails::KMeans {
                        iterations: out.iterations,
                        converged: out.converged,
                    },
                ))
            }
            Algorithm::CafcCh(config) => {
                let Some((graph, targets)) = graph else {
                    return Err(PipelineError::NeedsGraph);
                };
                let out = cafc_ch(
                    graph, targets, &space, config, &mut rng, self.exec, &self.obs,
                );
                Ok((
                    out.outcome.partition,
                    AlgorithmDetails::CafcCh {
                        hub_stats: out.hub_stats,
                        hub_seeds: out.hub_seeds,
                        padded_seeds: out.padded_seeds,
                        quality_rejected: out.quality_rejected,
                        iterations: out.outcome.iterations,
                        converged: out.outcome.converged,
                    },
                ))
            }
            Algorithm::Hac { k, linkage } => {
                let opts = HacOptions {
                    target_clusters: *k,
                    linkage: *linkage,
                };
                Ok((
                    hac(&space, &[], &opts, self.exec, &self.obs),
                    AlgorithmDetails::Hac,
                ))
            }
            Algorithm::Bisect { k, trials } => {
                let opts = BisectOptions {
                    target_clusters: *k,
                    trials: *trials,
                    kmeans: KMeansOptions::default(),
                };
                let p = bisecting_kmeans(&space, &opts, &mut rng, self.exec, &self.obs);
                Ok((p, AlgorithmDetails::Bisect))
            }
        }
    }
}

/// Builder for [`Pipeline`]; every knob defaults to the paper's
/// configuration with serial execution.
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    model: ModelOptions,
    limits: Option<IngestLimits>,
    features: FeatureConfig,
    algorithm: Algorithm,
    exec: ExecPolicy,
    seed: u64,
    anchors: bool,
    obs: Obs,
}

impl PipelineBuilder {
    /// Set the form-page model options (Equation 1).
    pub fn model(mut self, model: ModelOptions) -> Self {
        self.model = model;
        self
    }

    /// Enable hardened ingestion (HTML input only) with these limits.
    pub fn ingest_limits(mut self, limits: IngestLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Set the feature-space configuration (Equation 3).
    pub fn features(mut self, features: FeatureConfig) -> Self {
        self.features = features;
        self
    }

    /// Set the clustering algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the execution policy. Results are bit-identical for every
    /// policy; only wall-clock changes.
    pub fn exec(mut self, policy: ExecPolicy) -> Self {
        self.exec = policy;
        self
    }

    /// Set the RNG seed used for random seeding and seed padding.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build anchor-text vectors (§6) when the input is a web graph.
    pub fn anchors(mut self, anchors: bool) -> Self {
        self.anchors = anchors;
        self
    }

    /// Install an observability handle; every stage of the run records
    /// metrics and spans into it. Defaults to [`Obs::disabled`] (near-zero
    /// cost). The clustering result is bit-identical either way.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Finalize the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            model: self.model,
            limits: self.limits,
            features: self.features,
            algorithm: self.algorithm,
            exec: self.exec,
            seed: self.seed,
            anchors: self.anchors,
            obs: self.obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages() -> Vec<&'static str> {
        vec![
            "<title>Flights</title><p>airfare travel deals vacation</p>\
             <form>departure arrival <input name=a></form>",
            "<p>airfare travel bargain vacation</p>\
             <form>departure return cabin <input name=b></form>",
            "<title>Jobs</title><p>careers employment salary resume</p>\
             <form>keywords category location <input name=c></form>",
            "<title>Hiring</title><p>careers salary openings resume</p>\
             <form>keywords location <input name=d></form>",
        ]
    }

    #[test]
    fn html_kmeans_roundtrip() {
        let out = Pipeline::builder()
            .algorithm(Algorithm::CafcC { k: 2 })
            .seed(3)
            .build()
            .run_html(&pages())
            .expect("CafcC accepts HTML input");
        assert_eq!(out.partition.num_clusters(), 2);
        assert_eq!(out.corpus.len(), 4);
        assert!(out.ingest.is_none());
        assert!(matches!(out.details, AlgorithmDetails::KMeans { .. }));
    }

    #[test]
    fn html_with_limits_reports_ingestion() {
        let mut p = pages();
        p.push(""); // quarantined: no analyzable text
        let out = Pipeline::builder()
            .algorithm(Algorithm::Hac {
                k: 2,
                linkage: Linkage::Average,
            })
            .ingest_limits(IngestLimits::new())
            .build()
            .run_html(&p)
            .expect("HAC accepts HTML input");
        let report = out.ingest.expect("limits configured");
        assert_eq!(report.total(), 5);
        assert_eq!(report.quarantined(), 1);
        assert!(report.is_accounted());
        assert_eq!(out.corpus.len(), 4);
    }

    #[test]
    fn cafc_ch_needs_graph() {
        let err = Pipeline::builder()
            .algorithm(Algorithm::default())
            .build()
            .run_html(&pages())
            .expect_err("CAFC-CH cannot run without backlinks");
        assert_eq!(err, PipelineError::NeedsGraph);
        assert!(err.to_string().contains("run_graph"));
    }

    #[test]
    fn bisect_runs() {
        let out = Pipeline::builder()
            .algorithm(Algorithm::Bisect { k: 2, trials: 3 })
            .seed(5)
            .build()
            .run_html(&pages())
            .expect("bisect accepts HTML input");
        assert_eq!(out.partition.num_clusters(), 2);
        assert!(matches!(out.details, AlgorithmDetails::Bisect));
    }
}
