//! # cafc — Context-Aware Form Clustering
//!
//! A complete implementation of **"Organizing Hidden-Web Databases by
//! Clustering Visible Web Documents"** (Barbosa, Freire & Silva, ICDE
//! 2007): given a heterogeneous set of searchable Web forms — the entry
//! points to hidden-web databases — group them by the database domain they
//! front, using only *visible*, automatically extractable context.
//!
//! ## The pieces
//!
//! * [`FormPageCorpus`] — the form-page model `FP(PC, FC)` (§2.1): each
//!   page as two TF-IDF vectors, page contents and form contents, with
//!   location-aware term weights ([`LocationWeights`], Equation 1).
//! * [`FormPageSpace`] + [`FeatureConfig`] — the Equation-3 similarity
//!   (per-space cosines, weighted average) as a clustering space.
//! * [`cafc_c`] — Algorithm 1: k-means from random seeds with the paper's
//!   <10 %-moved stopping rule.
//! * [`cafc_ch`] — Algorithms 2–3: hub clusters from shared backlinks
//!   (intra-site hubs eliminated, small clusters pruned), greedy
//!   farthest-first selection of `k` seed clusters, then k-means. Hub
//!   evidence *reinforces* content evidence instead of being mixed into a
//!   single weighted measure.
//! * [`assign_to_clusters`] — the §5 application: classify new sources
//!   against an existing clustering.
//! * [`baseline::MixedSimilaritySpace`] — the design the paper rejects (one
//!   α-weighted text+link similarity), implemented so the architectural
//!   claim is benchmarkable.
//!
//! ## Quickstart
//!
//! ```
//! use cafc::prelude::*;
//! use cafc_corpus::{generate, CorpusConfig};
//!
//! // A synthetic deep web (the offline stand-in for the paper's corpus).
//! let web = generate(&CorpusConfig::small(7));
//! let targets = web.form_page_ids();
//!
//! // Model construction, CAFC-CH with k = 8, and parallel execution, all
//! // behind one builder. Results are bit-identical for every ExecPolicy.
//! let outcome = Pipeline::builder()
//!     .algorithm(Algorithm::CafcCh(CafcChConfig::paper_default(8)))
//!     .exec(ExecPolicy::Auto)
//!     .seed(1)
//!     .build()
//!     .run_graph(&web.graph, &targets)
//!     .expect("graph input satisfies CAFC-CH");
//!
//! // Evaluate against the generator's gold labels.
//! let entropy = cafc_eval::entropy(
//!     outcome.partition.clusters(),
//!     &web.labels(),
//!     cafc_eval::EntropyBase::Two,
//! );
//! assert!(entropy < 1.5, "hub-seeded clustering should be far from random");
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod assign;
pub mod baseline;
pub mod bench;
pub mod incremental;
pub mod ingest;
pub mod model;
pub mod pipeline;
pub mod resume;
pub mod search;
pub mod space;
pub mod stream;

/// The deterministic execution layer ([`cafc_exec`]), re-exported: scoped
/// thread pool, [`exec::ExecPolicy`], and the order-preserving `par_*`
/// primitives the whole pipeline is built on.
pub use cafc_exec as exec;

/// The observability layer ([`cafc_obs`]), re-exported: the [`Obs`] handle
/// threaded through every pipeline stage, plus its clocks, configuration
/// and snapshot types.
pub use cafc_obs as obs;

pub use algorithms::{
    cafc_c, cafc_ch, hub_cluster_quality, select_hub_clusters, CafcChConfig, CafcChOutcome,
};
pub use assign::assign_to_clusters;
pub use bench::{run_bench, BenchConfig, BenchReport, BenchStage};
pub use exec::ExecPolicy;
pub use incremental::IncrementalClusters;
pub use ingest::{DegradedReason, IngestError, IngestLimits, IngestReport, PageOutcome};
pub use model::{FormPageCorpus, LocationWeights, ModelOptions};
pub use pipeline::{
    Algorithm, AlgorithmDetails, Pipeline, PipelineBuilder, PipelineError, PipelineOutcome,
};
pub use search::{
    IndexDict, SearchAlgorithm, SearchConfig, SearchIndex, SearchOutcome, SearchPipeline,
    SearchPipelineBuilder,
};
pub use space::{FeatureConfig, FormPageSpace, MultiCentroid};
pub use stream::{Arrival, StreamConfig, StreamCorpus};

// Re-export the pieces callers almost always need alongside the core API.
pub use cafc_cluster::{HacOptions, KMeansOptions, Linkage, Partition};
pub use cafc_index::{Bm25Params, Hit, InvertedIndex, ScanStats};
pub use cafc_obs::{ManualClock, MonotonicClock, Obs, ObsConfig, Snapshot};
pub use cafc_vsm::{IdfScheme, TfScheme};
pub use cafc_webgraph::{HubClusterOptions, HubStats};

/// One-stop imports for the redesigned API surface.
///
/// `use cafc::prelude::*;` brings in the [`Pipeline`] builder, the
/// [`Algorithm`] and [`ExecPolicy`] enums, every configuration type they
/// consume, and the outcome types a run produces.
pub mod prelude {
    pub use crate::exec::ExecPolicy;
    pub use crate::pipeline::{
        Algorithm, AlgorithmDetails, Pipeline, PipelineBuilder, PipelineError, PipelineOutcome,
    };
    pub use crate::search::{
        IndexDict, SearchAlgorithm, SearchConfig, SearchIndex, SearchOutcome, SearchPipeline,
        SearchPipelineBuilder,
    };
    pub use crate::{
        CafcChConfig, FeatureConfig, FormPageCorpus, FormPageSpace, IngestLimits, IngestReport,
        KMeansOptions, Linkage, LocationWeights, ModelOptions, Obs, Partition,
    };
}
