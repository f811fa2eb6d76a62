//! # cafc-cluster
//!
//! Clustering algorithms for CAFC, generic over a [`ClusterSpace`] — an
//! abstraction of "n items with centroids and a similarity in `\[0, 1\]`".
//! The core crate instantiates the space with form pages whose similarity
//! is Equation 3 (the weighted average of per-feature-space cosines); the
//! algorithms here never see feature spaces, only similarities.
//!
//! Provided algorithms:
//!
//! * [`kmeans()`] — the paper's k-means variant (Algorithm 1): centroid
//!   assignment loop that stops when fewer than a configurable fraction of
//!   items (10 % in the paper) change cluster;
//! * [`hac()`] — hierarchical agglomerative clustering with single, complete,
//!   average and centroid linkage, supporting a non-trivial starting
//!   partition (Table 2 runs HAC seeded with hub clusters);
//! * [`seed`] — seeding strategies: random singletons, the greedy
//!   farthest-first selection over candidate clusters used by
//!   `SelectHubClusters` (Algorithm 3), and HAC-over-sample seeding (§4.3).
//!
//! For large `n`, [`kmeans_minibatch()`] runs seeded mini-batch
//! assignment; `batch_size ≥ n` degrades to full k-means, bit-identically.

#![warn(missing_docs)]

pub mod bisect;
pub mod hac;
pub mod kmeans;
pub mod minibatch;
pub mod partition;
pub mod resume;
pub mod seed;
pub mod space;
pub mod sparse;
pub mod validity;

pub use bisect::{bisecting_kmeans, BisectOptions};
pub use cafc_exec::ExecPolicy;
pub use cafc_obs::Obs;
pub use hac::{hac, HacOptions, Linkage};
pub use kmeans::{kmeans, nearest_centroid, KMeansOptions, KMeansOutcome};
pub use minibatch::{kmeans_minibatch, MiniBatchOptions};
pub use partition::Partition;
pub use resume::{hac_resumable, kmeans_resumable};
pub use seed::{greedy_distant_seeds, kmeanspp_seeds, random_singleton_seeds};
pub use space::{ClusterSpace, DenseSpace};
pub use sparse::{kmeans_sparse_exec, SparseClusterSpace};
pub use validity::{choose_k, mean_silhouette, silhouette_of};
