//! Seeded mini-batch k-means for large `n`.
//!
//! Classic mini-batch k-means (Sculley, WWW 2010) trades assignment work
//! for convergence speed: each iteration scores only a random batch of
//! items against the centroids. Our variant keeps the CAFC driver loop
//! (move counting over all items, full-assignment centroid rebuild, the
//! paper's move-fraction stopping rule — see [`kmeans`](fn@crate::kmeans))
//! and swaps only the assignment step:
//!
//! * **iteration 1** runs a full dense pass, so every item is assigned
//!   before the first centroid rebuild (the driver marks unassigned items
//!   with `usize::MAX`, which must never reach the rebuild);
//! * **later iterations** re-score only a seeded batch of
//!   [`batch_size`](MiniBatchOptions::batch_size) items — chosen by a
//!   partial Fisher–Yates shuffle driven by a local splitmix64 stream
//!   keyed on `(seed, iteration)` — and items outside the batch keep
//!   their previous cluster.
//!
//! Batch selection depends only on `(n, batch_size, seed, iteration)` —
//! never on thread count — and the batch itself is scored by an
//! order-preserving parallel map, so results are bit-identical across
//! [`ExecPolicy`] values. With `batch_size ≥ n` every iteration
//! short-circuits to the full dense pass, making the outcome bit-identical
//! to [`kmeans`](crate::kmeans::kmeans) — the differential oracle pinned
//! in `tests/props.rs`.

use crate::kmeans::{
    dense_assign, kmeans_driver_with, nearest_centroid, KMeansOptions, KMeansOutcome,
};
use crate::partition::Partition;
use crate::space::ClusterSpace;
use cafc_exec::{par_map_obs, ExecPolicy};
use cafc_obs::Obs;
use std::cell::RefCell;

/// Mini-batch configuration.
///
/// Construct with [`MiniBatchOptions::new`] plus the chainable `with_*`
/// setters; the struct is `#[non_exhaustive]` so future fields are not
/// breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct MiniBatchOptions {
    /// Items re-scored per iteration after the first (clamped to ≥ 1;
    /// values ≥ n degrade to full-batch k-means, bit-identically).
    pub batch_size: usize,
    /// Seed for the per-iteration batch selection stream.
    pub seed: u64,
}

impl Default for MiniBatchOptions {
    fn default() -> Self {
        MiniBatchOptions {
            batch_size: 1024,
            seed: 0,
        }
    }
}

impl MiniBatchOptions {
    /// Default configuration (batch of 1024, seed 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-iteration batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Set the batch-selection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One step of the splitmix64 stream (Steele et al., the same generator
/// behind cafc-check's `Seed`); local so batch selection cannot drift if
/// a dependency changes its RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The batch for one iteration: `min(b, n)` distinct item indices chosen
/// by a partial Fisher–Yates shuffle, returned ascending. Depends only on
/// the arguments — not on thread count or prior assignments.
fn batch_indices(n: usize, b: usize, seed: u64, iteration: usize) -> Vec<usize> {
    let take = b.min(n);
    let mut state = seed ^ (iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..take {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool.sort_unstable();
    pool
}

/// Mini-batch k-means from the given seed clusters.
///
/// Shares the driver loop with [`kmeans`](crate::kmeans::kmeans): the
/// move fraction is still counted over **all** items (out-of-batch items
/// never move, so small batches converge on the same threshold scale as
/// the full algorithm), and centroids are rebuilt from the complete
/// current assignment each iteration. Bit-identical under every `policy`,
/// and emits the same metrics as [`kmeans`](crate::kmeans::kmeans).
pub fn kmeans_minibatch<S>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    mb: &MiniBatchOptions,
    policy: ExecPolicy,
    obs: &Obs,
) -> KMeansOutcome
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let n = space.len();
    let batch_size = mb.batch_size.max(1);
    let seed = mb.seed;
    // The strategy closure is stateful (iteration counter + the previous
    // full assignment); the driver calls it once per iteration from the
    // orchestrating thread, so a RefCell suffices.
    let state: RefCell<(usize, Vec<usize>)> = RefCell::new((0, Vec::new()));
    let assign = |space: &S, centroids: &[S::Centroid], policy: ExecPolicy, obs: &Obs| {
        let mut st = state.borrow_mut();
        st.0 += 1;
        let iteration = st.0;
        let out = if iteration == 1 || batch_size >= n {
            dense_assign(space, centroids, policy, obs)
        } else {
            let batch = batch_indices(n, batch_size, seed, iteration);
            let scored = par_map_obs(policy, batch.len(), obs, "kmeans.assign", |slot| {
                nearest_centroid(space, centroids.iter().enumerate(), batch[slot])
                    .map_or(0, |(c, _)| c)
            });
            let mut out = st.1.clone();
            for (slot, &item) in batch.iter().enumerate() {
                out[item] = scored[slot];
            }
            out
        };
        st.1 = out.clone();
        out
    };
    match kmeans_driver_with(space, seeds, opts, policy, obs, None, &assign) {
        Ok(outcome) => outcome,
        // Unreachable: the driver only fails through a checkpointer.
        Err(_) => KMeansOutcome {
            partition: Partition::new(Vec::new(), n),
            iterations: 0,
            converged: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use crate::space::DenseSpace;

    fn blobs(n_per: usize) -> DenseSpace {
        let mut points = Vec::new();
        for i in 0..n_per {
            points.push(vec![(i as f64) * 0.01]);
        }
        for i in 0..n_per {
            points.push(vec![10.0 + (i as f64) * 0.01]);
        }
        DenseSpace::new(points)
    }

    #[test]
    fn batch_indices_are_distinct_sorted_and_deterministic() {
        let a = batch_indices(100, 17, 42, 3);
        let b = batch_indices(100, 17, 42, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 17);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup, a, "sorted with no duplicates");
        assert!(a.iter().all(|&i| i < 100));
        // Different iterations draw different batches (overwhelmingly).
        assert_ne!(batch_indices(100, 17, 42, 4), a);
    }

    #[test]
    fn batch_larger_than_n_takes_everything() {
        assert_eq!(batch_indices(5, 99, 7, 2), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn batch_eq_n_matches_full_kmeans_exactly() {
        let space = blobs(20);
        let seeds = [vec![0], vec![25]];
        let full = kmeans(
            &space,
            &seeds,
            &KMeansOptions::strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let mb = MiniBatchOptions::new().with_batch_size(space.points().len());
        let out = kmeans_minibatch(
            &space,
            &seeds,
            &KMeansOptions::strict(),
            &mb,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition, full.partition);
        assert_eq!(out.iterations, full.iterations);
        assert_eq!(out.converged, full.converged);
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let space = blobs(20);
        let seeds = [vec![0], vec![25]];
        let mb = MiniBatchOptions::new().with_batch_size(8).with_seed(9);
        let baseline = kmeans_minibatch(
            &space,
            &seeds,
            &KMeansOptions::strict(),
            &mb,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        for policy in [
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
            ExecPolicy::Auto,
        ] {
            let out = kmeans_minibatch(
                &space,
                &seeds,
                &KMeansOptions::strict(),
                &mb,
                policy,
                &Obs::disabled(),
            );
            assert_eq!(out.partition, baseline.partition, "{policy:?}");
            assert_eq!(out.iterations, baseline.iterations, "{policy:?}");
        }
    }

    #[test]
    fn small_batches_still_assign_every_item() {
        let space = blobs(20);
        let seeds = [vec![0], vec![25]];
        let mb = MiniBatchOptions::new().with_batch_size(3).with_seed(1);
        let out = kmeans_minibatch(
            &space,
            &seeds,
            &KMeansOptions::new(),
            &mb,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition.num_assigned(), 40);
    }

    #[test]
    fn degenerate_inputs_fall_back_like_kmeans() {
        let space = DenseSpace::new(Vec::new());
        let out = kmeans_minibatch(
            &space,
            &[],
            &KMeansOptions::strict(),
            &MiniBatchOptions::new(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert!(out.partition.clusters().is_empty());
        assert!(!out.converged);
        let space = blobs(3);
        let reference = kmeans(
            &space,
            &[],
            &KMeansOptions::strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let out = kmeans_minibatch(
            &space,
            &[],
            &KMeansOptions::strict(),
            &MiniBatchOptions::new(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition, reference.partition);
    }
}
