//! K-means with the CAFC stopping rule (Algorithm 1 of the paper).
//!
//! The variant used by CAFC-C differs from textbook k-means in two ways
//! that we reproduce faithfully:
//!
//! * seeds are *clusters* (possibly multi-member — hub clusters in
//!   CAFC-CH), not necessarily single points;
//! * the loop stops when fewer than 10 % of items move between clusters,
//!   not on full convergence ("until fewer than 10 % of the form pages move
//!   across clusters").

use crate::partition::Partition;
use crate::resume::KMeansCheckpointer;
use crate::space::ClusterSpace;
use cafc_exec::{par_chunks_obs, par_map_obs, ExecPolicy};
use cafc_obs::{Obs, FRACTION_BUCKETS};
use cafc_store::StoreError;

/// K-means options.
///
/// Construct with [`KMeansOptions::default`] (the paper's configuration)
/// plus the chainable `with_*` setters; the struct is `#[non_exhaustive]`
/// so future fields are not breaking changes.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct KMeansOptions {
    /// Stop when the fraction of items that changed cluster in an iteration
    /// drops below this value (paper: 0.10).
    pub move_fraction_threshold: f64,
    /// Hard iteration cap (safety net; the paper's criterion converges in a
    /// handful of iterations on its data).
    pub max_iterations: usize,
}

impl Default for KMeansOptions {
    fn default() -> Self {
        KMeansOptions {
            move_fraction_threshold: 0.10,
            max_iterations: 100,
        }
    }
}

impl KMeansOptions {
    /// The paper's configuration (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the move-fraction stopping threshold.
    pub fn with_move_fraction_threshold(mut self, threshold: f64) -> Self {
        self.move_fraction_threshold = threshold;
        self
    }

    /// Set the hard iteration cap.
    pub fn with_max_iterations(mut self, cap: usize) -> Self {
        self.max_iterations = cap;
        self
    }

    /// Run to stability: a tiny move threshold and a generous iteration
    /// cap, for tests and experiments that want full convergence.
    pub fn strict() -> Self {
        Self::default()
            .with_move_fraction_threshold(1e-9)
            .with_max_iterations(100)
    }
}

/// K-means result.
#[derive(Debug, Clone)]
pub struct KMeansOutcome {
    /// Final partition of all items into `k` clusters (some possibly empty).
    pub partition: Partition,
    /// Number of assignment iterations performed.
    pub iterations: usize,
    /// Whether the move-fraction criterion was met on a non-empty input.
    /// `false` when the loop stopped on the iteration cap **and** when
    /// there were no items to converge on (`n == 0`) — an empty input never
    /// satisfied the criterion, it just had nothing to do.
    pub converged: bool,
}

/// Run k-means from the given seed clusters.
///
/// `seeds` supplies the initial clusters whose centroids start the loop;
/// member indices must be valid items of `space`. All items (including any
/// not mentioned in `seeds`) are assigned in the first iteration.
///
/// Degenerate inputs fall back gracefully instead of panicking (adversarial
/// corpora routinely produce them — see DESIGN.md §8): empty seed clusters
/// are dropped, and when no usable seed remains the result is a single
/// cluster holding every item (empty for an empty space).
///
/// The assignment step and the per-cluster centroid rebuild fan out across
/// threads under `policy`. Results are bit-identical for every policy:
/// assignments are an order-preserving [`par_map`](cafc_exec::par_map),
/// and the centroid of each cluster is computed by one closure regardless
/// of the thread count.
///
/// Emits, when `obs` has a sink: spans `kmeans.assign` / `kmeans.update`
/// (orchestrating thread, aggregated across iterations), counter
/// `kmeans.iterations`, gauge `kmeans.converged` (0/1), and histogram
/// `kmeans.moved_fraction` (one observation per iteration over
/// [`FRACTION_BUCKETS`]). The output is the same with or without a sink.
pub fn kmeans<S>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    policy: ExecPolicy,
    obs: &Obs,
) -> KMeansOutcome
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    match kmeans_driver(space, seeds, opts, policy, obs, None) {
        Ok(outcome) => outcome,
        // Unreachable: the driver only fails through a checkpointer.
        Err(_) => KMeansOutcome {
            partition: Partition::new(Vec::new(), space.len()),
            iterations: 0,
            converged: false,
        },
    }
}

/// The nearest-centroid argmax every assignment path shares: one
/// similarity per `(index, centroid)` pair, in the order given, and a
/// centroid wins only by a strictly greater similarity. Ties therefore go
/// to the earliest pair, and so does the pick when no similarity exceeds
/// `-∞` (all NaN). Returns the winner's index and similarity (`-∞` in that
/// last case), or `None` when `centroids` is empty.
pub fn nearest_centroid<'c, S>(
    space: &S,
    centroids: impl IntoIterator<Item = (usize, &'c S::Centroid)>,
    item: usize,
) -> Option<(usize, f64)>
where
    S: ClusterSpace + ?Sized,
    S::Centroid: 'c,
{
    let mut centroids = centroids.into_iter().peekable();
    let mut best = (centroids.peek()?.0, f64::NEG_INFINITY);
    for (c, centroid) in centroids {
        let sim = space.similarity(centroid, item);
        if sim > best.1 {
            best = (c, sim);
        }
    }
    Some(best)
}

/// Items per unit of the assignment pass. A unit scores centroid-major
/// over its run of items, so a space's batched scorer
/// ([`ClusterSpace::similarities`]) pays its per-centroid set-up once per
/// this many items.
const ASSIGN_CHUNK: usize = 1024;

/// The full assignment pass: every item scores against every centroid,
/// and keeps [`nearest_centroid`]'s rule — centroids in ascending index,
/// the first one starting at `-∞`, a later one winning only by a strictly
/// greater similarity — so ties and non-finite similarities resolve to
/// the lowest cluster index (0 when there are no centroids). Scoring runs
/// centroid-major within fixed runs of [`ASSIGN_CHUNK`] items; each item's
/// pick depends only on its own similarities, so the result is the same
/// for every chunking and every [`ExecPolicy`].
pub(crate) fn dense_assign<S>(
    space: &S,
    centroids: &[S::Centroid],
    policy: ExecPolicy,
    obs: &Obs,
) -> Vec<usize>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let chunks = par_chunks_obs(
        policy,
        space.len(),
        ASSIGN_CHUNK,
        obs,
        "kmeans.assign",
        |items| {
            let mut best = vec![(0, f64::NEG_INFINITY); items.len()];
            let mut sims = vec![0.0; items.len()];
            for (c, centroid) in centroids.iter().enumerate() {
                space.similarities(centroid, items.clone(), &mut sims);
                for (best, &sim) in best.iter_mut().zip(&sims) {
                    if sim > best.1 {
                        *best = (c, sim);
                    }
                }
            }
            best
        },
    );
    chunks.into_iter().flatten().map(|(c, _)| c).collect()
}

/// The k-means loop proper, shared by the plain entry points (no
/// checkpointer) and [`kmeans_resumable`](crate::kmeans_resumable): the
/// checkpointer journals every iteration's assignment vector and, on
/// resume, replays journaled iterations instead of recomputing the
/// O(n·k) similarity pass. Centroids are rebuilt from the assignments
/// either way, so replayed and live iterations are bit-identical.
pub(crate) fn kmeans_driver<S>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    policy: ExecPolicy,
    obs: &Obs,
    ckpt: Option<&mut KMeansCheckpointer<'_>>,
) -> Result<KMeansOutcome, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    kmeans_driver_with(space, seeds, opts, policy, obs, ckpt, &dense_assign)
}

/// [`kmeans_driver`] generic over the assignment step: `assign` maps the
/// current centroids to one cluster index per item. Mini-batch k-means
/// (`minibatch.rs`) swaps in a strategy that re-scores a sample; the loop
/// around it (move counting, centroid rebuild, stopping rule, checkpoint
/// journaling) is shared so strategies can never diverge on anything but
/// the O(n·k) similarity pass.
pub(crate) fn kmeans_driver_with<S, A>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    policy: ExecPolicy,
    obs: &Obs,
    mut ckpt: Option<&mut KMeansCheckpointer<'_>>,
    assign: &A,
) -> Result<KMeansOutcome, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
    A: Fn(&S, &[S::Centroid], ExecPolicy, &Obs) -> Vec<usize>,
{
    let n = space.len();
    let seeds: Vec<&Vec<usize>> = seeds.iter().filter(|s| !s.is_empty()).collect();
    if seeds.is_empty() {
        let clusters = if n == 0 {
            Vec::new()
        } else {
            vec![(0..n).collect()]
        };
        return Ok(KMeansOutcome {
            partition: Partition::new(clusters, n),
            iterations: 0,
            // The single-cluster fallback is trivially stable, but an empty
            // input never met the criterion — there was nothing to cluster.
            converged: n > 0,
        });
    }
    let k = seeds.len();
    let mut centroids: Vec<S::Centroid> = seeds.iter().map(|s| space.centroid(s)).collect();

    // usize::MAX marks "not yet assigned" so the first pass counts all items
    // as moved.
    let mut assignment = vec![usize::MAX; n];
    let mut iterations = 0;
    let mut converged = false;

    // A cap of 0 would leave items unassigned (usize::MAX); always run at
    // least one assignment pass.
    while iterations < opts.max_iterations.max(1) {
        iterations += 1;
        obs.incr("kmeans.iterations");
        // A journaled iteration from an interrupted run replays its
        // recorded assignments, skipping the O(n·k) similarity pass.
        let replayed = match ckpt.as_mut() {
            Some(c) => c.replay_iteration(iterations - 1, n, k)?,
            None => None,
        };
        // Deterministic argmax per item: ties (and non-finite similarities,
        // which never compare greater) resolve to the lowest cluster index.
        // Order-preserving map -> identical assignments for every policy.
        let best_of = match replayed {
            Some(assignments) => assignments,
            None => {
                let best_of = {
                    let _span = obs.span("kmeans.assign");
                    assign(space, &centroids, policy, obs)
                };
                if let Some(c) = ckpt.as_mut() {
                    c.record_iteration(iterations - 1, &best_of)?;
                }
                best_of
            }
        };
        let mut moved = 0usize;
        for (assigned, best) in assignment.iter_mut().zip(best_of) {
            if *assigned != best {
                moved += 1;
                *assigned = best;
            }
        }
        // Recompute centroids (one closure per cluster — the reduction over
        // a cluster's members never splits, so its float accumulation order
        // is fixed); a starved cluster keeps its previous centroid so it can
        // re-acquire items later.
        let update_span = obs.span("kmeans.update");
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (item, &c) in assignment.iter().enumerate() {
            members[c].push(item);
        }
        let rebuilt = par_map_obs(policy, k, obs, "kmeans.update", |c| {
            let m = &members[c];
            (!m.is_empty()).then(|| space.centroid(m))
        });
        for (c, rebuilt) in rebuilt.into_iter().enumerate() {
            if let Some(centroid) = rebuilt {
                centroids[c] = centroid;
            }
        }
        drop(update_span);
        if n == 0 {
            // No items: nothing can converge, and no further iteration can
            // change that. (Unreachable with valid seeds, which must index
            // into the space, but degenerate inputs take this exit.)
            break;
        }
        let moved_fraction = (moved as f64) / (n as f64);
        obs.observe_in("kmeans.moved_fraction", &FRACTION_BUCKETS, moved_fraction);
        if moved_fraction < opts.move_fraction_threshold {
            converged = true;
            break;
        }
    }

    if let Some(c) = ckpt.as_mut() {
        c.finish(iterations)?;
    }
    obs.gauge("kmeans.converged", if converged { 1.0 } else { 0.0 });
    let partition = Partition::from_assignments(&assignment, k);
    Ok(KMeansOutcome {
        partition,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DenseSpace;

    /// Two well-separated 1-D blobs.
    fn blobs() -> DenseSpace {
        DenseSpace::new(vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![10.0],
            vec![10.1],
            vec![10.2],
        ])
    }

    fn strict() -> KMeansOptions {
        // move threshold tiny -> run to stability
        KMeansOptions::strict()
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let space = blobs();
        let baseline = kmeans(
            &space,
            &[vec![0], vec![3]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        for policy in [
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
            ExecPolicy::Auto,
        ] {
            let out = kmeans(
                &space,
                &[vec![0], vec![3]],
                &strict(),
                policy,
                &Obs::disabled(),
            );
            assert_eq!(out.partition, baseline.partition, "{policy:?}");
            assert_eq!(out.iterations, baseline.iterations, "{policy:?}");
        }
    }

    #[test]
    fn separates_blobs() {
        let space = blobs();
        let out = kmeans(
            &space,
            &[vec![0], vec![3]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert!(out.converged);
        let clusters = out.partition.clusters();
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn recovers_from_bad_seeds_in_same_blob() {
        let space = blobs();
        // Both seeds in the left blob; the right blob initially joins the
        // nearer seed, then pulls its centroid across.
        let out = kmeans(
            &space,
            &[vec![0], vec![2]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let clusters = out.partition.clusters();
        // All six items assigned.
        assert_eq!(out.partition.num_assigned(), 6);
        // The two blobs never share a cluster with each other... actually
        // with seeds 0 and 2 the split is {0,1} / {2,3,4,5} at first, and
        // converges to blob-pure clusters.
        assert!(
            clusters
                .iter()
                .all(|c| { c.iter().all(|&i| i < 3) || c.iter().all(|&i| i >= 3) }),
            "clusters mix blobs: {clusters:?}"
        );
    }

    #[test]
    fn multi_member_seed_clusters() {
        let space = blobs();
        let out = kmeans(
            &space,
            &[vec![0, 1, 2], vec![3, 4, 5]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        // Iteration 1 assigns everyone (all "move" from unassigned);
        // iteration 2 confirms stability.
        assert_eq!(
            out.iterations, 2,
            "perfect seeds converge after the confirming pass"
        );
        assert_eq!(out.partition.clusters()[0], vec![0, 1, 2]);
    }

    #[test]
    fn paper_stopping_rule_stops_early() {
        let space = blobs();
        // 10% of 6 items = 0.6 -> stops as soon as <1 item moves... the
        // first pass moves all 6, so it needs at least 2 iterations.
        let out = kmeans(
            &space,
            &[vec![0], vec![3]],
            &KMeansOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert!(out.converged);
        assert!(out.iterations >= 2);
    }

    #[test]
    fn k_equals_one() {
        let space = blobs();
        let out = kmeans(
            &space,
            &[vec![0]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition.clusters()[0].len(), 6);
    }

    #[test]
    fn deterministic() {
        let space = blobs();
        let a = kmeans(
            &space,
            &[vec![1], vec![4]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let b = kmeans(
            &space,
            &[vec![1], vec![4]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn single_item_space() {
        let space = DenseSpace::new(vec![vec![1.0]]);
        let out = kmeans(
            &space,
            &[vec![0]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition.clusters(), &[vec![0]]);
        assert!(out.converged);
    }

    #[test]
    fn no_seeds_falls_back_to_single_cluster() {
        let space = blobs();
        let out = kmeans(&space, &[], &strict(), ExecPolicy::Serial, &Obs::disabled());
        assert!(out.converged);
        assert_eq!(out.partition.clusters(), &[vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn empty_seed_clusters_are_dropped() {
        let space = blobs();
        // One empty + one usable seed: behaves like k = 1.
        let out = kmeans(
            &space,
            &[vec![], vec![0]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition.clusters().len(), 1);
        assert_eq!(out.partition.num_assigned(), 6);
        // All seeds empty: same single-cluster fallback as no seeds at all.
        let out = kmeans(
            &space,
            &[vec![]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.partition.clusters(), &[vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn empty_space_yields_empty_partition() {
        let space = DenseSpace::new(Vec::new());
        let out = kmeans(&space, &[], &strict(), ExecPolicy::Serial, &Obs::disabled());
        assert!(
            !out.converged,
            "an empty input never met the move criterion"
        );
        assert!(out.partition.clusters().is_empty());
    }

    #[test]
    fn iteration_cap_exit_reports_not_converged() {
        let space = blobs();
        // One pass assigns all 6 items (all "move" from unassigned), so the
        // strict criterion cannot be met within a single iteration.
        let opts = KMeansOptions::strict().with_max_iterations(1);
        let out = kmeans(
            &space,
            &[vec![0], vec![3]],
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.iterations, 1);
        assert!(!out.converged, "cap exit must not claim convergence");
        assert_eq!(out.partition.num_assigned(), 6);
    }

    #[test]
    fn max_iterations_one_can_still_converge() {
        let space = blobs();
        // The default 10% threshold is also unreachable in one pass, but a
        // threshold above 1.0 is satisfied by any pass.
        let opts = KMeansOptions::new()
            .with_move_fraction_threshold(1.1)
            .with_max_iterations(1);
        let out = kmeans(
            &space,
            &[vec![0], vec![3]],
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn max_iterations_zero_is_clamped_to_one_pass() {
        // A literal 0 cap must not leave items unassigned (or panic); it
        // behaves like a cap of 1 and reports the cap exit.
        let space = blobs();
        let opts = KMeansOptions::strict().with_max_iterations(0);
        let out = kmeans(
            &space,
            &[vec![0], vec![3]],
            &opts,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.iterations, 1);
        assert!(!out.converged);
        assert_eq!(out.partition.num_assigned(), 6);
    }

    #[test]
    fn obs_instrumentation_does_not_perturb_results() {
        let space = blobs();
        let plain = kmeans(
            &space,
            &[vec![0], vec![3]],
            &strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let obs = cafc_obs::Obs::enabled();
        let instrumented = kmeans(
            &space,
            &[vec![0], vec![3]],
            &strict(),
            ExecPolicy::Serial,
            &obs,
        );
        assert_eq!(instrumented.partition, plain.partition);
        assert_eq!(instrumented.iterations, plain.iterations);
        let snap = obs.snapshot();
        let iters = snap
            .counters
            .iter()
            .find(|(name, _)| name == "kmeans.iterations")
            .map(|(_, v)| *v);
        assert_eq!(iters, Some(plain.iterations as u64));
        assert!(snap
            .histograms
            .iter()
            .any(|(name, _)| name == "kmeans.moved_fraction"));
    }
}
