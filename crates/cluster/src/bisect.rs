//! Bisecting k-means (Steinbach, Karypis & Kumar, KDD TextMining 2000 —
//! the paper's reference \[31\] for document-clustering practice).
//!
//! Starts with everything in one cluster and repeatedly splits the largest
//! cluster with 2-means (taking the best of several trial splits), until
//! the target cluster count is reached. Often more robust than flat
//! k-means with random seeds, and a natural extra baseline next to the
//! paper's Table 2.

use crate::kmeans::{kmeans, KMeansOptions};
use crate::partition::Partition;
use crate::space::ClusterSpace;
use cafc_exec::{par_reduce, ExecPolicy};
use cafc_obs::Obs;
use rand::seq::index::sample;
use rand::Rng;

/// Bisecting k-means options.
#[derive(Debug, Clone, Copy)]
pub struct BisectOptions {
    /// Target number of clusters.
    pub target_clusters: usize,
    /// Trial 2-means splits per bisection; the split with the highest
    /// within-cluster similarity wins (paper \[31\] uses a small constant).
    pub trials: usize,
    /// Options for the inner 2-means runs.
    pub kmeans: KMeansOptions,
}

impl Default for BisectOptions {
    fn default() -> Self {
        BisectOptions {
            target_clusters: 8,
            trials: 5,
            kmeans: KMeansOptions::default(),
        }
    }
}

/// Average similarity of members to their cluster centroid — the split
/// quality criterion ("overall similarity" in \[31\]). The sum is an
/// indexed-chunk reduction so it is bit-identical across policies.
fn cohesion<S>(space: &S, members: &[usize], policy: ExecPolicy) -> f64
where
    S: ClusterSpace + Sync,
    S::Centroid: Sync,
{
    if members.is_empty() {
        return 0.0;
    }
    let centroid = space.centroid(members);
    let sum = par_reduce(
        policy,
        members.len(),
        cafc_exec::DEFAULT_CHUNK,
        |range| {
            range
                .map(|i| space.similarity(&centroid, members[i]))
                .sum::<f64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0);
    sum / members.len() as f64
}

/// Run bisecting k-means over all items of `space`.
///
/// The inner 2-means runs and the cohesion scoring parallelize under
/// `policy`, while the RNG draws stay on the calling thread in a fixed
/// order, so for a fixed RNG seed the output is bit-identical for every
/// policy.
///
/// Emits, when `obs` has a sink: counters `bisect.splits` /
/// `bisect.trials` / `bisect.degenerate_splits`, a `bisect.split` span per
/// bisection (orchestrating thread; the inner 2-means runs nest their
/// `kmeans.*` spans underneath), and the inner runs' `kmeans.*` metrics.
/// The output is the same with or without a sink.
pub fn bisecting_kmeans<S, R>(
    space: &S,
    opts: &BisectOptions,
    rng: &mut R,
    policy: ExecPolicy,
    obs: &Obs,
) -> Partition
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
    R: Rng,
{
    let n = space.len();
    let mut clusters: Vec<Vec<usize>> = vec![(0..n).collect()];
    if n == 0 {
        return Partition::new(clusters, 0);
    }
    while clusters.len() < opts.target_clusters {
        // Pick the largest splittable cluster.
        let Some(victim_idx) = clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.len() >= 2)
            .max_by_key(|(_, c)| c.len())
            .map(|(i, _)| i)
        else {
            break; // nothing splittable left
        };
        let victim = clusters.swap_remove(victim_idx);
        let _split_span = obs.span("bisect.split");
        obs.incr("bisect.splits");

        // Trial 2-means splits on the victim's members; keep the best.
        let mut best: Option<(f64, Vec<usize>, Vec<usize>)> = None;
        for _ in 0..opts.trials.max(1) {
            obs.incr("bisect.trials");
            // Seeds are indices into the sub-space (0..victim.len()).
            let picks = sample(rng, victim.len(), 2.min(victim.len()));
            let seeds: Vec<Vec<usize>> = picks.into_iter().map(|i| vec![i]).collect();
            let sub = SubSpace {
                space,
                items: &victim,
            };
            let out = kmeans(&sub, &seeds, &opts.kmeans, policy, obs);
            let halves = out.partition.clusters();
            let a: Vec<usize> = halves[0].iter().map(|&i| victim[i]).collect();
            let b: Vec<usize> = halves
                .get(1)
                .map(|h| h.iter().map(|&i| victim[i]).collect())
                .unwrap_or_default();
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let score = (cohesion(space, &a, policy) * a.len() as f64
                + cohesion(space, &b, policy) * b.len() as f64)
                / victim.len() as f64;
            if best.as_ref().is_none_or(|(s, _, _)| score > *s) {
                best = Some((score, a, b));
            }
        }
        match best {
            Some((_, a, b)) => {
                clusters.push(a);
                clusters.push(b);
            }
            None => {
                // All trials degenerate (identical points): split arbitrarily.
                obs.incr("bisect.degenerate_splits");
                let mid = victim.len() / 2;
                clusters.push(victim[..mid].to_vec());
                clusters.push(victim[mid..].to_vec());
            }
        }
    }
    Partition::new(clusters, n)
}

/// A view of a sub-set of a space's items, re-indexed `0..items.len()`.
struct SubSpace<'a, S: ClusterSpace> {
    space: &'a S,
    items: &'a [usize],
}

impl<S: ClusterSpace> ClusterSpace for SubSpace<'_, S> {
    type Centroid = S::Centroid;

    fn len(&self) -> usize {
        self.items.len()
    }

    fn centroid(&self, members: &[usize]) -> S::Centroid {
        let mapped: Vec<usize> = members.iter().map(|&m| self.items[m]).collect();
        self.space.centroid(&mapped)
    }

    fn similarity(&self, centroid: &S::Centroid, item: usize) -> f64 {
        self.space.similarity(centroid, self.items[item])
    }

    fn centroid_similarity(&self, a: &S::Centroid, b: &S::Centroid) -> f64 {
        self.space.centroid_similarity(a, b)
    }

    fn item_similarity(&self, a: usize, b: usize) -> f64 {
        self.space.item_similarity(self.items[a], self.items[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DenseSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs3() -> DenseSpace {
        DenseSpace::new(vec![
            vec![0.0],
            vec![0.1],
            vec![10.0],
            vec![10.1],
            vec![20.0],
            vec![20.1],
        ])
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let space = blobs3();
        let opts = BisectOptions {
            target_clusters: 3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(42);
        let baseline = bisecting_kmeans(
            &space,
            &opts,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        for policy in [
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
            ExecPolicy::Auto,
        ] {
            let mut rng = StdRng::seed_from_u64(42);
            let p = bisecting_kmeans(&space, &opts, &mut rng, policy, &Obs::disabled());
            assert_eq!(p, baseline, "{policy:?}");
        }
    }

    #[test]
    fn splits_into_three_blobs() {
        let space = blobs3();
        let mut rng = StdRng::seed_from_u64(1);
        let p = bisecting_kmeans(
            &space,
            &BisectOptions {
                target_clusters: 3,
                ..Default::default()
            },
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(p.num_clusters(), 3);
        let mut sorted: Vec<Vec<usize>> = p
            .clusters()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        sorted.sort();
        assert_eq!(sorted, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn k_one_returns_everything() {
        let space = blobs3();
        let mut rng = StdRng::seed_from_u64(2);
        let p = bisecting_kmeans(
            &space,
            &BisectOptions {
                target_clusters: 1,
                ..Default::default()
            },
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(p.num_clusters(), 1);
        assert_eq!(p.num_assigned(), 6);
    }

    #[test]
    fn k_larger_than_items_caps_at_singletons() {
        let space = DenseSpace::new(vec![vec![0.0], vec![1.0]]);
        let mut rng = StdRng::seed_from_u64(3);
        let p = bisecting_kmeans(
            &space,
            &BisectOptions {
                target_clusters: 10,
                ..Default::default()
            },
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn identical_points_still_split() {
        let space = DenseSpace::new(vec![vec![5.0]; 6]);
        let mut rng = StdRng::seed_from_u64(4);
        let p = bisecting_kmeans(
            &space,
            &BisectOptions {
                target_clusters: 3,
                ..Default::default()
            },
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(p.num_clusters(), 3);
        assert_eq!(p.num_assigned(), 6);
    }

    #[test]
    fn empty_space() {
        let space = DenseSpace::new(vec![]);
        let mut rng = StdRng::seed_from_u64(5);
        let p = bisecting_kmeans(
            &space,
            &BisectOptions::default(),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(p.num_assigned(), 0);
    }

    #[test]
    fn partitions_completely() {
        let space = blobs3();
        let mut rng = StdRng::seed_from_u64(6);
        let p = bisecting_kmeans(
            &space,
            &BisectOptions {
                target_clusters: 4,
                ..Default::default()
            },
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let mut all: Vec<usize> = p.clusters().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }
}
