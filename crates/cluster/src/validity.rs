//! Internal cluster-validity indices — no gold labels required.
//!
//! The paper fixes `k = 8` because its gold standard has eight domains; a
//! deployed system does not know the domain count in advance. The
//! silhouette coefficient lets callers sweep `k` and pick the best value,
//! closing that gap (see [`choose_k`] and the `exp_choose_k` bench).

use crate::partition::Partition;
use crate::space::ClusterSpace;

/// Silhouette value of one item: `(b − a) / max(a, b)` where `a` is the
/// mean distance to its own cluster and `b` the mean distance to the
/// nearest other cluster. Distances are `1 − similarity`.
///
/// Returns `None` when the score is undefined — the item sits in a
/// singleton (or out-of-range) cluster, no other non-empty cluster exists,
/// or similarities are non-finite — so degenerate partitions cannot leak
/// NaN into a `k` sweep.
pub fn silhouette_of<S: ClusterSpace>(
    space: &S,
    partition: &Partition,
    item: usize,
    item_cluster: usize,
) -> Option<f64> {
    let clusters = partition.clusters();
    let own = clusters.get(item_cluster)?;
    if own.len() <= 1 {
        return None;
    }
    let a: f64 = own
        .iter()
        .filter(|&&m| m != item)
        .map(|&m| 1.0 - space.item_similarity(item, m))
        .sum::<f64>()
        / (own.len() - 1) as f64;
    let b = clusters
        .iter()
        .enumerate()
        .filter(|(ci, c)| *ci != item_cluster && !c.is_empty())
        .map(|(_, c)| {
            c.iter()
                .map(|&m| 1.0 - space.item_similarity(item, m))
                .sum::<f64>()
                / c.len() as f64
        })
        .fold(f64::INFINITY, f64::min);
    if !b.is_finite() || !a.is_finite() {
        return None; // only one non-empty cluster, or corrupt similarities
    }
    let denom = a.max(b);
    if denom == 0.0 {
        Some(0.0)
    } else {
        let s = (b - a) / denom;
        s.is_finite().then_some(s)
    }
}

/// Mean silhouette over all items with a defined score, in `[-1, 1]`;
/// higher is better. Returns `None` when no item has one (empty partition,
/// all-singleton clusters, or a single non-empty cluster).
pub fn mean_silhouette<S: ClusterSpace>(space: &S, partition: &Partition) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (ci, members) in partition.clusters().iter().enumerate() {
        for &m in members {
            if let Some(s) = silhouette_of(space, partition, m, ci) {
                sum += s;
                count += 1;
            }
        }
    }
    (count > 0).then(|| sum / count as f64)
}

/// Result of [`choose_k`]: the winning `k`, its partition, and the full
/// `(k, silhouette)` sweep.
pub type KChoice = (usize, Partition, Vec<(usize, f64)>);

/// Sweep `k` over `k_range`, clustering with `cluster_at` and scoring with
/// mean silhouette. Returns `(best_k, best_partition, scores)` where
/// `scores[i]` pairs each tried `k` with its silhouette. Values of `k`
/// whose partition has no defined silhouette (e.g. everything collapsed
/// into one cluster) are skipped rather than scored as zero.
pub fn choose_k<S, F>(
    space: &S,
    k_range: std::ops::RangeInclusive<usize>,
    mut cluster_at: F,
) -> Option<KChoice>
where
    S: ClusterSpace,
    F: FnMut(usize) -> Partition,
{
    let mut best: Option<(usize, Partition, f64)> = None;
    let mut scores = Vec::new();
    for k in k_range {
        if k < 2 || k > space.len() {
            continue;
        }
        let partition = cluster_at(k);
        let Some(score) = mean_silhouette(space, &partition) else {
            continue;
        };
        scores.push((k, score));
        if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
            best = Some((k, partition, score));
        }
    }
    best.map(|(k, p, _)| (k, p, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, KMeansOptions};
    use crate::seed::random_singleton_seeds;
    use crate::space::DenseSpace;
    use cafc_exec::ExecPolicy;
    use cafc_obs::Obs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs2() -> DenseSpace {
        DenseSpace::new(vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![9.0],
            vec![9.1],
            vec![9.2],
        ])
    }

    #[test]
    fn good_clustering_scores_high() {
        let space = blobs2();
        let p = Partition::new(vec![vec![0, 1, 2], vec![3, 4, 5]], 6);
        assert!(mean_silhouette(&space, &p).expect("defined") > 0.5);
    }

    #[test]
    fn bad_clustering_scores_low() {
        let space = blobs2();
        let mixed = Partition::new(vec![vec![0, 3, 4], vec![1, 2, 5]], 6);
        let good = Partition::new(vec![vec![0, 1, 2], vec![3, 4, 5]], 6);
        assert!(mean_silhouette(&space, &mixed) < mean_silhouette(&space, &good));
    }

    #[test]
    fn silhouette_in_range() {
        let space = blobs2();
        for clusters in [
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            vec![vec![0, 3], vec![1, 4], vec![2, 5]],
            vec![vec![0], vec![1, 2, 3, 4, 5]],
        ] {
            let p = Partition::new(clusters, 6);
            let s = mean_silhouette(&space, &p).expect("defined");
            assert!((-1.0..=1.0).contains(&s), "{s}");
        }
    }

    #[test]
    fn singleton_cluster_is_undefined() {
        let space = blobs2();
        let p = Partition::new(vec![vec![0], vec![1, 2, 3, 4, 5]], 6);
        assert_eq!(silhouette_of(&space, &p, 0, 0), None);
        // The partition-level mean still exists: the other five items score.
        assert!(mean_silhouette(&space, &p).is_some());
    }

    #[test]
    fn single_cluster_partition_is_undefined() {
        let space = blobs2();
        let p = Partition::new(vec![(0..6).collect()], 6);
        assert_eq!(mean_silhouette(&space, &p), None);
    }

    #[test]
    fn all_singletons_partition_is_undefined() {
        let space = blobs2();
        let p = Partition::new((0..6).map(|i| vec![i]).collect(), 6);
        assert_eq!(mean_silhouette(&space, &p), None);
    }

    #[test]
    fn choose_k_skips_undefined_scores() {
        let space = blobs2();
        // Every k collapses to a single cluster -> no k has a defined
        // silhouette -> no winner.
        let result = choose_k(&space, 2..=4, |_| Partition::new(vec![(0..6).collect()], 6));
        assert!(result.is_none());
    }

    #[test]
    fn choose_k_finds_two_blobs() {
        let space = blobs2();
        let (best_k, partition, scores) = choose_k(&space, 2..=5, |k| {
            let mut rng = StdRng::seed_from_u64(7);
            let seeds = random_singleton_seeds(&space, k, &mut rng);
            kmeans(
                &space,
                &seeds,
                &KMeansOptions::new()
                    .with_move_fraction_threshold(1e-9)
                    .with_max_iterations(50),
                ExecPolicy::Serial,
                &Obs::disabled(),
            )
            .partition
        })
        .expect("range non-empty");
        assert_eq!(best_k, 2, "scores: {scores:?}");
        assert_eq!(partition.num_nonempty(), 2);
        assert_eq!(scores.len(), 4);
    }

    #[test]
    fn choose_k_empty_range() {
        let space = blobs2();
        assert!(choose_k(&space, 9..=12, |_| unreachable!("no valid k")).is_none());
    }
}
