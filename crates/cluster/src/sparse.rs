//! The term-key view of a clustering space, and [`kmeans_sparse_exec`],
//! a forwarder to [`kmeans`] kept because the repository benchmark
//! (`crates/benchmark`, frozen with the workload definitions) calls it.
//!
//! A [`SparseClusterSpace`] enumerates the term keys of its items and
//! centroids; probes use it to measure vocabulary overlap between pages
//! and centroids (the benchmark's `cluster.candidates_per_item`). No
//! assignment pass prunes by that overlap: on form pages at k = 8 every
//! page shares a term with every centroid, so an inverted term → centroid
//! index skips nothing (DESIGN.md §17.3).

use crate::kmeans::{kmeans, KMeansOptions, KMeansOutcome};
use crate::space::ClusterSpace;
use cafc_exec::ExecPolicy;
use cafc_obs::Obs;

/// A [`ClusterSpace`] whose items and centroids are sparse term vectors.
///
/// `u64` term keys are opaque; a multi-feature-space implementation
/// disambiguates its spaces by tagging key ranges (the core crate packs a
/// space tag into the high bits).
pub trait SparseClusterSpace: ClusterSpace {
    /// Invoke `f` once per term key of `item` (order and duplicates are
    /// up to the implementation).
    fn for_each_item_term(&self, item: usize, f: &mut dyn FnMut(u64));

    /// Invoke `f` once per term key of `centroid`.
    fn for_each_centroid_term(&self, centroid: &Self::Centroid, f: &mut dyn FnMut(u64));
}

/// [`kmeans`] with instrumentation off, under its former sparse-kernel
/// name: the repository benchmark's batch workload calls it.
pub fn kmeans_sparse_exec<S>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
    policy: ExecPolicy,
) -> KMeansOutcome
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    kmeans(space, seeds, opts, policy, &Obs::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal sparse space over term-id lists with uniform weights:
    /// cosine = |a ∩ b| / sqrt(|a| · |b|) via sparse vectors of 1.0s.
    struct TermSetSpace {
        docs: Vec<Vec<u64>>,
    }

    impl TermSetSpace {
        fn new(docs: Vec<Vec<u64>>) -> Self {
            let docs = docs
                .into_iter()
                .map(|mut d| {
                    d.sort_unstable();
                    d.dedup();
                    d
                })
                .collect();
            TermSetSpace { docs }
        }
    }

    fn overlap(a: &[u64], b: &[u64]) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    impl ClusterSpace for TermSetSpace {
        type Centroid = Vec<u64>;

        fn len(&self) -> usize {
            self.docs.len()
        }

        fn centroid(&self, members: &[usize]) -> Vec<u64> {
            let mut c: Vec<u64> = members
                .iter()
                .flat_map(|&m| self.docs[m].iter().copied())
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        }

        fn similarity(&self, centroid: &Vec<u64>, item: usize) -> f64 {
            self.centroid_similarity(centroid, &self.docs[item])
        }

        fn centroid_similarity(&self, a: &Vec<u64>, b: &Vec<u64>) -> f64 {
            if a.is_empty() || b.is_empty() {
                return 0.0;
            }
            overlap(a, b) as f64 / ((a.len() * b.len()) as f64).sqrt()
        }
    }

    impl SparseClusterSpace for TermSetSpace {
        fn for_each_item_term(&self, item: usize, f: &mut dyn FnMut(u64)) {
            for &t in &self.docs[item] {
                f(t);
            }
        }

        fn for_each_centroid_term(&self, centroid: &Vec<u64>, f: &mut dyn FnMut(u64)) {
            for &t in centroid {
                f(t);
            }
        }
    }

    fn space() -> TermSetSpace {
        TermSetSpace::new(vec![
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![1, 3],
            vec![10, 11, 12],
            vec![11, 12, 13],
            vec![10, 12],
            vec![99], // overlaps nothing else
            vec![],   // empty document
        ])
    }

    fn serial(s: &TermSetSpace, seeds: &[Vec<usize>]) -> KMeansOutcome {
        kmeans_sparse_exec(s, seeds, &KMeansOptions::strict(), ExecPolicy::Serial)
    }

    #[test]
    fn sparse_matches_dense_exactly() {
        let s = space();
        let seeds = [vec![0], vec![3], vec![6]];
        let dense = kmeans(
            &s,
            &seeds,
            &KMeansOptions::strict(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let sparse = serial(&s, &seeds);
        assert_eq!(sparse.partition, dense.partition);
        assert_eq!(sparse.iterations, dense.iterations);
        assert_eq!(sparse.converged, dense.converged);
    }

    #[test]
    fn zero_overlap_items_land_in_cluster_zero() {
        let s = space();
        // Seeds never cover term 99 or the empty doc: both score 0.0
        // against every centroid, and the tie goes to cluster 0.
        let seeds = [vec![0], vec![3]];
        let out = serial(&s, &seeds);
        assert!(out.partition.clusters()[0].contains(&6));
        assert!(out.partition.clusters()[0].contains(&7));
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let s = space();
        let seeds = [vec![0], vec![3], vec![6]];
        let baseline = serial(&s, &seeds);
        for policy in [
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
            ExecPolicy::Auto,
        ] {
            let out = kmeans_sparse_exec(&s, &seeds, &KMeansOptions::strict(), policy);
            assert_eq!(out.partition, baseline.partition, "{policy:?}");
            assert_eq!(out.iterations, baseline.iterations, "{policy:?}");
        }
    }

    #[test]
    fn empty_space_and_degenerate_seeds() {
        let s = TermSetSpace::new(Vec::new());
        let out = serial(&s, &[]);
        assert!(out.partition.clusters().is_empty());
        let s = space();
        let out = serial(&s, &[vec![]]);
        assert_eq!(out.partition.clusters().len(), 1);
        assert_eq!(out.partition.num_assigned(), 8);
    }
}
