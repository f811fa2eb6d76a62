//! Query-to-cluster routing: rank clusters by centroid similarity.
//!
//! The cluster-then-search contract: the clustering already grouped
//! databases by domain, so a query about airfare only needs the airfare
//! cluster's postings. The router orders clusters by query-to-centroid
//! cosine (descending, ties by cluster id ascending) and the searcher
//! walks that order under a postings budget. Ordering is a pure function
//! of the centroids and the query — no randomness, no thread-count
//! dependence — so routing is deterministic across
//! [`ExecPolicy`](cafc_exec::ExecPolicy) and across runs.

use cafc_vsm::SparseVector;
use std::sync::Arc;

/// Ranks clusters against a query vector. Build with
/// [`ClusterRouter::new`] from the same document vectors and cluster
/// member lists the index was sharded by; grow with
/// [`ClusterRouter::extend`].
#[derive(Debug, Clone, Default)]
pub struct ClusterRouter {
    /// Each cluster as the last full build left it, shared between
    /// generations.
    base: Arc<[Cluster]>,
    centroids: Vec<SparseVector>,
}

/// One cluster's members folded so far: the length of its member list,
/// how many of those members have a vector, the sum of their vectors, and
/// the centroid that sum gives.
#[derive(Debug, Clone, Default)]
struct Cluster {
    listed: usize,
    counted: usize,
    sum: SparseVector,
    centroid: SparseVector,
}

impl Cluster {
    /// This cluster with the members `members` lists after its first
    /// `listed` folded onto its sum, left to right.
    fn grow(&self, docs: &[SparseVector], members: &[usize]) -> Cluster {
        let added = members.get(self.listed..).unwrap_or_default();
        if added.is_empty() {
            return self.clone();
        }
        let mut counted = self.counted;
        let vectors = added.iter().filter(|&&m| m < docs.len()).map(|&m| {
            counted += 1;
            &docs[m]
        });
        let sum = SparseVector::sum(std::iter::once(&self.sum).chain(vectors));
        let centroid = if counted == 0 {
            SparseVector::empty()
        } else {
            sum.scale(1.0 / counted as f64)
        };
        Cluster {
            listed: members.len(),
            counted,
            sum,
            centroid,
        }
    }
}

impl ClusterRouter {
    /// Compute one centroid per cluster from the member documents'
    /// vectors (normally the TF-IDF page-content space, matching the
    /// clustering geometry): the members' [`SparseVector::centroid`].
    /// Empty clusters get empty centroids and sort last among
    /// zero-similarity clusters by id.
    pub fn new(docs: &[SparseVector], clusters: &[Vec<usize>]) -> ClusterRouter {
        let base: Arc<[Cluster]> = clusters
            .iter()
            .map(|members| Cluster::default().grow(docs, members))
            .collect();
        let centroids = base.iter().map(|c| c.centroid.clone()).collect();
        ClusterRouter { base, centroids }
    }

    /// The router [`ClusterRouter::new`] makes of `docs` and `clusters`,
    /// at the cost of the members each cluster lists after its base
    /// members. Those are folded onto the base sum with
    /// [`SparseVector::sum`], which equals folding every member from the
    /// first, bit for bit: the fold runs left to right, and a running sum
    /// holds exactly the terms (and weights) the longer fold holds at that
    /// point. A cluster with no new member keeps its base centroid.
    ///
    /// The caller proves that the input extends the base: each cluster
    /// lists its base members first, and their vectors in `docs` are the
    /// ones the base was built from.
    pub fn extend(&self, docs: &[SparseVector], clusters: &[Vec<usize>]) -> ClusterRouter {
        let fresh = Cluster::default();
        let centroids = clusters
            .iter()
            .enumerate()
            .map(|(ci, members)| {
                self.base
                    .get(ci)
                    .unwrap_or(&fresh)
                    .grow(docs, members)
                    .centroid
            })
            .collect();
        ClusterRouter {
            base: Arc::clone(&self.base),
            centroids,
        }
    }

    /// Number of routable clusters.
    pub fn num_clusters(&self) -> usize {
        self.centroids.len()
    }

    /// A cluster's centroid.
    pub fn centroid(&self, cluster: usize) -> Option<&SparseVector> {
        self.centroids.get(cluster)
    }

    /// Every cluster id ordered by query-to-centroid cosine, descending;
    /// ties (including all zero-similarity clusters) break by cluster id
    /// ascending. The full order is returned — the budget, not the
    /// router, decides how far a scan walks.
    pub fn route(&self, query: &SparseVector) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(ci, c)| (ci, query.cosine(c)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.into_iter().map(|(ci, _)| ci).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc_text::TermId;

    fn vector(entries: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_entries(entries.iter().map(|&(i, w)| (TermId(i), w)).collect())
    }

    #[test]
    fn routes_matching_cluster_first() {
        let docs = vec![
            vector(&[(0, 2.0), (1, 1.0)]),
            vector(&[(0, 1.0), (1, 2.0)]),
            vector(&[(5, 2.0), (6, 1.0)]),
            vector(&[(5, 1.0), (6, 2.0)]),
        ];
        let router = ClusterRouter::new(&docs, &[vec![0, 1], vec![2, 3]]);
        assert_eq!(router.num_clusters(), 2);
        assert_eq!(router.route(&vector(&[(0, 1.0)])), vec![0, 1]);
        assert_eq!(router.route(&vector(&[(6, 1.0)])), vec![1, 0]);
    }

    #[test]
    fn unknown_query_orders_by_id() {
        let docs = vec![vector(&[(0, 1.0)]), vector(&[(1, 1.0)])];
        let router = ClusterRouter::new(&docs, &[vec![1], vec![0]]);
        assert_eq!(router.route(&vector(&[(9, 1.0)])), vec![0, 1]);
    }

    #[test]
    fn empty_clusters_sort_last() {
        let docs = vec![vector(&[(0, 1.0)])];
        let router = ClusterRouter::new(&docs, &[vec![], vec![0]]);
        assert_eq!(router.route(&vector(&[(0, 1.0)])), vec![1, 0]);
        assert!(router.centroid(0).is_some_and(SparseVector::is_empty));
    }

    #[test]
    fn extending_equals_building_afresh() {
        // Cancelling weights make a running sum drop and regain a term.
        let docs = vec![
            vector(&[(0, 2.0), (1, 1.0)]),
            vector(&[(5, 2.0), (6, 1.0)]),
            vector(&[(0, -2.0), (2, 0.5)]),
            vector(&[(0, 1.5), (7, 0.25)]),
            vector(&[(6, 3.0)]),
            vector(&[(9, 1.0)]),
        ];
        let base = ClusterRouter::new(&docs, &[vec![0], vec![1]]);
        for clusters in [
            vec![vec![0], vec![1]],
            vec![vec![0, 2], vec![1]],
            vec![vec![0, 2, 3], vec![1, 4]],
            vec![vec![0, 3, 2, 9], vec![1, 4, 5]],
            vec![vec![0], vec![1], vec![5]],
        ] {
            let extended = base.extend(&docs, &clusters);
            let fresh = ClusterRouter::new(&docs, &clusters);
            assert_eq!(extended.num_clusters(), fresh.num_clusters());
            for ci in 0..fresh.num_clusters() {
                let (a, b) = (extended.centroid(ci), fresh.centroid(ci));
                let bits = |c: Option<&SparseVector>| {
                    c.map(|v| {
                        v.entries()
                            .iter()
                            .map(|&(t, w)| (t, w.to_bits()))
                            .collect::<Vec<_>>()
                    })
                };
                assert_eq!(bits(a), bits(b), "{clusters:?} cluster {ci}");
            }
        }
    }
}
