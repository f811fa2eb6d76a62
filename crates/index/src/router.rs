//! Query-to-cluster routing: rank clusters by centroid similarity.
//!
//! The cluster-then-search contract: the clustering already grouped
//! databases by domain, so a query about airfare only needs the airfare
//! cluster's postings. The router orders clusters by query-to-centroid
//! cosine (descending, ties by cluster id ascending) and the searcher
//! walks that order under a postings budget. Ordering is a pure function
//! of the centroids and the query — no randomness, no thread-count
//! dependence — so routing is deterministic across
//! [`ExecPolicy`](cafc_exec::ExecPolicy) and across runs. Only a budgeted
//! scan reads the order, so only a budgeted search pipeline builds a
//! router, afresh for each index generation.

use cafc_vsm::SparseVector;

/// Ranks clusters against a query vector: one centroid per cluster. Build
/// with [`ClusterRouter::new`] from the same document vectors and cluster
/// member lists the index was sharded by.
#[derive(Debug, Clone, Default)]
pub struct ClusterRouter {
    centroids: Vec<SparseVector>,
}

impl ClusterRouter {
    /// Compute one centroid per cluster from the member documents'
    /// vectors (normally the TF-IDF page-content space, matching the
    /// clustering geometry): the [`SparseVector::centroid`] of the members
    /// below `docs.len()`. Empty clusters get empty centroids and sort last
    /// among zero-similarity clusters by id.
    pub fn new(docs: &[SparseVector], clusters: &[Vec<usize>]) -> ClusterRouter {
        let centroids = clusters
            .iter()
            .map(|members| SparseVector::centroid(members.iter().filter_map(|&m| docs.get(m))))
            .collect();
        ClusterRouter { centroids }
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
}
