//! The [`Partition`] type: a clustering result.

/// A partition of items `0..n` into clusters.
///
/// Clusters may be empty (k-means can starve a seed); items appear in
/// exactly one cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    clusters: Vec<Vec<usize>>,
    num_items: usize,
}

impl Partition {
    /// Build from cluster member lists.
    ///
    /// # Panics
    /// Panics if any item index ≥ `num_items`, or an item appears twice.
    pub fn new(clusters: Vec<Vec<usize>>, num_items: usize) -> Self {
        let mut seen = vec![false; num_items];
        for c in &clusters {
            for &m in c {
                assert!(m < num_items, "item index {m} out of range {num_items}");
                assert!(!seen[m], "item {m} appears in two clusters");
                seen[m] = true;
            }
        }
        Partition {
            clusters,
            num_items,
        }
    }

    /// Build from an assignment array `item -> cluster index`.
    pub fn from_assignments(assignments: &[usize], num_clusters: usize) -> Self {
        let mut clusters = vec![Vec::new(); num_clusters];
        for (item, &c) in assignments.iter().enumerate() {
            assert!(
                c < num_clusters,
                "cluster index {c} out of range {num_clusters}"
            );
            clusters[c].push(item);
        }
        Partition {
            clusters,
            num_items: assignments.len(),
        }
    }

    /// The cluster member lists.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Number of clusters, including empty ones.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of non-empty clusters.
    pub fn num_nonempty(&self) -> usize {
        self.clusters.iter().filter(|c| !c.is_empty()).count()
    }

    /// Total number of items in the underlying set.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of items assigned to some cluster.
    pub fn num_assigned(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    /// The inverse map `item -> cluster index`. Unassigned items (possible
    /// only for partial partitions built with [`Partition::new`]) map to
    /// `None`.
    pub fn assignments(&self) -> Vec<Option<usize>> {
        let mut a = vec![None; self.num_items];
        for (ci, members) in self.clusters.iter().enumerate() {
            for &m in members {
                a[m] = Some(ci);
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_valid() {
        let p = Partition::new(vec![vec![0, 2], vec![1]], 3);
        assert_eq!(p.num_clusters(), 2);
        assert_eq!(p.num_assigned(), 3);
        assert_eq!(p.assignments(), vec![Some(0), Some(1), Some(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_out_of_range() {
        Partition::new(vec![vec![5]], 3);
    }

    #[test]
    #[should_panic(expected = "appears in two clusters")]
    fn new_rejects_duplicates() {
        Partition::new(vec![vec![0], vec![0]], 3);
    }

    #[test]
    fn from_assignments_roundtrip() {
        let p = Partition::from_assignments(&[1, 0, 1], 2);
        assert_eq!(p.clusters(), &[vec![1], vec![0, 2]]);
        assert_eq!(p.assignments(), vec![Some(1), Some(0), Some(1)]);
    }

    #[test]
    fn partial_partition_allowed() {
        let p = Partition::new(vec![vec![0]], 3);
        assert_eq!(p.num_assigned(), 1);
        assert_eq!(p.assignments()[2], None);
    }
}
