//! The [`ClusterSpace`] abstraction and a dense reference implementation.

use std::ops::Range;

/// A clustering problem: `len()` items, centroids, and similarities in
/// `\[0, 1\]` (1 = identical). Distances used by the algorithms are always
/// `1 − similarity`.
pub trait ClusterSpace {
    /// Cluster representative (the paper's centroid vectors, Equation 4).
    type Centroid;

    /// Number of items.
    fn len(&self) -> usize;

    /// True when the space has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Centroid of the given item indices. `members` is non-empty.
    fn centroid(&self, members: &[usize]) -> Self::Centroid;

    /// Similarity between a centroid and item `item`, in `\[0, 1\]`.
    fn similarity(&self, centroid: &Self::Centroid, item: usize) -> f64;

    /// The similarity of `centroid` to each item of the run `items`, in
    /// order, written to `out` (one slot per item). Each value must be
    /// bit-equal to [`ClusterSpace::similarity`]. The default calls it per
    /// item; a space with per-centroid set-up worth sharing across items
    /// overrides this (the k-means assignment pass scores through it).
    fn similarities(&self, centroid: &Self::Centroid, items: Range<usize>, out: &mut [f64]) {
        for (item, sim) in items.zip(out) {
            *sim = self.similarity(centroid, item);
        }
    }

    /// Similarity between two centroids, in `\[0, 1\]`.
    fn centroid_similarity(&self, a: &Self::Centroid, b: &Self::Centroid) -> f64;

    /// Similarity between two items, in `\[0, 1\]`. The default builds
    /// singleton centroids; implementations with cheaper direct access
    /// should override.
    fn item_similarity(&self, a: usize, b: usize) -> f64 {
        self.centroid_similarity(&self.centroid(&[a]), &self.centroid(&[b]))
    }
}

/// A simple space over dense `f64` points with cosine-free Euclidean-kernel
/// similarity `1 / (1 + d)`. Used by unit tests and available for users who
/// want to cluster plain numeric data.
#[derive(Debug, Clone)]
pub struct DenseSpace {
    points: Vec<Vec<f64>>,
}

impl DenseSpace {
    /// Build from points (all must share one dimensionality).
    ///
    /// # Panics
    /// Panics if points have inconsistent dimensions.
    pub fn new(points: Vec<Vec<f64>>) -> Self {
        if let Some(first) = points.first() {
            assert!(
                points.iter().all(|p| p.len() == first.len()),
                "all points must have equal dimension"
            );
        }
        DenseSpace { points }
    }

    /// The points.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    fn distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

impl ClusterSpace for DenseSpace {
    type Centroid = Vec<f64>;

    fn len(&self) -> usize {
        self.points.len()
    }

    fn centroid(&self, members: &[usize]) -> Vec<f64> {
        let dim = self.points.first().map_or(0, Vec::len);
        let mut c = vec![0.0; dim];
        for &m in members {
            for (ci, pi) in c.iter_mut().zip(&self.points[m]) {
                *ci += pi;
            }
        }
        let n = members.len().max(1) as f64;
        for ci in &mut c {
            *ci /= n;
        }
        c
    }

    fn similarity(&self, centroid: &Vec<f64>, item: usize) -> f64 {
        1.0 / (1.0 + Self::distance(centroid, &self.points[item]))
    }

    fn centroid_similarity(&self, a: &Vec<f64>, b: &Vec<f64>) -> f64 {
        1.0 / (1.0 + Self::distance(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_centroid() {
        let s = DenseSpace::new(vec![vec![0.0, 0.0], vec![2.0, 4.0]]);
        assert_eq!(s.centroid(&[0, 1]), vec![1.0, 2.0]);
    }

    #[test]
    fn dense_similarity_bounds() {
        let s = DenseSpace::new(vec![vec![0.0], vec![100.0]]);
        let c = s.centroid(&[0]);
        assert_eq!(s.similarity(&c, 0), 1.0);
        let far = s.similarity(&c, 1);
        assert!(far > 0.0 && far < 0.05);
    }

    #[test]
    fn item_similarity_default_matches_centroids() {
        let s = DenseSpace::new(vec![vec![0.0], vec![3.0]]);
        let via_centroids = s.centroid_similarity(&s.centroid(&[0]), &s.centroid(&[1]));
        assert_eq!(s.item_similarity(0, 1), via_centroids);
    }

    #[test]
    #[should_panic(expected = "equal dimension")]
    fn dense_rejects_ragged() {
        DenseSpace::new(vec![vec![0.0], vec![1.0, 2.0]]);
    }
}
