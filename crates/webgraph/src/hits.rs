//! HITS (Kleinberg's hubs-and-authorities) over the web graph.
//!
//! The paper's §6 lists "the quality of hub pages" among the link features
//! it plans to exploit, and its related-work section discusses the
//! hub/authority machinery used to find web communities \[12, 24\]. This
//! module provides the standard iterative HITS computation so hub pages
//! can be ranked by link-structural quality — used by the
//! `exp_hub_quality` ablation to weight hub clusters by their inducing
//! hub's score.

use crate::graph::{PageId, WebGraph};

/// Per-page HITS scores.
#[derive(Debug, Clone)]
pub struct HitsScores {
    hub: Vec<f64>,
    authority: Vec<f64>,
    /// Number of update iterations performed.
    pub iterations: usize,
}

impl HitsScores {
    /// Hub score of a page (how well it points at good authorities).
    pub fn hub(&self, id: PageId) -> f64 {
        self.hub.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Authority score of a page (how well good hubs point at it).
    pub fn authority(&self, id: PageId) -> f64 {
        self.authority.get(id.index()).copied().unwrap_or(0.0)
    }
}

/// HITS options.
#[derive(Debug, Clone, Copy)]
pub struct HitsOptions {
    /// Maximum update iterations.
    pub max_iterations: usize,
    /// Stop when the L1 change of both vectors drops below this.
    pub tolerance: f64,
}

impl Default for HitsOptions {
    fn default() -> Self {
        HitsOptions {
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// Run HITS over the whole graph.
///
/// Scores are L2-normalized each iteration; an empty graph yields empty
/// score vectors.
pub fn hits(graph: &WebGraph, opts: &HitsOptions) -> HitsScores {
    let n = graph.len();
    let mut hub = vec![1.0f64; n];
    let mut authority = vec![1.0f64; n];
    let mut iterations = 0;
    for _ in 0..opts.max_iterations {
        iterations += 1;
        // authority(p) = sum of hub scores of pages linking to p
        let mut new_auth = vec![0.0f64; n];
        for (i, a) in new_auth.iter_mut().enumerate() {
            let id = PageId(i as u32);
            *a = graph.in_links(id).iter().map(|q| hub[q.index()]).sum();
        }
        // hub(p) = sum of authority scores of pages p links to
        let mut new_hub = vec![0.0f64; n];
        for (i, h) in new_hub.iter_mut().enumerate() {
            let id = PageId(i as u32);
            *h = graph
                .out_links(id)
                .iter()
                .map(|q| new_auth[q.index()])
                .sum();
        }
        normalize(&mut new_auth);
        normalize(&mut new_hub);
        let delta: f64 = new_auth
            .iter()
            .zip(&authority)
            .chain(new_hub.iter().zip(&hub))
            .map(|(a, b)| (a - b).abs())
            .sum();
        authority = new_auth;
        hub = new_hub;
        if delta < opts.tolerance {
            break;
        }
    }
    HitsScores {
        hub,
        authority,
        iterations,
    }
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::url::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).expect("test url parses")
    }

    /// Two hubs pointing at two authorities; hub1 points at both, hub2 at
    /// one. hub1 must out-score hub2; the doubly-cited authority must
    /// out-score the other.
    fn fixture() -> (WebGraph, PageId, PageId, PageId, PageId) {
        let mut g = WebGraph::new();
        let h1 = g.intern(url("http://h1.org/"));
        let h2 = g.intern(url("http://h2.org/"));
        let a1 = g.intern(url("http://a1.com/"));
        let a2 = g.intern(url("http://a2.com/"));
        g.add_link(h1, a1);
        g.add_link(h1, a2);
        g.add_link(h2, a1);
        (g, h1, h2, a1, a2)
    }

    #[test]
    fn hub_and_authority_ordering() {
        let (g, h1, h2, a1, a2) = fixture();
        let scores = hits(&g, &HitsOptions::default());
        assert!(scores.hub(h1) > scores.hub(h2));
        assert!(scores.authority(a1) > scores.authority(a2));
        // Authorities are not hubs and vice versa in this graph.
        assert!(scores.hub(a1) == 0.0);
        assert!(scores.authority(h1) == 0.0);
    }

    #[test]
    fn converges_quickly() {
        let (g, ..) = fixture();
        let scores = hits(&g, &HitsOptions::default());
        assert!(
            scores.iterations < 100,
            "did not converge: {}",
            scores.iterations
        );
    }

    #[test]
    fn empty_graph() {
        let g = WebGraph::new();
        let scores = hits(&g, &HitsOptions::default());
        assert!(scores.hub.is_empty());
        assert!(scores.authority.is_empty());
    }

    #[test]
    fn disconnected_pages_score_zero() {
        let mut g = WebGraph::new();
        let isolated = g.intern(url("http://alone.com/"));
        let h = g.intern(url("http://h.org/"));
        let a = g.intern(url("http://a.com/"));
        g.add_link(h, a);
        let scores = hits(&g, &HitsOptions::default());
        assert_eq!(scores.hub(isolated), 0.0);
        assert_eq!(scores.authority(isolated), 0.0);
    }

    #[test]
    fn scores_normalized() {
        let (g, ..) = fixture();
        let scores = hits(&g, &HitsOptions::default());
        let hub_norm: f64 = (0..g.len())
            .map(|i| scores.hub(PageId(i as u32)).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!((hub_norm - 1.0).abs() < 1e-9);
    }
}
