//! The rejected design as a baseline: a *single* similarity measure mixing
//! text and link evidence with a fixed weight (à la HyPursuit \[35\] and the
//! Web-document clustering line of work the paper contrasts with in §3/§5).
//!
//! The paper argues that "if a term is added to represent hub-induced
//! similarity in Equation 3, it can be hard to determine appropriate
//! weights for each measure", and proposes reinforcement composition
//! (CAFC-CH) instead. This module makes that claim testable: it implements
//! the mixed measure `sim = α·text + (1−α)·link`, where the link component
//! is the cosine over *backlink incidence vectors* (a smooth generalization
//! of co-citation Jaccard), and exposes it as a full [`ClusterSpace`] so
//! the same k-means/HAC machinery runs on it.

use crate::space::{FormPageSpace, MultiCentroid};
use cafc_cluster::ClusterSpace;
use cafc_text::TermId;
use cafc_vsm::SparseVector;
use cafc_webgraph::{PageId, WebGraph};

/// Clustering space with the mixed text+link similarity.
#[derive(Debug, Clone)]
pub struct MixedSimilaritySpace<'a> {
    text: FormPageSpace<'a>,
    /// Per-item backlink incidence vector (dimension = hub page id).
    links: Vec<SparseVector>,
    /// Weight of the text component (`α ∈ \[0,1\]`).
    alpha: f64,
}

/// A centroid in the mixed space.
#[derive(Debug, Clone, Default)]
pub struct MixedCentroid {
    /// Text centroid (per-space averages).
    pub text: MultiCentroid,
    /// Mean backlink-incidence vector.
    pub links: SparseVector,
}

impl<'a> MixedSimilaritySpace<'a> {
    /// Build over the same corpus as `text`, with backlinks of `targets`
    /// taken from `graph` (intra-site backlinks excluded, ≤ `limit` each,
    /// matching the CAFC-CH data diet).
    ///
    /// # Panics
    /// Panics unless `targets.len()` equals the text space's item count and
    /// `alpha ∈ \[0,1\]`.
    pub fn new(
        text: FormPageSpace<'a>,
        graph: &WebGraph,
        targets: &[PageId],
        limit: usize,
        alpha: f64,
    ) -> Self {
        assert_eq!(
            targets.len(),
            text.len(),
            "targets must align with corpus items"
        );
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let links = targets
            .iter()
            .map(|&t| {
                let entries: Vec<(TermId, f64)> = graph
                    .backlinks(t, limit)
                    .iter()
                    .filter(|&&h| !graph.url(h).same_site(graph.url(t)))
                    .map(|&h| (TermId(h.0), 1.0))
                    .collect();
                SparseVector::from_entries(entries)
            })
            .collect();
        MixedSimilaritySpace { text, links, alpha }
    }

    fn mix(&self, text_sim: f64, link_sim: f64) -> f64 {
        self.alpha * text_sim + (1.0 - self.alpha) * link_sim
    }
}

impl ClusterSpace for MixedSimilaritySpace<'_> {
    type Centroid = MixedCentroid;

    fn len(&self) -> usize {
        self.text.len()
    }

    fn centroid(&self, members: &[usize]) -> MixedCentroid {
        MixedCentroid {
            text: self.text.centroid(members),
            links: SparseVector::centroid(members.iter().map(|&m| &self.links[m])),
        }
    }

    fn similarity(&self, centroid: &MixedCentroid, item: usize) -> f64 {
        self.mix(
            self.text.similarity(&centroid.text, item),
            centroid.links.cosine(&self.links[item]),
        )
    }

    fn centroid_similarity(&self, a: &MixedCentroid, b: &MixedCentroid) -> f64 {
        self.mix(
            self.text.centroid_similarity(&a.text, &b.text),
            a.links.cosine(&b.links),
        )
    }

    fn item_similarity(&self, a: usize, b: usize) -> f64 {
        self.mix(
            self.text.item_similarity(a, b),
            self.links[a].cosine(&self.links[b]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FormPageCorpus, ModelOptions};
    use crate::space::FeatureConfig;
    use crate::{ExecPolicy, Obs};
    use cafc_webgraph::Url;

    fn fixture() -> (WebGraph, Vec<PageId>) {
        let mut g = WebGraph::new();
        let mut targets = Vec::new();
        for i in 0..4 {
            let u = Url::parse(&format!("http://s{i}.com/f")).expect("url");
            let html = if i < 2 {
                "<p>airfare flights travel</p><form>departure <input name=a></form>"
            } else {
                "<p>careers employment salary</p><form>keywords <input name=b></form>"
            };
            targets.push(g.add_page(u, html.to_owned()));
        }
        // Hub co-cites 0 and 1; another co-cites 2 and 3.
        let h1 = g.intern(Url::parse("http://h1.org/").expect("url"));
        let h2 = g.intern(Url::parse("http://h2.org/").expect("url"));
        g.add_link(h1, targets[0]);
        g.add_link(h1, targets[1]);
        g.add_link(h2, targets[2]);
        g.add_link(h2, targets[3]);
        (g, targets)
    }

    #[test]
    fn link_component_detects_cocitation() {
        let (g, targets) = fixture();
        let corpus = FormPageCorpus::from_graph(
            &g,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let text = FormPageSpace::new(&corpus, FeatureConfig::combined());
        // alpha = 0: pure link similarity.
        let space = MixedSimilaritySpace::new(text, &g, &targets, 100, 0.0);
        assert!((space.item_similarity(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(space.item_similarity(0, 2), 0.0);
    }

    #[test]
    fn alpha_one_equals_text_space() {
        let (g, targets) = fixture();
        let corpus = FormPageCorpus::from_graph(
            &g,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let text = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let mixed = MixedSimilaritySpace::new(text, &g, &targets, 100, 1.0);
        for a in 0..4 {
            for b in 0..4 {
                assert!((mixed.item_similarity(a, b) - text.item_similarity(a, b)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mixed_similarity_interpolates() {
        let (g, targets) = fixture();
        let corpus = FormPageCorpus::from_graph(
            &g,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let text = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let t = text.item_similarity(0, 1);
        let mixed = MixedSimilaritySpace::new(text, &g, &targets, 100, 0.5);
        let m = mixed.item_similarity(0, 1);
        assert!((m - (0.5 * t + 0.5 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn kmeans_runs_on_mixed_space() {
        use cafc_cluster::{kmeans, KMeansOptions};
        let (g, targets) = fixture();
        let corpus = FormPageCorpus::from_graph(
            &g,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let text = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let space = MixedSimilaritySpace::new(text, &g, &targets, 100, 0.5);
        let out = kmeans(
            &space,
            &[vec![0], vec![2]],
            &KMeansOptions::new()
                .with_move_fraction_threshold(1e-9)
                .with_max_iterations(50),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let clusters = out.partition.clusters();
        assert_eq!(clusters[0], vec![0, 1]);
        assert_eq!(clusters[1], vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let (g, targets) = fixture();
        let corpus = FormPageCorpus::from_graph(
            &g,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let text = FormPageSpace::new(&corpus, FeatureConfig::combined());
        MixedSimilaritySpace::new(text, &g, &targets, 100, 1.5);
    }
}
