//! The cluster index: labels, summaries, and keyword search.

use cafc::{FormPageCorpus, Partition};
use cafc_text::Analyzer;
use cafc_vsm::SparseVector;
use cafc_webgraph::{PageId, WebGraph};

/// One database (form page) inside the index.
#[derive(Debug, Clone)]
pub struct ClusterEntry {
    /// Item index into the corpus.
    pub item: usize,
    /// The page URL.
    pub url: String,
    /// The page title, if it had one.
    pub title: String,
    /// Number of fillable form attributes.
    pub attributes: usize,
}

/// A summarized cluster.
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// Cluster index within the partition.
    pub cluster: usize,
    /// Auto-generated label from the strongest centroid terms.
    pub label: String,
    /// The top discriminating terms with their centroid weights.
    pub top_terms: Vec<(String, f64)>,
    /// Member databases, in partition order.
    pub entries: Vec<ClusterEntry>,
}

/// A search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Cluster index.
    pub cluster: usize,
    /// For page-level search: the item index; `None` for cluster hits.
    pub item: Option<usize>,
    /// Cosine score against the query vector.
    pub score: f64,
}

/// A searchable, labelled view over a clustering.
#[derive(Debug)]
pub struct ClusterIndex<'a> {
    corpus: &'a FormPageCorpus,
    /// Page-content centroid per cluster (possibly empty for empty clusters).
    centroids: Vec<SparseVector>,
    summaries: Vec<ClusterSummary>,
}

impl<'a> ClusterIndex<'a> {
    /// Build an index from a clustering over `corpus`, with page metadata
    /// resolved from `graph`/`targets` (aligned with corpus items).
    ///
    /// # Panics
    /// Panics if `targets.len()` differs from the corpus length.
    pub fn from_graph(
        corpus: &'a FormPageCorpus,
        partition: &Partition,
        graph: &WebGraph,
        targets: &[PageId],
        label_terms: usize,
    ) -> Self {
        assert_eq!(
            targets.len(),
            corpus.len(),
            "targets must align with corpus items"
        );
        let metadata: Vec<(String, String, usize)> = targets
            .iter()
            .map(|&p| {
                let url = graph.url(p).to_string();
                match graph.html(p) {
                    Some(html) => {
                        let doc = cafc_html::parse(html);
                        let title = doc.title().unwrap_or_else(|| "(untitled)".to_owned());
                        let arity = cafc_html::extract_forms(&doc)
                            .first()
                            .map_or(0, cafc_html::Form::visible_field_count);
                        (url, title, arity)
                    }
                    None => (url, "(no content)".to_owned(), 0),
                }
            })
            .collect();
        Self::from_metadata(corpus, partition, &metadata, label_terms)
    }

    /// Build from explicit `(url, title, attributes)` metadata per item.
    pub fn from_metadata(
        corpus: &'a FormPageCorpus,
        partition: &Partition,
        metadata: &[(String, String, usize)],
        label_terms: usize,
    ) -> Self {
        assert_eq!(
            metadata.len(),
            corpus.len(),
            "metadata must align with corpus items"
        );
        let mut centroids = Vec::new();
        let mut summaries = Vec::new();
        for (ci, members) in partition.clusters().iter().enumerate() {
            let centroid = SparseVector::centroid(members.iter().map(|&m| &corpus.pc[m]));
            let top: Vec<(String, f64)> = centroid
                .top_terms(label_terms.max(1))
                .into_iter()
                .map(|(t, w)| (corpus.dict.term(t).to_owned(), w))
                .collect();
            let label = top
                .iter()
                .take(3)
                .map(|(t, _)| capitalize(t))
                .collect::<Vec<_>>()
                .join(" / ");
            let entries = members
                .iter()
                .map(|&m| {
                    let (url, title, attributes) = metadata[m].clone();
                    ClusterEntry {
                        item: m,
                        url,
                        title,
                        attributes,
                    }
                })
                .collect();
            summaries.push(ClusterSummary {
                cluster: ci,
                label: if label.is_empty() {
                    format!("Cluster {ci}")
                } else {
                    label
                },
                top_terms: top,
                entries,
            });
            centroids.push(centroid);
        }
        ClusterIndex {
            corpus,
            centroids,
            summaries,
        }
    }

    /// The cluster summaries, in partition order.
    pub fn summaries(&self) -> &[ClusterSummary] {
        &self.summaries
    }

    /// Number of clusters (including empty ones).
    pub fn num_clusters(&self) -> usize {
        self.summaries.len()
    }

    /// Build the query vector: analyzed terms known to the corpus
    /// dictionary, unit weight per distinct term.
    fn query_vector(&self, query: &str) -> SparseVector {
        let mut dict_probe = cafc_text::TermDict::new();
        let terms = Analyzer.analyze(query, &mut dict_probe);
        let entries: Vec<(cafc_text::TermId, f64)> = terms
            .iter()
            .filter_map(|&t| self.corpus.dict.get(dict_probe.term(t)))
            .map(|id| (id, 1.0))
            .collect();
        SparseVector::from_entries(entries)
    }

    /// Rank clusters against a free-text query. Empty and zero-score
    /// clusters are omitted; results are sorted by descending score.
    pub fn search(&self, query: &str) -> Vec<SearchHit> {
        let q = self.query_vector(query);
        let mut hits: Vec<SearchHit> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(ci, c)| SearchHit {
                cluster: ci,
                item: None,
                score: q.cosine(c),
            })
            .filter(|h| h.score > 0.0)
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        hits
    }

    /// Rank individual databases against a free-text query.
    pub fn search_pages(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        let q = self.query_vector(query);
        let mut hits = Vec::new();
        for summary in &self.summaries {
            for entry in &summary.entries {
                let score = q.cosine(&self.corpus.pc[entry.item]);
                if score > 0.0 {
                    hits.push(SearchHit {
                        cluster: summary.cluster,
                        item: Some(entry.item),
                        score,
                    });
                }
            }
        }
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        hits.truncate(limit);
        hits
    }

    /// Entry metadata for an item (for rendering search results).
    pub fn entry(&self, item: usize) -> Option<&ClusterEntry> {
        self.summaries
            .iter()
            .flat_map(|s| &s.entries)
            .find(|e| e.item == item)
    }
}

fn capitalize(word: &str) -> String {
    let mut cs = word.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafc::{ExecPolicy, FeatureConfig, FormPageSpace, ModelOptions, Obs};
    use cafc_cluster::ClusterSpace;

    fn fixture() -> (FormPageCorpus, Partition, Vec<(String, String, usize)>) {
        let pages = [
            "<title>Cheap Flights</title><p>airfare travel flights deals airline</p>\
             <form>departure <input name=a></form>",
            "<p>flights airfare vacation airline travel</p><form>arrival <input name=b></form>",
            "<title>Job Board</title><p>careers employment salary resume hiring</p>\
             <form>keywords <input name=c></form>",
            "<p>employment careers openings resume salary</p><form>category <input name=d></form>",
        ];
        let corpus = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 4);
        let metadata = (0..4)
            .map(|i| (format!("http://s{i}.com/f"), format!("Site {i}"), 1usize))
            .collect();
        (corpus, partition, metadata)
    }

    #[test]
    fn labels_from_centroid_terms() {
        let (corpus, partition, metadata) = fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 5);
        assert_eq!(index.num_clusters(), 2);
        let labels: Vec<&str> = index.summaries().iter().map(|s| s.label.as_str()).collect();
        // The airfare cluster's label mentions flight/airfare vocabulary.
        assert!(
            labels[0].to_lowercase().contains("flight")
                || labels[0].to_lowercase().contains("airfar"),
            "label: {}",
            labels[0]
        );
        assert!(
            labels[1].to_lowercase().contains("career")
                || labels[1].to_lowercase().contains("employ")
                || labels[1].to_lowercase().contains("salari"),
            "label: {}",
            labels[1]
        );
    }

    #[test]
    fn search_ranks_matching_cluster_first() {
        let (corpus, partition, metadata) = fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 5);
        let hits = index.search("cheap international flights");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].cluster, 0);
        let hits = index.search("engineering careers and salary");
        assert_eq!(hits[0].cluster, 1);
    }

    #[test]
    fn search_unknown_terms_yields_nothing() {
        let (corpus, partition, metadata) = fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 5);
        assert!(index.search("zzzqqq xyzzy").is_empty());
    }

    #[test]
    fn page_search_returns_items() {
        let (corpus, partition, metadata) = fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 5);
        let hits = index.search_pages("airfare deals", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].cluster, 0);
        let item = hits[0].item.expect("page hit has item");
        assert!(item < 2, "top hit should be an airfare page, got {item}");
        assert!(index.entry(item).is_some());
    }

    #[test]
    fn page_search_respects_limit() {
        let (corpus, partition, metadata) = fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 5);
        assert!(index.search_pages("travel careers", 1).len() <= 1);
    }

    #[test]
    fn from_graph_collects_metadata() {
        use cafc_corpus::{generate, CorpusConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let web = generate(&CorpusConfig::small(55));
        let targets = web.form_page_ids();
        let corpus = FormPageCorpus::from_graph(
            &web.graph,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let mut rng = StdRng::seed_from_u64(1);
        let out = cafc::cafc_c(
            &space,
            8,
            &cafc::KMeansOptions::default(),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let index = ClusterIndex::from_graph(&corpus, &out.partition, &web.graph, &targets, 5);
        assert_eq!(index.num_clusters(), 8);
        let total: usize = index.summaries().iter().map(|s| s.entries.len()).sum();
        assert_eq!(total, targets.len());
        // Every entry resolves a URL and a title.
        for s in index.summaries() {
            for e in &s.entries {
                assert!(e.url.starts_with("http://"));
                assert!(!e.title.is_empty());
            }
        }
        let _ = space.len(); // space kept alive for clarity
    }
}
