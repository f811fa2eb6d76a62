//! End-to-end acceptance for the cluster-then-search stack: cluster a
//! synthetic web, build the routed inverted index through
//! `SearchPipeline`, and require routed retrieval to hit the recall bar
//! against brute-force while scanning measurably fewer postings.

use cafc::{
    cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, ModelOptions,
    Obs, Partition, SearchConfig, SearchPipeline,
};
use cafc_corpus::{generate, CorpusConfig};
use cafc_text::TermId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cluster the small synthetic web with CAFC-CH at k = 8 and hand back
/// the corpus and its partition.
fn clustered() -> (FormPageCorpus, Partition) {
    let web = generate(&CorpusConfig::small(7));
    let targets = web.form_page_ids();
    let (policy, obs) = (ExecPolicy::Serial, Obs::disabled());
    let model = ModelOptions::default();
    let corpus = FormPageCorpus::from_graph(&web.graph, &targets, &model, false, policy, &obs);
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let config = CafcChConfig::paper_default(8);
    let mut rng = StdRng::seed_from_u64(1);
    let out = cafc_ch(
        &web.graph, &targets, &space, &config, &mut rng, policy, &obs,
    );
    (corpus, out.outcome.partition)
}

/// Deterministic query workload matching the paper's premise: users ask
/// about a *domain*, so queries are built from each cluster's most
/// discriminative terms — high within-cluster mass, concentrated there.
fn queries(corpus: &FormPageCorpus, partition: &Partition) -> Vec<String> {
    let num_terms = corpus.dict.len();
    let clusters = partition.clusters();
    let mut total = vec![0.0_f64; num_terms];
    let mut per = vec![vec![0.0_f64; num_terms]; clusters.len()];
    for (ci, members) in clusters.iter().enumerate() {
        for &m in members {
            for &(term, tf) in corpus.pc_tf[m].entries() {
                per[ci][term.index()] += tf;
                total[term.index()] += tf;
            }
        }
    }
    let mut queries = Vec::new();
    for mass in &per {
        let mut cand: Vec<usize> = (0..num_terms)
            .filter(|&t| total[t] > 0.0 && mass[t] / total[t] >= 0.7)
            .collect();
        cand.sort_by(|&a, &b| mass[b].total_cmp(&mass[a]).then_with(|| a.cmp(&b)));
        let top: Vec<&str> = cand
            .iter()
            .take(4)
            .map(|&t| corpus.dict.term(TermId(t as u32)))
            .collect();
        queries.extend(top.iter().map(|t| t.to_string()));
        for pair in top.windows(2) {
            queries.push(format!("{} {}", pair[0], pair[1]));
        }
    }
    queries
}

#[test]
fn routed_retrieval_meets_the_recall_bar_with_fewer_postings() {
    let (corpus, partition) = clustered();
    // Cap each query below what its full scan touches, so routing has to
    // actually skip shards to stay under the budget.
    let budget_cap = 32;
    let index = SearchPipeline::builder()
        .config(SearchConfig::new().with_budget(Some(budget_cap)).with_k(10))
        .build()
        .index(&corpus, Some(&partition));

    let mut recall_sum = 0.0;
    let mut scored_queries = 0usize;
    let mut routed_postings = 0usize;
    let mut full_postings = 0usize;
    for q in queries(&corpus, &partition) {
        let routed = index.search_k(&q, 10);
        let reference = index.reference(&q, 10);
        routed_postings += routed.stats.postings_scanned;
        full_postings += reference.stats.postings_scanned;
        if reference.hits.is_empty() {
            continue;
        }
        let found = reference
            .hits
            .iter()
            .filter(|r| routed.hits.iter().any(|h| h.doc == r.doc))
            .count();
        recall_sum += found as f64 / reference.hits.len() as f64;
        scored_queries += 1;
    }
    assert!(scored_queries > 30, "workload collapsed: {scored_queries}");
    let recall = recall_sum / scored_queries as f64;
    assert!(
        recall >= 0.95,
        "recall@10 {recall:.4} below the 0.95 acceptance bar"
    );
    assert!(
        routed_postings < full_postings,
        "routing scanned no fewer postings: {routed_postings} vs {full_postings}"
    );
}

#[test]
fn routed_and_reference_agree_exactly_without_a_budget() {
    let (corpus, partition) = clustered();
    let index = SearchPipeline::builder()
        .config(SearchConfig::new().with_k(10))
        .build()
        .index(&corpus, Some(&partition));
    for q in queries(&corpus, &partition).into_iter().take(20) {
        let routed = index.search_k(&q, 10);
        let reference = index.reference(&q, 10);
        assert_eq!(routed.hits, reference.hits, "query {q:?}");
    }
}

#[test]
fn search_pipeline_is_deterministic_across_exec_policies() {
    let (corpus, partition) = clustered();
    let build = |policy| {
        SearchPipeline::builder()
            .config(SearchConfig::new().with_budget(Some(1_500)))
            .exec(policy)
            .build()
            .index(&corpus, Some(&partition))
    };
    let serial = build(ExecPolicy::Serial);
    let parallel = build(ExecPolicy::Parallel { threads: 4 });
    assert_eq!(serial.num_postings(), parallel.num_postings());
    for q in queries(&corpus, &partition).into_iter().take(20) {
        let a = serial.search(&q);
        let b = parallel.search(&q);
        assert_eq!(a.hits, b.hits, "query {q:?}");
        assert_eq!(a.stats, b.stats, "query {q:?}");
    }
}
