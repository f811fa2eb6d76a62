//! CAFC-C (Algorithm 1) and CAFC-CH (Algorithms 2–3).

use crate::space::FormPageSpace;
use cafc_cluster::{
    greedy_distant_seeds, kmeans, random_singleton_seeds, ClusterSpace, KMeansOptions,
    KMeansOutcome,
};
use cafc_exec::{par_chunks, ExecPolicy, DEFAULT_CHUNK};
use cafc_obs::Obs;
use cafc_webgraph::{hub_clusters, HubClusterOptions, HubStats, PageId, WebGraph};
use rand::Rng;

/// Run CAFC-C: k-means from random singleton seeds over the configured
/// feature space(s).
///
/// The paper evaluates CAFC-C as the average over 20 runs; callers that
/// want that behaviour loop over seeds (see `cafc-bench`). For a fixed RNG
/// seed the output is bit-identical under every `policy` and whether or
/// not `obs` has a sink: seeding draws stay on the calling thread, and the
/// loop is [`kmeans()`] with its metrics.
pub fn cafc_c<R: Rng>(
    space: &FormPageSpace<'_>,
    k: usize,
    kmeans_opts: &KMeansOptions,
    rng: &mut R,
    policy: ExecPolicy,
    obs: &Obs,
) -> KMeansOutcome {
    let seeds = random_singleton_seeds(space, k, rng);
    kmeans(space, &seeds, kmeans_opts, policy, obs)
}

/// CAFC-CH configuration.
///
/// Construct with [`CafcChConfig::default`] or
/// [`CafcChConfig::paper_default`] plus the chainable `with_*` setters; the
/// struct is `#[non_exhaustive]` so future knobs are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CafcChConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Hub-cluster construction options (backlink limit, min cardinality,
    /// root fallback, intra-site elimination).
    pub hub: HubClusterOptions,
    /// K-means loop options.
    pub kmeans: KMeansOptions,
    /// §6 extension (off by default): drop candidate hub clusters whose
    /// average pairwise *content* similarity falls below this threshold —
    /// a label-free hub-quality gate.
    pub min_hub_quality: Option<f64>,
}

impl Default for CafcChConfig {
    /// The paper's headline configuration at its headline `k = 8`.
    fn default() -> Self {
        CafcChConfig::paper_default(8)
    }
}

impl CafcChConfig {
    /// The paper's headline configuration: `k = 8`, hub cardinality ≥ 8.
    pub fn paper_default(k: usize) -> Self {
        CafcChConfig {
            k,
            hub: HubClusterOptions::default(),
            kmeans: KMeansOptions::default(),
            min_hub_quality: None,
        }
    }

    /// Set the number of clusters `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Set the hub-cluster construction options.
    pub fn with_hub(mut self, hub: HubClusterOptions) -> Self {
        self.hub = hub;
        self
    }

    /// Set the k-means loop options.
    pub fn with_kmeans(mut self, kmeans: KMeansOptions) -> Self {
        self.kmeans = kmeans;
        self
    }

    /// Set (or clear) the hub-quality gate.
    pub fn with_min_hub_quality(mut self, min: Option<f64>) -> Self {
        self.min_hub_quality = min;
        self
    }
}

/// CAFC-CH result.
#[derive(Debug, Clone)]
pub struct CafcChOutcome {
    /// The k-means result seeded with hub clusters.
    pub outcome: KMeansOutcome,
    /// Hub construction statistics (§3.1 numbers).
    pub hub_stats: HubStats,
    /// How many seeds came from hub clusters.
    pub hub_seeds: usize,
    /// How many seeds had to be padded with random singletons (only when
    /// fewer than `k` hub clusters survive filtering).
    pub padded_seeds: usize,
    /// Hub clusters dropped by the `min_hub_quality` gate.
    pub quality_rejected: usize,
}

/// Run CAFC-CH (Algorithm 2): build hub clusters over `targets` (aligned
/// index-for-index with the items of `space`), select the `k` most distant
/// ones (Algorithm 3), and run k-means from those seeds.
///
/// For a fixed RNG seed the output is bit-identical under every `policy`
/// and whether or not `obs` has a sink: the hub-quality gate and the
/// k-means loop parallelize deterministically, and the seed-padding RNG
/// draws stay on the calling thread in a fixed order. Records the
/// [`select_hub_clusters`] metrics, counters `seed.hub_seeds` /
/// `seed.padded_seeds`, and the [`kmeans()`] metrics.
///
/// # Panics
/// Panics if `targets.len() != space.len()`.
pub fn cafc_ch<R: Rng>(
    graph: &WebGraph,
    targets: &[PageId],
    space: &FormPageSpace<'_>,
    config: &CafcChConfig,
    rng: &mut R,
    policy: ExecPolicy,
    obs: &Obs,
) -> CafcChOutcome {
    let (mut seeds, hub_stats, quality_rejected) =
        select_hub_clusters(graph, targets, space, config, policy, obs);
    let hub_seeds = seeds.len();

    // Degenerate webs can yield fewer than k hub clusters; pad with random
    // singleton seeds so k-means still produces k clusters.
    let mut padded_seeds = 0;
    if seeds.len() < config.k {
        let covered: Vec<usize> = seeds.iter().flatten().copied().collect();
        let mut free: Vec<usize> = (0..space.len()).filter(|i| !covered.contains(i)).collect();
        while seeds.len() < config.k && !free.is_empty() {
            let pick = rng.random_range(0..free.len());
            seeds.push(vec![free.swap_remove(pick)]);
            padded_seeds += 1;
        }
    }
    obs.add("seed.hub_seeds", hub_seeds as u64);
    obs.add("seed.padded_seeds", padded_seeds as u64);

    let outcome = kmeans(space, &seeds, &config.kmeans, policy, obs);
    CafcChOutcome {
        outcome,
        hub_stats,
        hub_seeds,
        padded_seeds,
        quality_rejected,
    }
}

/// `SelectHubClusters` (Algorithm 3) as a standalone step: build hub
/// clusters over `targets`, apply the optional quality gate, and greedily
/// pick the `config.k` mutually most distant ones.
///
/// Returns `(seed clusters, hub stats, quality-gate rejections)`. Exposed
/// separately from [`cafc_ch`] so alternative clusterers (e.g. the Table-2
/// HAC variant) can consume the same seeds. Bit-identical under every
/// `policy`. The whole step runs under a `seed.select_hub_clusters` span,
/// and candidate/rejection counts land in `seed.hub_candidates` /
/// `seed.quality_rejected`.
///
/// # Panics
/// Panics if `targets.len() != space.len()`.
pub fn select_hub_clusters(
    graph: &WebGraph,
    targets: &[PageId],
    space: &FormPageSpace<'_>,
    config: &CafcChConfig,
    policy: ExecPolicy,
    obs: &Obs,
) -> (Vec<Vec<usize>>, HubStats, usize) {
    let _span = obs.span("seed.select_hub_clusters");
    assert_eq!(
        targets.len(),
        space.len(),
        "targets must align with the corpus items"
    );
    let (clusters, hub_stats) = hub_clusters(graph, targets, &config.hub);
    let mut candidates: Vec<Vec<usize>> = clusters.into_iter().map(|c| c.members).collect();
    obs.add("seed.hub_candidates", candidates.len() as u64);

    // Optional quality gate (content coherence of each hub cluster). Each
    // candidate's score is one closure; the retain order is the candidate
    // order, so the surviving set is policy-independent.
    let mut quality_rejected = 0;
    if let Some(min_q) = config.min_hub_quality {
        let before = candidates.len();
        let scores = cafc_exec::par_map_slice(policy, &candidates, |_, members| {
            hub_cluster_quality(space, members, ExecPolicy::Serial)
        });
        let mut keep = scores.iter().map(|&q| q >= min_q);
        candidates.retain(|_| keep.next().unwrap_or(false));
        quality_rejected = before - candidates.len();
    }
    obs.add("seed.quality_rejected", quality_rejected as u64);

    // Greedy farthest-first selection of k seed clusters (Alg. 3, lines 3-7).
    let selected = greedy_distant_seeds(space, &candidates, config.k);
    let seeds: Vec<Vec<usize>> = selected.iter().map(|&i| candidates[i].clone()).collect();
    (seeds, hub_stats, quality_rejected)
}

/// Average pairwise content similarity within a candidate hub cluster
/// (1.0 for singletons).
///
/// Bit-identical under every `policy`: the upper-triangle pair sum is
/// accumulated per fixed row chunk and the partials are added in chunk
/// order, so the float accumulation order never depends on thread count.
pub fn hub_cluster_quality(
    space: &FormPageSpace<'_>,
    members: &[usize],
    policy: ExecPolicy,
) -> f64 {
    if members.len() < 2 {
        return 1.0;
    }
    let partials = par_chunks(policy, members.len(), DEFAULT_CHUNK, |rows| {
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in rows {
            let a = members[i];
            for &b in &members[i + 1..] {
                sum += space.item_similarity(a, b);
                count += 1;
            }
        }
        (sum, count)
    });
    let (sum, count) = partials
        .into_iter()
        .fold((0.0, 0usize), |(s, c), (ps, pc)| (s + ps, c + pc));
    sum / count.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FormPageCorpus, ModelOptions};
    use crate::space::FeatureConfig;
    use cafc_webgraph::Url;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Six pages in two obvious domains, plus hubs co-citing each trio.
    fn fixture() -> (WebGraph, Vec<PageId>, FormPageCorpus) {
        let mut g = WebGraph::new();
        let airfare = |i: usize| {
            format!(
                "<title>Flights {i}</title><p>airfare travel deals flights vacation airline</p>\
                 <form>departure arrival cabin <input name=a></form>"
            )
        };
        let jobs = |i: usize| {
            format!(
                "<title>Jobs {i}</title><p>careers employment salary resume openings hiring</p>\
                 <form>keywords category location <input name=b></form>"
            )
        };
        let mut targets = Vec::new();
        for i in 0..3 {
            let u = Url::parse(&format!("http://air{i}.com/f")).expect("url");
            targets.push(g.add_page(u, airfare(i)));
        }
        for i in 0..3 {
            let u = Url::parse(&format!("http://job{i}.com/f")).expect("url");
            targets.push(g.add_page(u, jobs(i)));
        }
        // One hub per domain co-citing its trio.
        let hub_a = g.intern(Url::parse("http://dir-air.org/").expect("url"));
        let hub_j = g.intern(Url::parse("http://dir-job.org/").expect("url"));
        for i in 0..3 {
            g.add_link(hub_a, targets[i]);
            g.add_link(hub_j, targets[3 + i]);
        }
        let ids: Vec<PageId> = targets.clone();
        let corpus = FormPageCorpus::from_graph(
            &g,
            &ids,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        (g, ids, corpus)
    }

    fn strict_kmeans() -> KMeansOptions {
        KMeansOptions::strict()
    }

    #[test]
    fn cafc_c_separates_domains() {
        let (_, _, corpus) = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let mut rng = StdRng::seed_from_u64(5);
        let out = cafc_c(
            &space,
            2,
            &strict_kmeans(),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let clusters = out.partition.clusters();
        for c in clusters {
            assert!(
                c.iter().all(|&i| i < 3) || c.iter().all(|&i| i >= 3),
                "mixed cluster {c:?}"
            );
        }
    }

    #[test]
    fn cafc_ch_uses_hub_seeds() {
        let (g, targets, corpus) = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let config = CafcChConfig::paper_default(2)
            .with_hub(HubClusterOptions {
                min_cardinality: 2,
                ..Default::default()
            })
            .with_kmeans(strict_kmeans());
        let mut rng = StdRng::seed_from_u64(6);
        let out = cafc_ch(
            &g,
            &targets,
            &space,
            &config,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.hub_seeds, 2);
        assert_eq!(out.padded_seeds, 0);
        assert_eq!(out.hub_stats.distinct_clusters, 2);
        let clusters = out.outcome.partition.clusters();
        let mut sorted: Vec<Vec<usize>> = clusters.to_vec();
        for c in &mut sorted {
            c.sort_unstable();
        }
        sorted.sort();
        assert_eq!(sorted, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn cafc_ch_pads_when_hubs_scarce() {
        let (g, targets, corpus) = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        // min_cardinality 4 kills both 3-member hub clusters.
        let config = CafcChConfig::paper_default(2)
            .with_hub(HubClusterOptions {
                min_cardinality: 4,
                ..Default::default()
            })
            .with_kmeans(strict_kmeans());
        let mut rng = StdRng::seed_from_u64(7);
        let out = cafc_ch(
            &g,
            &targets,
            &space,
            &config,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(out.hub_seeds, 0);
        assert_eq!(out.padded_seeds, 2);
        assert_eq!(out.outcome.partition.num_clusters(), 2);
    }

    #[test]
    fn quality_gate_drops_incoherent_hubs() {
        let (mut g, targets, _) = fixture();
        // Add a contaminated hub mixing both domains.
        let bad_hub = g.intern(Url::parse("http://dir-mixed.org/").expect("url"));
        for &t in &targets {
            g.add_link(bad_hub, t);
        }
        let corpus = FormPageCorpus::from_graph(
            &g,
            &targets,
            &ModelOptions::default(),
            false,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let config = CafcChConfig::paper_default(2)
            .with_hub(HubClusterOptions {
                min_cardinality: 2,
                ..Default::default()
            })
            .with_kmeans(strict_kmeans())
            .with_min_hub_quality(Some(0.5));
        let mut rng = StdRng::seed_from_u64(8);
        let out = cafc_ch(
            &g,
            &targets,
            &space,
            &config,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert!(
            out.quality_rejected >= 1,
            "the mixed hub should be gated out"
        );
    }

    #[test]
    fn hub_cluster_quality_values() {
        let (_, _, corpus) = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        assert_eq!(hub_cluster_quality(&space, &[0], ExecPolicy::Serial), 1.0);
        let pure = hub_cluster_quality(&space, &[0, 1, 2], ExecPolicy::Serial);
        let mixed = hub_cluster_quality(&space, &[0, 1, 3], ExecPolicy::Serial);
        assert!(pure > mixed, "pure {pure} <= mixed {mixed}");
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let (g, targets, corpus) = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let config = CafcChConfig::paper_default(2)
            .with_hub(HubClusterOptions {
                min_cardinality: 2,
                ..Default::default()
            })
            .with_kmeans(strict_kmeans())
            .with_min_hub_quality(Some(0.1));
        let mut rng = StdRng::seed_from_u64(11);
        let baseline = cafc_ch(
            &g,
            &targets,
            &space,
            &config,
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        for policy in [
            ExecPolicy::Parallel { threads: 1 },
            ExecPolicy::Parallel { threads: 7 },
            ExecPolicy::Auto,
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let out = cafc_ch(
                &g,
                &targets,
                &space,
                &config,
                &mut rng,
                policy,
                &Obs::disabled(),
            );
            assert_eq!(
                out.outcome.partition, baseline.outcome.partition,
                "{policy:?}"
            );
            assert_eq!(out.hub_seeds, baseline.hub_seeds, "{policy:?}");
            let q = hub_cluster_quality(&space, &[0, 1, 2, 3], policy);
            let q0 = hub_cluster_quality(&space, &[0, 1, 2, 3], ExecPolicy::Serial);
            assert_eq!(q.to_bits(), q0.to_bits(), "quality under {policy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "align")]
    fn cafc_ch_rejects_misaligned_targets() {
        let (g, targets, corpus) = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let mut rng = StdRng::seed_from_u64(9);
        cafc_ch(
            &g,
            &targets[..3],
            &space,
            &CafcChConfig::paper_default(2),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
    }
}
