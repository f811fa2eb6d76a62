//! `cafc-check` property suite for seed selection (Algorithm 3) and the
//! k-means loop over generated dense spaces. Runs offline on every commit.

use cafc_check::corpus::clustering;
use cafc_check::gen::{f64s, pairs, usizes, vecs, Gen};
use cafc_check::{check, require, require_eq, CheckConfig};
use cafc_cluster::{greedy_distant_seeds, kmeans, ClusterSpace, DenseSpace, KMeansOptions, Obs};

/// A selection problem: 2-D points, candidate seed clusters over them, and
/// a requested seed count.
type SelectionProblem = (Vec<Vec<f64>>, Vec<Vec<usize>>, usize);

/// `n` 2-D points (n in 2..=10) plus candidate seed clusters over them and
/// a requested seed count `k` in 2..=6.
fn selection_problem() -> Gen<SelectionProblem> {
    usizes(2, 10).flat_map(|&n| {
        let points = vecs(&vecs(&f64s(-3.0, 3.0), 2, 2), n, n);
        pairs(&pairs(&points, &clustering(n, 5)), &usizes(2, 6))
            .map(|((points, candidates), k)| (points.clone(), candidates.clone(), *k))
    })
}

/// Algorithm 3's selection half always returns `min(k, #candidates)`
/// mutually distinct candidate indices — when enough candidates exist, it
/// returns exactly `k` distinct hub clusters.
#[test]
fn greedy_selection_returns_k_distinct_candidates() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        candidates,
        k,
    )| {
        let space = DenseSpace::new(points.clone());
        let picked = greedy_distant_seeds(&space, candidates, *k);
        require_eq!(picked.len(), (*k).min(candidates.len()));
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        require_eq!(sorted.len(), picked.len());
        require!(
            picked.iter().all(|&i| i < candidates.len()),
            "index out of range: {picked:?}"
        );
        Ok(())
    });
}

/// The greedy selection is deterministic: same space, same candidates,
/// same `k` — same indices in the same order.
#[test]
fn greedy_selection_deterministic() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        candidates,
        k,
    )| {
        let space = DenseSpace::new(points.clone());
        require_eq!(
            greedy_distant_seeds(&space, candidates, *k),
            greedy_distant_seeds(&space, candidates, *k)
        );
        Ok(())
    });
}

/// k-means from arbitrary generated seed clusters yields a valid full
/// partition: every item in exactly one cluster, iteration count within the
/// configured cap, no more clusters than seeds. (Starved clusters may end
/// empty — that is allowed; losing or duplicating an item is not.)
#[test]
fn kmeans_yields_valid_partition() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        seeds,
        _,
    )| {
        let n = points.len();
        let space = DenseSpace::new(points.clone());
        let opts = KMeansOptions::default();
        let out = kmeans(&space, seeds, &opts, ExecPolicy::Serial, &Obs::disabled());
        let mut assigned: Vec<usize> = out.partition.clusters().iter().flatten().copied().collect();
        assigned.sort_unstable();
        require_eq!(assigned, (0..n).collect::<Vec<_>>());
        require!(out.partition.num_clusters() <= seeds.len());
        require!(
            out.iterations <= opts.max_iterations.max(1),
            "iterations {} above cap",
            out.iterations
        );
        Ok(())
    });
}

/// Degenerate seeds fall back instead of panicking: all-empty seed lists
/// produce the single-cluster fallback holding every item.
#[test]
fn kmeans_degenerate_seeds_fall_back() {
    let points = usizes(1, 8).flat_map(|&n| vecs(&vecs(&f64s(-3.0, 3.0), 2, 2), n, n));
    check!(CheckConfig::new(), points, |points: &Vec<Vec<f64>>| {
        let n = points.len();
        let space = DenseSpace::new(points.clone());
        let empty_seeds: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
        let out = kmeans(
            &space,
            &empty_seeds,
            &KMeansOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        require_eq!(out.partition.num_clusters(), 1);
        require_eq!(out.partition.clusters()[0].len(), n);
        Ok(())
    });
}

/// Selection respects the space: the two seeds picked first are a pair at
/// maximal centroid distance (sanity link between Algorithm 3 and the
/// similarity space).
#[test]
fn greedy_selection_starts_with_a_farthest_pair() {
    check!(CheckConfig::new(), selection_problem(), |(
        points,
        candidates,
        k,
    )| {
        if candidates.len() <= *k {
            return Ok(()); // all candidates returned; no selection ran
        }
        let space = DenseSpace::new(points.clone());
        let picked = greedy_distant_seeds(&space, candidates, *k);
        let centroids: Vec<Vec<f64>> = candidates.iter().map(|c| space.centroid(c)).collect();
        let d = |i: usize, j: usize| 1.0 - space.centroid_similarity(&centroids[i], &centroids[j]);
        let first = d(picked[0], picked[1]);
        for i in 0..candidates.len() {
            for j in (i + 1)..candidates.len() {
                require!(
                    d(i, j) <= first + 1e-9,
                    "pair ({i},{j}) at {} beats the chosen pair at {first}",
                    d(i, j)
                );
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// The assignment pass against its per-pair reference.
// ---------------------------------------------------------------------

use cafc_cluster::{
    kmeans_sparse_exec, nearest_centroid, ExecPolicy, Partition, SparseClusterSpace,
};

/// A term-set space: each item is a set of `u64` term keys, an item's
/// vector is the indicator over its terms, and similarity is cosine, so
/// disjoint supports score exactly `0.0` and tie.
struct TermSets {
    docs: Vec<Vec<u64>>, // each sorted + deduped
}

impl ClusterSpace for TermSets {
    type Centroid = Vec<(u64, f64)>; // sorted by term, non-zero weights

    fn len(&self) -> usize {
        self.docs.len()
    }

    fn centroid(&self, members: &[usize]) -> Self::Centroid {
        let mut acc: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for &m in members {
            for &t in &self.docs[m] {
                *acc.entry(t).or_insert(0.0) += 1.0;
            }
        }
        let n = members.len().max(1) as f64;
        acc.into_iter().map(|(t, w)| (t, w / n)).collect()
    }

    fn similarity(&self, centroid: &Self::Centroid, item: usize) -> f64 {
        let doc = &self.docs[item];
        let dot: f64 = centroid
            .iter()
            .filter(|(t, _)| doc.binary_search(t).is_ok())
            .map(|&(_, w)| w)
            .sum();
        let nc: f64 = centroid.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        let nd = (doc.len() as f64).sqrt();
        if nc == 0.0 || nd == 0.0 {
            0.0
        } else {
            (dot / (nc * nd)).clamp(0.0, 1.0)
        }
    }

    fn centroid_similarity(&self, a: &Self::Centroid, b: &Self::Centroid) -> f64 {
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += a[i].1 * b[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let na: f64 = a.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }
}

impl SparseClusterSpace for TermSets {
    fn for_each_item_term(&self, item: usize, f: &mut dyn FnMut(u64)) {
        for &t in &self.docs[item] {
            f(t);
        }
    }

    fn for_each_centroid_term(&self, centroid: &Self::Centroid, f: &mut dyn FnMut(u64)) {
        for &(t, _) in centroid {
            f(t);
        }
    }
}

/// Documents as term sets, plus seed clusters over them.
type SparseProblem = (Vec<Vec<u64>>, Vec<Vec<usize>>);

/// A sparse clustering problem: documents as small term sets — including
/// empty documents and documents isolated onto a private term range (zero
/// overlap with everything else) — plus seed clusters over them.
fn sparse_problem() -> Gen<SparseProblem> {
    usizes(2, 9).flat_map(|&n| {
        // Per doc: a term set in 0..12, possibly empty, and an isolation
        // flag that moves the doc onto a disjoint private range.
        let doc = pairs(&vecs(&usizes(0, 11), 0, 4), &cafc_check::gen::bools());
        pairs(&vecs(&doc, n, n), &clustering(n, 4)).map(|(docs, seeds)| {
            let docs: Vec<Vec<u64>> = docs
                .iter()
                .enumerate()
                .map(|(i, (terms, isolated))| {
                    let offset = if *isolated { 1_000 + 100 * i as u64 } else { 0 };
                    let mut v: Vec<u64> = terms.iter().map(|&t| t as u64 + offset).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            (docs, seeds.clone())
        })
    })
}

/// The per-pair reference k-means: Algorithm 1 as `kmeans` runs it
/// (empty seeds dropped, at least one pass, starved clusters keep their
/// centroid, the move-fraction stop), with every item assigned by
/// [`nearest_centroid`] — one `similarity` call per (item, centroid) pair.
fn reference_kmeans<S: ClusterSpace>(
    space: &S,
    seeds: &[Vec<usize>],
    opts: &KMeansOptions,
) -> (Partition, usize, bool) {
    let n = space.len();
    let seeds: Vec<&Vec<usize>> = seeds.iter().filter(|s| !s.is_empty()).collect();
    if seeds.is_empty() {
        let clusters = if n == 0 {
            vec![]
        } else {
            vec![(0..n).collect()]
        };
        return (Partition::new(clusters, n), 0, n > 0);
    }
    let k = seeds.len();
    let mut centroids: Vec<S::Centroid> = seeds.iter().map(|s| space.centroid(s)).collect();
    let mut assignment = vec![usize::MAX; n];
    let (mut iterations, mut converged) = (0, false);
    while iterations < opts.max_iterations.max(1) {
        iterations += 1;
        let mut moved = 0;
        for (item, assigned) in assignment.iter_mut().enumerate() {
            let best =
                nearest_centroid(space, centroids.iter().enumerate(), item).map_or(0, |(c, _)| c);
            if *assigned != best {
                moved += 1;
                *assigned = best;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if !members.is_empty() {
                *centroid = space.centroid(&members);
            }
        }
        if n == 0 {
            break;
        }
        if (moved as f64) / (n as f64) < opts.move_fraction_threshold {
            converged = true;
            break;
        }
    }
    (
        Partition::from_assignments(&assignment, k),
        iterations,
        converged,
    )
}

/// Over any sparse corpus — zero-overlap and empty documents included,
/// so many items tie at `0.0` — k-means (and its `kmeans_sparse_exec`
/// alias) equals the per-pair reference from the same seeds, under every
/// execution policy.
#[test]
fn sparse_assignment_matches_dense_reference() {
    check!(CheckConfig::new(), sparse_problem(), |(docs, seeds)| {
        let space = TermSets { docs: docs.clone() };
        let opts = KMeansOptions::default();
        let (partition, iterations, converged) = reference_kmeans(&space, seeds, &opts);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }] {
            for out in [
                kmeans(&space, seeds, &opts, policy, &Obs::disabled()),
                kmeans_sparse_exec(&space, seeds, &opts, policy),
            ] {
                require_eq!(out.partition.clusters(), partition.clusters());
                require_eq!(out.iterations, iterations);
                require_eq!(out.converged, converged);
            }
        }
        Ok(())
    });
}

/// A space whose similarities are drawn from a table of ties, NaN, ±∞
/// and ordinary values by a hash of (centroid, item); a centroid is its
/// seed's first member.
struct TableSpace {
    n: usize,
    salt: u64,
}

impl TableSpace {
    const VALUES: [f64; 6] = [f64::NAN, f64::NEG_INFINITY, 0.0, 0.5, 0.5, 1.0];
}

impl ClusterSpace for TableSpace {
    type Centroid = usize;

    fn len(&self) -> usize {
        self.n
    }

    fn centroid(&self, members: &[usize]) -> usize {
        members[0]
    }

    fn similarity(&self, centroid: &usize, item: usize) -> f64 {
        let mut h = self.salt ^ ((*centroid as u64) << 32) ^ item as u64;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        Self::VALUES[(h % Self::VALUES.len() as u64) as usize]
    }

    fn centroid_similarity(&self, a: &usize, b: &usize) -> f64 {
        self.similarity(a, *b)
    }
}

/// One assignment pass equals per-item [`nearest_centroid`] — ascending
/// centroid index, the first starting at −∞, strict `>` — over ties, NaN
/// and infinite similarities and runs of items longer than one scoring
/// chunk, under every execution policy.
#[test]
fn assignment_pass_matches_nearest_centroid() {
    let problem = pairs(&pairs(&usizes(1, 2500), &usizes(1, 6)), &usizes(0, 1 << 20));
    let cfg = CheckConfig::new().with_cases(48);
    check!(cfg, problem, |((n, k), salt)| {
        let space = TableSpace {
            n: *n,
            salt: *salt as u64,
        };
        let seeds: Vec<Vec<usize>> = (0..(*k).min(*n)).map(|c| vec![c]).collect();
        let one_pass = KMeansOptions::default().with_max_iterations(1);
        let (partition, _, _) = reference_kmeans(&space, &seeds, &one_pass);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }] {
            let out = kmeans(&space, &seeds, &one_pass, policy, &Obs::disabled());
            require_eq!(out.partition.clusters(), partition.clusters());
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------
// Termination from random seeds, and HAC's partition and separation
// guarantees, over 1-D dense spaces.
// ---------------------------------------------------------------------

use cafc_cluster::{hac, random_singleton_seeds, HacOptions, Linkage};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `lo..=hi` one-dimensional points in `[0, 100)`.
fn line_points(lo: usize, hi: usize) -> Gen<Vec<Vec<f64>>> {
    vecs(&f64s(0.0, 100.0).map(|&x| vec![x]), lo, hi)
}

/// k-means from `k` random singleton seeds stops within its iteration cap,
/// even when the move threshold is too strict to be met early, and returns
/// `k` clusters holding every item exactly once.
#[test]
fn kmeans_from_random_seeds_terminates_and_partitions() {
    let problem = pairs(&pairs(&line_points(1, 39), &usizes(1, 5)), &usizes(0, 99));
    check!(CheckConfig::new(), problem, |((points, k), rng_seed)| {
        let space = DenseSpace::new(points.clone());
        let k = (*k).min(space.len());
        let seeds = random_singleton_seeds(&space, k, &mut StdRng::seed_from_u64(*rng_seed as u64));
        let opts = KMeansOptions::new()
            .with_move_fraction_threshold(1e-12)
            .with_max_iterations(500);
        let out = kmeans(&space, &seeds, &opts, ExecPolicy::Serial, &Obs::disabled());
        require!(out.iterations <= 500, "{} iterations", out.iterations);
        require_eq!(out.partition.num_clusters(), k);
        let mut assigned: Vec<usize> = out.partition.clusters().iter().flatten().copied().collect();
        assigned.sort_unstable();
        require_eq!(assigned, (0..space.len()).collect::<Vec<_>>());
        Ok(())
    });
}

/// HAC yields exactly the target number of clusters (when feasible) and
/// covers every item, for every linkage.
#[test]
fn hac_partitions_everything() {
    let problem = pairs(&line_points(1, 24), &usizes(1, 5));
    check!(CheckConfig::new(), problem, |(points, target)| {
        let space = DenseSpace::new(points.clone());
        let target = (*target).min(space.len());
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Centroid,
        ] {
            let p = hac(
                &space,
                &[],
                &HacOptions {
                    target_clusters: target,
                    linkage,
                },
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            require_eq!(p.num_clusters(), target);
            let mut assigned: Vec<usize> = p.clusters().iter().flatten().copied().collect();
            assigned.sort_unstable();
            require_eq!(assigned, (0..space.len()).collect::<Vec<_>>());
        }
        Ok(())
    });
}

/// With two clearly separated blobs and target 2, average-linkage HAC
/// never mixes the blobs.
#[test]
fn hac_respects_separation() {
    let blobs = pairs(
        &vecs(&f64s(0.0, 1.0), 2, 5),
        &vecs(&f64s(1000.0, 1001.0), 2, 5),
    );
    check!(CheckConfig::new(), blobs, |(left, right)| {
        let n_left = left.len();
        let points: Vec<Vec<f64>> = left.iter().chain(right).map(|&x| vec![x]).collect();
        let p = hac(
            &DenseSpace::new(points),
            &[],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Average,
            },
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        for c in p.clusters() {
            let all_left = c.iter().all(|&i| i < n_left);
            let all_right = c.iter().all(|&i| i >= n_left);
            require!(all_left || all_right, "mixed cluster {c:?}");
        }
        Ok(())
    });
}
