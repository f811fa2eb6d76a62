//! Hierarchical agglomerative clustering (§4.3 of the paper).
//!
//! "HAC starts with the individual documents as initial clusters and, at
//! each step, combines the closest pair of clusters." Table 2 also runs
//! HAC *from hub clusters*, so [`hac`] accepts an arbitrary starting
//! partition. Cluster distance is `1 − similarity` under the chosen
//! [`Linkage`].
//!
//! Complexity is O(g² · n) in the number of starting groups `g` for the
//! pairwise linkages (via Lance–Williams updates) — entirely adequate for
//! the paper's 454-page corpus and our benchmark sweeps.

use crate::partition::Partition;
use crate::resume::HacCheckpointer;
use crate::space::ClusterSpace;
use cafc_exec::{par_map, par_map_obs, ExecPolicy};
use cafc_obs::Obs;
use cafc_store::StoreError;

/// Linkage criterion: how the distance between two clusters is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise item distance.
    Single,
    /// Maximum pairwise item distance.
    Complete,
    /// Unweighted average pairwise item distance (UPGMA).
    Average,
    /// Distance between cluster centroids (recomputed on merge) — matches
    /// the paper's Equation 3/4 machinery most directly.
    Centroid,
}

/// HAC options.
#[derive(Debug, Clone, Copy)]
pub struct HacOptions {
    /// Stop when this many clusters remain.
    pub target_clusters: usize,
    /// Linkage criterion (default: centroid, like the paper's k-means side).
    pub linkage: Linkage,
}

impl Default for HacOptions {
    fn default() -> Self {
        HacOptions {
            target_clusters: 8,
            linkage: Linkage::Centroid,
        }
    }
}

/// Run HAC down to `opts.target_clusters` clusters.
///
/// `initial` is the starting partition: pass `&[]` (or one singleton per
/// item) for classic HAC, or hub clusters plus singletons for the seeded
/// variant. Items absent from `initial` are added as singletons
/// automatically.
///
/// The O(g²) pairwise distance matrix and the per-step closest-pair scans
/// fan out by matrix row under `policy`; per-row partial argmins are merged
/// in row order, so ties resolve to the lexicographically smallest pair
/// for every policy — exactly the serial scan order.
///
/// Emits, when `obs` has a sink: counter `hac.merges` (one per merge
/// step), gauges `hac.initial_groups` / `hac.final_groups`, and a
/// `hac.merge_scan` span aggregating the closest-pair scans (plus
/// `hac.dissimilarity_matrix` for the pairwise linkages' O(g²)
/// initialization). The output is the same with or without a sink.
pub fn hac<S>(
    space: &S,
    initial: &[Vec<usize>],
    opts: &HacOptions,
    policy: ExecPolicy,
    obs: &Obs,
) -> Partition
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    match hac_driver(space, initial, opts, policy, obs, None) {
        Ok(partition) => partition,
        // Unreachable: the driver only fails through a checkpointer.
        Err(_) => Partition::new(Vec::new(), space.len()),
    }
}

/// The HAC loop proper, shared by the plain entry points (no checkpointer)
/// and [`hac_resumable`](crate::hac_resumable): the checkpointer journals
/// every merge decision and, on resume, replays journaled merges instead
/// of rerunning the closest-pair scans. Replayed and live merges mutate
/// the groups identically, so the final partition is bit-identical.
pub(crate) fn hac_driver<S>(
    space: &S,
    initial: &[Vec<usize>],
    opts: &HacOptions,
    policy: ExecPolicy,
    obs: &Obs,
    ckpt: Option<&mut HacCheckpointer<'_>>,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let n = space.len();
    let mut groups: Vec<Vec<usize>> = initial.iter().filter(|g| !g.is_empty()).cloned().collect();
    // Add unassigned items as singletons.
    let mut seen = vec![false; n];
    for g in &groups {
        for &m in g {
            seen[m] = true;
        }
    }
    for (item, &s) in seen.iter().enumerate() {
        if !s {
            groups.push(vec![item]);
        }
    }
    obs.gauge("hac.initial_groups", groups.len() as f64);
    if groups.len() <= opts.target_clusters {
        obs.gauge("hac.final_groups", groups.len() as f64);
        return Ok(Partition::new(groups, n));
    }

    let partition = match opts.linkage {
        Linkage::Centroid => {
            hac_centroid(space, groups, opts.target_clusters, n, policy, obs, ckpt)?
        }
        _ => hac_pairwise(space, groups, opts, n, policy, obs, ckpt)?,
    };
    obs.gauge("hac.final_groups", partition.num_clusters() as f64);
    Ok(partition)
}

/// Centroid linkage: merge the pair with the most similar centroids and
/// recompute the merged centroid.
#[allow(clippy::too_many_arguments)]
fn hac_centroid<S>(
    space: &S,
    mut groups: Vec<Vec<usize>>,
    target: usize,
    n: usize,
    policy: ExecPolicy,
    obs: &Obs,
    mut ckpt: Option<&mut HacCheckpointer<'_>>,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
    S::Centroid: Send + Sync,
{
    let mut centroids: Vec<S::Centroid> =
        par_map(policy, groups.len(), |g| space.centroid(&groups[g]));
    let mut step: u64 = 0;
    // `target` may be 0; a lone group cannot merge further.
    while groups.len() > target.max(1) {
        let _scan = obs.span("hac.merge_scan");
        obs.incr("hac.merges");
        // A journaled merge from an interrupted run replays directly,
        // skipping the closest-pair scan.
        let replayed = match ckpt.as_mut() {
            Some(c) => c.replay_merge(step, |i, j| i < j && j < groups.len())?,
            None => None,
        };
        let (bi, bj) = match replayed {
            Some(pair) => pair,
            None => {
                // Per-row argmax over j > i (strict `>`: first maximum wins
                // within a row), merged in row order — same winner as the
                // serial double loop.
                let row_best = par_map(policy, groups.len(), |i| {
                    let mut best = (f64::NEG_INFINITY, usize::MAX);
                    for j in (i + 1)..groups.len() {
                        let sim = space.centroid_similarity(&centroids[i], &centroids[j]);
                        if sim > best.0 {
                            best = (sim, j);
                        }
                    }
                    best
                });
                let (mut bi, mut bj, mut best) = (0, 1, f64::NEG_INFINITY);
                for (i, &(sim, j)) in row_best.iter().enumerate() {
                    if j != usize::MAX && sim > best {
                        best = sim;
                        bi = i;
                        bj = j;
                    }
                }
                if let Some(c) = ckpt.as_mut() {
                    c.record_merge(step, bi, bj)?;
                }
                (bi, bj)
            }
        };
        step += 1;
        let merged_members = {
            let mut m = groups[bi].clone();
            m.extend_from_slice(&groups[bj]);
            m
        };
        // Remove j first (j > i) to keep indices valid.
        groups.remove(bj);
        centroids.remove(bj);
        groups[bi] = merged_members;
        centroids[bi] = space.centroid(&groups[bi]);
    }
    if let Some(c) = ckpt.as_mut() {
        c.finish(step)?;
    }
    Ok(Partition::new(groups, n))
}

/// Single/complete/average linkage over a pairwise distance matrix with
/// Lance–Williams updates.
#[allow(clippy::too_many_arguments)]
fn hac_pairwise<S>(
    space: &S,
    mut groups: Vec<Vec<usize>>,
    opts: &HacOptions,
    n: usize,
    policy: ExecPolicy,
    obs: &Obs,
    mut ckpt: Option<&mut HacCheckpointer<'_>>,
) -> Result<Partition, StoreError>
where
    S: ClusterSpace + Sync,
{
    let g = groups.len();
    // dist[i][j] for i<j; initialized from linkage over item pairs. Each
    // row is one closure, so the matrix is identical for every policy.
    let matrix_span = obs.span("hac.dissimilarity_matrix");
    let upper = par_map_obs(policy, g, obs, "hac.dissimilarity_matrix", |i| {
        ((i + 1)..g)
            .map(|j| group_distance(space, &groups[i], &groups[j], opts.linkage))
            .collect::<Vec<f64>>()
    });
    drop(matrix_span);
    let mut dist = vec![vec![0.0f64; g]; g];
    for (i, row) in upper.into_iter().enumerate() {
        for (off, d) in row.into_iter().enumerate() {
            let j = i + 1 + off;
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    let mut alive: Vec<bool> = vec![true; g];
    let mut sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let mut remaining = g;

    let mut step: u64 = 0;
    while remaining > opts.target_clusters {
        let _scan = obs.span("hac.merge_scan");
        // A journaled merge from an interrupted run replays directly,
        // skipping the closest-pair scan.
        let replayed = match ckpt.as_mut() {
            Some(c) => c.replay_merge(step, |i, j| i < j && j < g && alive[i] && alive[j])?,
            None => None,
        };
        let (bi, bj) = match replayed {
            Some(pair) => pair,
            None => {
                // Find the closest live pair: per-row argmin (strict `<`,
                // first minimum wins), rows merged in index order — the
                // serial scan order.
                let row_best = par_map(policy, g, |i| {
                    if !alive[i] {
                        return (f64::INFINITY, usize::MAX);
                    }
                    let mut best = (f64::INFINITY, usize::MAX);
                    for j in (i + 1)..g {
                        if alive[j] && dist[i][j] < best.0 {
                            best = (dist[i][j], j);
                        }
                    }
                    best
                });
                let (mut bi, mut bj, mut best) = (usize::MAX, usize::MAX, f64::INFINITY);
                for (i, &(d, j)) in row_best.iter().enumerate() {
                    if j != usize::MAX && d < best {
                        best = d;
                        bi = i;
                        bj = j;
                    }
                }
                if bi == usize::MAX {
                    break; // fewer than two live groups (target_clusters of 0)
                }
                if let Some(c) = ckpt.as_mut() {
                    c.record_merge(step, bi, bj)?;
                }
                (bi, bj)
            }
        };
        step += 1;
        // Merge bj into bi, updating distances by Lance–Williams.
        for k in 0..g {
            if !alive[k] || k == bi || k == bj {
                continue;
            }
            let dik = dist[bi][k];
            let djk = dist[bj][k];
            let d = match opts.linkage {
                Linkage::Single => dik.min(djk),
                Linkage::Complete => dik.max(djk),
                Linkage::Average => {
                    let (si, sj) = (sizes[bi] as f64, sizes[bj] as f64);
                    (si * dik + sj * djk) / (si + sj)
                }
                // hac() routes centroid linkage to hac_centroid; if that
                // ever changes, the unweighted average is a sane stand-in.
                Linkage::Centroid => (dik + djk) / 2.0,
            };
            dist[bi][k] = d;
            dist[k][bi] = d;
        }
        let moved = std::mem::take(&mut groups[bj]);
        groups[bi].extend(moved);
        sizes[bi] += sizes[bj];
        alive[bj] = false;
        remaining -= 1;
        obs.incr("hac.merges");
    }
    if let Some(c) = ckpt.as_mut() {
        c.finish(step)?;
    }
    let final_groups: Vec<Vec<usize>> = groups
        .into_iter()
        .zip(alive)
        .filter(|(_, a)| *a)
        .map(|(g, _)| g)
        .collect();
    Ok(Partition::new(final_groups, n))
}

/// Initial inter-group distance under a pairwise linkage.
fn group_distance<S: ClusterSpace>(space: &S, a: &[usize], b: &[usize], linkage: Linkage) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut count = 0usize;
    for &x in a {
        for &y in b {
            let d = 1.0 - space.item_similarity(x, y);
            min = min.min(d);
            max = max.max(d);
            sum += d;
            count += 1;
        }
    }
    match linkage {
        Linkage::Single => min,
        Linkage::Complete => max,
        // Also covers the centroid fallback path (see hac_pairwise).
        Linkage::Average | Linkage::Centroid => sum / count.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DenseSpace;

    fn blobs() -> DenseSpace {
        DenseSpace::new(vec![
            vec![0.0],
            vec![0.1],
            vec![0.2],
            vec![10.0],
            vec![10.1],
            vec![10.2],
        ])
    }

    fn sorted(p: &Partition) -> Vec<Vec<usize>> {
        let mut cs: Vec<Vec<usize>> = p
            .clusters()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort_unstable();
                c
            })
            .collect();
        cs.sort();
        cs
    }

    #[test]
    fn separates_blobs_every_linkage() {
        let space = blobs();
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
                    target_clusters: 2,
                    linkage,
                },
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            assert_eq!(
                sorted(&p),
                vec![vec![0, 1, 2], vec![3, 4, 5]],
                "linkage {linkage:?} failed"
            );
        }
    }

    #[test]
    fn respects_target_cluster_count() {
        let space = blobs();
        for target in 1..=6 {
            let p = hac(
                &space,
                &[],
                &HacOptions {
                    target_clusters: target,
                    linkage: Linkage::Average,
                },
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            assert_eq!(p.num_clusters(), target);
            assert_eq!(p.num_assigned(), 6);
        }
    }

    #[test]
    fn seeded_start_preserves_groups() {
        let space = blobs();
        // Start with {0,1,2} pre-grouped; remaining items join as singletons.
        let p = hac(
            &space,
            &[vec![0, 1, 2]],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Centroid,
            },
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let cs = sorted(&p);
        assert_eq!(cs, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn initial_already_coarse_enough() {
        let space = blobs();
        let init = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let p = hac(
            &space,
            &init,
            &HacOptions {
                target_clusters: 4,
                linkage: Linkage::Average,
            },
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        // Only 2 groups supplied and target is 4 -> returned unchanged plus
        // nothing (all items covered).
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn empty_groups_in_initial_ignored() {
        let space = blobs();
        let p = hac(
            &space,
            &[vec![], vec![0, 1]],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Average,
            },
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(p.num_assigned(), 6);
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn deterministic() {
        let space = blobs();
        let o = HacOptions {
            target_clusters: 3,
            linkage: Linkage::Average,
        };
        assert_eq!(
            hac(&space, &[], &o, ExecPolicy::Serial, &Obs::disabled()),
            hac(&space, &[], &o, ExecPolicy::Serial, &Obs::disabled())
        );
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let space = blobs();
        for linkage in [
            Linkage::Single,
            Linkage::Complete,
            Linkage::Average,
            Linkage::Centroid,
        ] {
            let o = HacOptions {
                target_clusters: 2,
                linkage,
            };
            let baseline = hac(&space, &[], &o, ExecPolicy::Serial, &Obs::disabled());
            for policy in [
                ExecPolicy::Parallel { threads: 1 },
                ExecPolicy::Parallel { threads: 7 },
                ExecPolicy::Auto,
            ] {
                assert_eq!(
                    hac(&space, &[], &o, policy, &Obs::disabled()),
                    baseline,
                    "{linkage:?} under {policy:?}"
                );
            }
        }
    }

    #[test]
    fn single_linkage_chains() {
        // A chain 0-1-2-3 with equal gaps plus a far point: single linkage
        // merges the chain before the outlier.
        let space = DenseSpace::new(vec![
            vec![0.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![100.0],
        ]);
        let p = hac(
            &space,
            &[],
            &HacOptions {
                target_clusters: 2,
                linkage: Linkage::Single,
            },
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(sorted(&p), vec![vec![0, 1, 2, 3], vec![4]]);
    }
}
