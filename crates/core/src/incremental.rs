//! Incremental cluster maintenance.
//!
//! The paper's premise is a web "so vast and dynamic — with new sources
//! constantly being added" (§1); §5 sketches using built clusters to
//! classify new sources. This module makes that operational: an
//! [`IncrementalClusters`] state absorbs newly discovered form pages one
//! at a time (nearest-centroid assignment with centroid updates) and
//! tracks *drift* — how far the evolving centroids have moved from the
//! clustering they started as — so callers know when a full re-clustering
//! is warranted.

use crate::space::{FormPageSpace, MultiCentroid};
use cafc_cluster::{nearest_centroid, ClusterSpace, Partition};

/// A clustering that can absorb new items.
///
/// Each cluster keeps the unscaled sum of its members' vectors, in member
/// order, beside its centroid (that sum scaled by `1 / members`). An
/// arrival joins its cluster last, so folding it into the sum with one
/// [`SparseVector::add`](cafc_vsm::SparseVector::add) is the next step of
/// the fold a recompute would run: the centroid stays bit-equal to
/// `space.centroid(members)` at O(nnz(page) + nnz(centroid)) per arrival.
#[derive(Debug, Clone)]
pub struct IncrementalClusters {
    members: Vec<Vec<usize>>,
    sums: Vec<MultiCentroid>,
    centroids: Vec<MultiCentroid>,
    initial_centroids: Vec<MultiCentroid>,
}

impl IncrementalClusters {
    /// Start from an existing partition (empty clusters are kept so
    /// indices remain stable but are never assigned to until re-seeded).
    pub fn from_partition(space: &FormPageSpace<'_>, partition: &Partition) -> Self {
        let members: Vec<Vec<usize>> = partition.clusters().to_vec();
        let sums: Vec<MultiCentroid> = members.iter().map(|m| space.member_sum(m)).collect();
        let centroids: Vec<MultiCentroid> = sums
            .iter()
            .zip(&members)
            .map(|(sum, m)| sum.mean(m.len()))
            .collect();
        IncrementalClusters {
            initial_centroids: centroids.clone(),
            members,
            sums,
            centroids,
        }
    }

    /// Current member lists.
    pub fn members(&self) -> &[Vec<usize>] {
        &self.members
    }

    /// The non-empty cluster whose current centroid is most similar to
    /// `item`, ties to the lowest index (see [`nearest_centroid`]); `None`
    /// when every cluster is empty.
    pub(crate) fn nearest(&self, space: &FormPageSpace<'_>, item: usize) -> Option<usize> {
        let candidates = self
            .centroids
            .iter()
            .enumerate()
            .filter(|&(ci, _)| !self.members[ci].is_empty());
        nearest_centroid(space, candidates, item).map(|(ci, _)| ci)
    }

    /// Assign one new item to its most similar non-empty cluster, ties to
    /// the lowest index, add it, and fold it into that cluster's sum and
    /// centroid. Returns the cluster index.
    ///
    /// When every cluster is empty (a fully-quarantined start state) the
    /// item founds cluster 0, which is created if no slot exists at all.
    pub fn assign(&mut self, space: &FormPageSpace<'_>, item: usize) -> usize {
        let best = self.nearest(space, item).unwrap_or(0);
        if self.members.is_empty() {
            self.members.push(Vec::new());
            self.sums.push(MultiCentroid::default());
            self.centroids.push(MultiCentroid::default());
            self.initial_centroids.push(MultiCentroid::default());
        }
        let corpus = space.corpus();
        let sum = &mut self.sums[best];
        *sum = MultiCentroid {
            pc: sum.pc.add(&corpus.pc[item]),
            fc: sum.fc.add(&corpus.fc[item]),
            anchor: sum.anchor.add(&corpus.anchor[item]),
        };
        self.members[best].push(item);
        self.centroids[best] = sum.mean(self.members[best].len());
        best
    }

    /// Move `item` from cluster `from` to cluster `to` without touching
    /// sums or centroids. The repair pass in [`crate::stream`] applies a
    /// batch of moves and then refreshes every affected cluster exactly
    /// once via [`IncrementalClusters::refresh_centroids`]; refreshing per
    /// move would make the outcome depend on move order twice over. Until
    /// then both clusters are stale, and an arrival assigned to one of them
    /// folds into its stale sum.
    ///
    /// A no-op when `item` is not currently in `from`.
    pub fn move_item(&mut self, item: usize, from: usize, to: usize) {
        if from == to {
            return;
        }
        if let Some(pos) = self.members[from].iter().position(|&m| m == item) {
            self.members[from].remove(pos);
            self.members[to].push(item);
        }
    }

    /// Rebuild the sums and centroids of the listed clusters from their
    /// current members. Clusters emptied by moves get a default (zero)
    /// centroid, matching the empty-cluster convention of
    /// [`IncrementalClusters::from_partition`].
    pub fn refresh_centroids(&mut self, space: &FormPageSpace<'_>, clusters: &[usize]) {
        for &ci in clusters {
            self.sums[ci] = space.member_sum(&self.members[ci]);
            self.centroids[ci] = self.sums[ci].mean(self.members[ci].len());
        }
    }

    /// Mean centroid drift since construction: `1 − sim(initial, current)`
    /// averaged over non-empty clusters. 0.0 means nothing moved; values
    /// near 1.0 mean the clustering has effectively been replaced and a
    /// fresh CAFC-CH run is in order.
    pub fn drift(&self, space: &FormPageSpace<'_>) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (ci, m) in self.members.iter().enumerate() {
            if m.is_empty() {
                continue;
            }
            sum +=
                1.0 - space.centroid_similarity(&self.initial_centroids[ci], &self.centroids[ci]);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Snapshot as a [`Partition`] over `num_items` total items.
    pub fn to_partition(&self, num_items: usize) -> Partition {
        Partition::new(self.members.clone(), num_items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FormPageCorpus, ModelOptions};
    use crate::space::FeatureConfig;
    use crate::{ExecPolicy, Obs};
    use cafc_check::gen::{from_slice, pairs, usizes, vecs, Gen};
    use cafc_check::{check, require_eq, CheckConfig};

    /// 4 seed pages in two domains + 4 new arrivals (2 per domain).
    fn fixture() -> FormPageCorpus {
        let pages = [
            "<p>airfare flights travel airline deals</p><form>departure <input name=a></form>",
            "<p>flights airfare vacation travel</p><form>arrival <input name=b></form>",
            "<p>careers employment salary resume</p><form>keywords <input name=c></form>",
            "<p>employment careers hiring resume</p><form>category <input name=d></form>",
            // arrivals
            "<p>airline flights airfare deals</p><form>return <input name=e></form>",
            "<p>careers salary openings hiring</p><form>location <input name=f></form>",
            "<p>travel airfare airline vacation</p><form>cabin <input name=g></form>",
            "<p>resume employment salary careers</p><form>industry <input name=h></form>",
        ];
        FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
    }

    #[test]
    fn arrivals_join_matching_clusters() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        let assigned: Vec<usize> = (4..8).map(|item| inc.assign(&space, item)).collect();
        assert_eq!(assigned, vec![0, 1, 0, 1]);
        assert_eq!(inc.members()[0], vec![0, 1, 4, 6]);
        assert_eq!(inc.members()[1], vec![2, 3, 5, 7]);
    }

    #[test]
    fn centroids_update_with_arrivals() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.drift(&space), 0.0);
        for item in 4..8 {
            inc.assign(&space, item);
        }
        let drift = inc.drift(&space);
        assert!(drift > 0.0, "absorbing items must move centroids");
        assert!(
            drift < 0.5,
            "same-domain arrivals should not upend centroids: {drift}"
        );
    }

    #[test]
    fn empty_clusters_never_receive_items() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        for item in 4..8 {
            let c = inc.assign(&space, item);
            assert_ne!(c, 1, "item {item} landed in the empty cluster");
        }
    }

    #[test]
    fn to_partition_roundtrip() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        for item in [4, 5] {
            inc.assign(&space, item);
        }
        let p = inc.to_partition(8);
        assert_eq!(p.num_assigned(), 6);
        assert_eq!(p.num_clusters(), 2);
    }

    #[test]
    fn move_item_defers_centroid_refresh() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        inc.move_item(1, 0, 1);
        assert_eq!(inc.members()[0], vec![0]);
        assert_eq!(inc.members()[1], vec![2, 3, 1]);
        // Centroids are stale until refreshed, so drift is still zero.
        assert_eq!(inc.drift(&space), 0.0);
        inc.refresh_centroids(&space, &[0, 1]);
        assert!(inc.drift(&space) > 0.0, "refresh must recompute centroids");
        // Moving an item that is not in `from` is a no-op.
        inc.move_item(7, 0, 1);
        assert_eq!(inc.members()[0], vec![0]);
        assert_eq!(inc.members()[1], vec![2, 3, 1]);
    }

    #[test]
    fn refresh_zeroes_an_emptied_cluster() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0], vec![2, 3]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        inc.move_item(0, 0, 1);
        inc.refresh_centroids(&space, &[0, 1]);
        // The emptied cluster is back to the default centroid and never
        // attracts assignments.
        for item in 4..8 {
            assert_eq!(inc.assign(&space, item), 1);
        }
    }

    #[test]
    fn all_empty_founds_first_cluster() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![], vec![]], 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.assign(&space, 0), 0);
        assert_eq!(inc.members()[0], vec![0]);
        // The next arrival sees a non-empty cluster and joins normally.
        assert_eq!(inc.assign(&space, 1), 0);
    }

    /// Entries of a centroid's three spaces, weights as bits.
    fn bits(c: &MultiCentroid) -> Vec<Vec<(u32, u64)>> {
        [&c.pc, &c.fc, &c.anchor]
            .iter()
            .map(|v| {
                v.entries()
                    .iter()
                    .map(|&(t, w)| (t.0, w.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// A page drawn from a small vocabulary, so cluster sums overlap on
    /// many terms.
    fn page() -> Gen<String> {
        let word = from_slice(&[
            "airfare", "flights", "travel", "careers", "salary", "resume", "hotel", "rooms",
        ]);
        pairs(&vecs(&word, 1, 8), &vecs(&word, 0, 4)).map(|(body, form)| {
            format!(
                "<p>{}</p><form>{} <input name=q></form>",
                body.join(" "),
                form.join(" ")
            )
        })
    }

    /// One step of the property below: `0` an arrival, `1` a move of the
    /// `a`-th member to cluster `b`, `2` a refresh of the stale clusters.
    fn ops() -> Gen<Vec<(usize, usize, usize)>> {
        vecs(
            &pairs(&usizes(0, 2), &pairs(&usizes(0, 63), &usizes(0, 3)))
                .map(|&(op, (a, b))| (op, a, b)),
            0,
            24,
        )
    }

    /// Under any interleaving of arrivals, moves and refreshes, every
    /// cluster no pending move has touched holds the centroid a recompute
    /// from its members gives, bit for bit; after a final refresh, all do.
    #[test]
    fn running_sums_match_recomputed_centroids() {
        let cases = pairs(
            &pairs(&vecs(&page(), 2, 14), &vecs(&usizes(0, 3), 14, 14)),
            &ops(),
        );
        check!(CheckConfig::new(), cases, |((pages, labels), ops)| {
            let corpus = FormPageCorpus::from_html(
                pages.iter().map(String::as_str),
                &ModelOptions::default(),
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
            let k = 3;
            let seeded = corpus.len() / 2;
            let mut seeds: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (item, &label) in labels.iter().enumerate().take(seeded) {
                if let Some(members) = seeds.get_mut(label) {
                    members.push(item);
                }
            }
            let mut inc =
                IncrementalClusters::from_partition(&space, &Partition::new(seeds, corpus.len()));
            let mut next = seeded;
            let mut stale: Vec<usize> = Vec::new();
            let check_fresh = |inc: &IncrementalClusters, stale: &[usize]| {
                for (ci, members) in inc.members().iter().enumerate() {
                    if stale.contains(&ci) {
                        continue;
                    }
                    let expected = if members.is_empty() {
                        MultiCentroid::default()
                    } else {
                        space.centroid(members)
                    };
                    require_eq!(bits(&inc.centroids[ci]), bits(&expected));
                }
                Ok(())
            };
            for &(op, a, b) in ops {
                match op {
                    0 if next < corpus.len() => {
                        inc.assign(&space, next);
                        next += 1;
                    }
                    1 => {
                        let all: Vec<(usize, usize)> = inc
                            .members()
                            .iter()
                            .enumerate()
                            .flat_map(|(ci, m)| m.iter().map(move |&item| (item, ci)))
                            .collect();
                        if let Some(&(item, from)) = all.get(a % all.len().max(1)) {
                            let to = b % inc.members().len();
                            inc.move_item(item, from, to);
                            if from != to {
                                stale.extend([from, to]);
                            }
                        }
                    }
                    2 => {
                        stale.sort_unstable();
                        stale.dedup();
                        inc.refresh_centroids(&space, &stale);
                        stale.clear();
                    }
                    _ => {}
                }
                check_fresh(&inc, &stale)?;
            }
            stale.sort_unstable();
            stale.dedup();
            inc.refresh_centroids(&space, &stale);
            check_fresh(&inc, &[])
        });
    }

    #[test]
    fn zero_cluster_start_creates_slot() {
        let corpus = fixture();
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(Vec::new(), 8);
        let mut inc = IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.assign(&space, 0), 0);
        assert_eq!(inc.members().len(), 1);
    }
}
