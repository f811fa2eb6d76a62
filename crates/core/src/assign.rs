//! Nearest-centroid assignment of new form pages — the §5 application:
//! "Once the clusters are built and properly labeled with the domain name,
//! they can be used as the basis to automatically classify new sources."

use crate::space::FormPageSpace;
use cafc_cluster::{nearest_centroid, ClusterSpace, Partition};

/// Assign each of `items` (indices into the space's corpus) to the most
/// similar non-empty cluster of `partition`, ties to the lowest cluster
/// index (see [`nearest_centroid`]). Returns `(item, cluster)` pairs in
/// input order.
///
/// The typical workflow: build one [`crate::FormPageCorpus`] over the
/// already-clustered pages *plus* the new pages (so IDF statistics are
/// shared), cluster the former, then assign the latter.
///
/// A partition with no non-empty cluster offers nothing to assign against;
/// the result is empty rather than a panic (an adversarial corpus can
/// quarantine every clustered page).
pub fn assign_to_clusters(
    space: &FormPageSpace<'_>,
    partition: &Partition,
    items: &[usize],
) -> Vec<(usize, usize)> {
    let centroids: Vec<(usize, <FormPageSpace<'_> as ClusterSpace>::Centroid)> = partition
        .clusters()
        .iter()
        .enumerate()
        .filter(|(_, members)| !members.is_empty())
        .map(|(ci, members)| (ci, space.centroid(members)))
        .collect();
    items
        .iter()
        .filter_map(|&item| {
            let nearest = nearest_centroid(space, centroids.iter().map(|(ci, c)| (*ci, c)), item);
            nearest.map(|(ci, _)| (item, ci))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FormPageCorpus, ModelOptions};
    use crate::space::{FeatureConfig, FormPageSpace};
    use crate::{ExecPolicy, Obs};

    #[test]
    fn assigns_new_pages_to_matching_cluster() {
        // Items 0-1: airfare; 2-3: jobs; 4: a NEW airfare page; 5: a NEW
        // jobs page. Cluster {0,1} and {2,3}, then assign 4 and 5.
        let pages = [
            "<p>airfare travel flights deals</p><form>departure <input name=a></form>",
            "<p>airfare flights vacation airline</p><form>arrival <input name=b></form>",
            "<p>careers employment salary</p><form>keywords <input name=c></form>",
            "<p>careers hiring openings resume</p><form>category <input name=d></form>",
            "<p>flights airfare airline travel</p><form>departure <input name=e></form>",
            "<p>employment resume salary careers</p><form>keywords <input name=f></form>",
        ];
        let corpus = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0, 1], vec![2, 3]], 6);
        let assigned = assign_to_clusters(&space, &partition, &[4, 5]);
        assert_eq!(assigned, vec![(4, 0), (5, 1)]);
    }

    #[test]
    fn empty_clusters_never_chosen() {
        let pages = [
            "<p>airfare flights</p>",
            "<p>airfare travel</p>",
            "<p>flights airline</p>",
        ];
        let corpus = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::PcOnly);
        let partition = Partition::new(vec![vec![], vec![0, 1]], 3);
        let assigned = assign_to_clusters(&space, &partition, &[2]);
        assert_eq!(assigned, vec![(2, 1)]);
    }

    #[test]
    fn ties_go_to_the_lowest_cluster() {
        // Clusters {0} and {1} hold byte-identical pages, so page 2 scores
        // bit-equal against both: every assignment path, like k-means and
        // the stream's repair pass, picks cluster 0. Page 3 keeps the
        // shared terms' idf above zero.
        let twin = "<p>airfare flights travel</p><form>departure <input name=a></form>";
        let pages = [
            twin,
            twin,
            "<p>airfare travel deals</p><form>departure <input name=b></form>",
            "<p>careers salary resume</p><form>keywords <input name=c></form>",
        ];
        let corpus = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let partition = Partition::new(vec![vec![0], vec![1]], 4);
        let (a, b) = (space.centroid(&[0]), space.centroid(&[1]));
        assert_eq!(
            space.similarity(&a, 2).to_bits(),
            space.similarity(&b, 2).to_bits()
        );
        assert!(space.similarity(&a, 2) > 0.0);
        assert_eq!(assign_to_clusters(&space, &partition, &[2]), vec![(2, 0)]);
        let mut inc = crate::IncrementalClusters::from_partition(&space, &partition);
        assert_eq!(inc.nearest(&space, 2), Some(0));
        assert_eq!(inc.assign(&space, 2), 0);
    }

    #[test]
    fn empty_partition_assigns_nothing() {
        let pages = ["<p>x y z</p>"];
        let corpus = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let space = FormPageSpace::new(&corpus, FeatureConfig::PcOnly);
        let partition = Partition::new(vec![vec![]], 1);
        assert!(assign_to_clusters(&space, &partition, &[0]).is_empty());
    }
}
