//! The clustering space over form pages: Equation 3 similarity and
//! Equation 4 centroids, generic over which feature spaces participate.

use crate::model::FormPageCorpus;
use cafc_cluster::{ClusterSpace, SparseClusterSpace};
use cafc_vsm::SparseVector;
use std::ops::Range;

/// Which feature spaces contribute to similarity, and with what weights
/// (the `C1`/`C2` of Equation 3; the paper uses `C1 = C2 = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureConfig {
    /// Form contents only.
    FcOnly,
    /// Page contents only.
    PcOnly,
    /// `sim = (C1·cos(PC) + C2·cos(FC)) / (C1 + C2)` — the paper's FC+PC.
    Combined {
        /// Page-content weight `C1`.
        c1: f64,
        /// Form-content weight `C2`.
        c2: f64,
    },
    /// The §6 extension: PC + FC + in-link anchor text.
    WithAnchors {
        /// Page-content weight.
        c1: f64,
        /// Form-content weight.
        c2: f64,
        /// Anchor-text weight.
        c3: f64,
    },
}

impl FeatureConfig {
    /// The paper's headline configuration: FC+PC with equal weights.
    pub fn combined() -> Self {
        FeatureConfig::Combined { c1: 1.0, c2: 1.0 }
    }
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig::combined()
    }
}

/// A multi-space centroid (Equation 4: per-space member average).
#[derive(Debug, Clone, Default)]
pub struct MultiCentroid {
    /// Page-content centroid.
    pub pc: SparseVector,
    /// Form-content centroid.
    pub fc: SparseVector,
    /// Anchor-text centroid.
    pub anchor: SparseVector,
}

impl MultiCentroid {
    /// Scale per-space sums of `n` members (see
    /// [`FormPageSpace::member_sum`]) by `1 / n`: their centroid, or the
    /// default (zero) centroid when `n` is 0.
    pub(crate) fn mean(&self, n: usize) -> MultiCentroid {
        if n == 0 {
            return MultiCentroid::default();
        }
        let factor = 1.0 / n as f64;
        MultiCentroid {
            pc: self.pc.scale(factor),
            fc: self.fc.scale(factor),
            anchor: self.anchor.scale(factor),
        }
    }
}

/// The [`ClusterSpace`] over a [`FormPageCorpus`].
#[derive(Debug, Clone, Copy)]
pub struct FormPageSpace<'a> {
    corpus: &'a FormPageCorpus,
    config: FeatureConfig,
}

impl<'a> FormPageSpace<'a> {
    /// Wrap a corpus with a feature configuration.
    pub fn new(corpus: &'a FormPageCorpus, config: FeatureConfig) -> Self {
        FormPageSpace { corpus, config }
    }

    /// The underlying corpus.
    pub fn corpus(&self) -> &'a FormPageCorpus {
        self.corpus
    }

    /// The feature configuration.
    pub fn config(&self) -> FeatureConfig {
        self.config
    }

    /// Per-space sums of `members`' vectors in member order, unscaled
    /// ([`SparseVector::sum`]); [`MultiCentroid::mean`] turns them into
    /// the members' centroid.
    pub(crate) fn member_sum(&self, members: &[usize]) -> MultiCentroid {
        let corpus = self.corpus;
        MultiCentroid {
            pc: SparseVector::sum(members.iter().map(|&m| &corpus.pc[m])),
            fc: SparseVector::sum(members.iter().map(|&m| &corpus.fc[m])),
            anchor: SparseVector::sum(members.iter().map(|&m| &corpus.anchor[m])),
        }
    }

    /// Equation 3: the weighted average of per-space cosines **over the
    /// spaces that are actually enabled and populated**. `anchor` is `None`
    /// when the anchor space carries no signal for the pair (both vectors
    /// empty — e.g. a corpus built without in-link anchor text); a missing
    /// space must drop out of both the numerator *and* the denominator,
    /// otherwise an anchor-less corpus under [`FeatureConfig::WithAnchors`]
    /// would have every similarity diluted by `(c1+c2)/(c1+c2+c3)`.
    fn combine(&self, pc: f64, fc: f64, anchor: Option<f64>) -> f64 {
        match self.config {
            FeatureConfig::FcOnly => fc,
            FeatureConfig::PcOnly => pc,
            FeatureConfig::Combined { c1, c2 } => (c1 * pc + c2 * fc) / (c1 + c2),
            FeatureConfig::WithAnchors { c1, c2, c3 } => match anchor {
                Some(anchor) => (c1 * pc + c2 * fc + c3 * anchor) / (c1 + c2 + c3),
                None => (c1 * pc + c2 * fc) / (c1 + c2),
            },
        }
    }
}

/// The anchor-space cosine for [`FormPageSpace::combine`]: `None` when the
/// space is silent for this pair (both vectors empty), so it cannot dilute
/// the Equation 3 average.
fn anchor_cosine(a: &SparseVector, b: &SparseVector) -> Option<f64> {
    if a.is_empty() && b.is_empty() {
        None
    } else {
        Some(a.cosine(b))
    }
}

/// One centroid vector scattered into a slice indexed by term id, so an
/// item's cosine against it is one gather over the item's entries. Built
/// per [`ClusterSpace::similarities`] call and dropped after it: a
/// dictionary-sized buffer per centroid would be too much to keep on
/// every [`MultiCentroid`] that HAC or the stream holds.
struct Scattered {
    dense: Vec<f64>,
    norm: f64,
}

impl Scattered {
    fn new(v: &SparseVector) -> Scattered {
        let mut dense = vec![0.0; v.entries().last().map_or(0, |&(t, _)| t.index() + 1)];
        for &(t, w) in v.entries() {
            dense[t.index()] = w;
        }
        Scattered {
            dense,
            norm: v.norm(),
        }
    }

    /// Bit-equal to `v.cosine(item)` for the `v` this was scattered from:
    /// the same stored norms, the same `denom == 0.0` exit and clamp, and
    /// the same products (centroid weight × item weight) added in the same
    /// ascending term order. The gather also adds `0.0 × w` for item terms
    /// the centroid lacks; that is ±0.0 (page weights are finite:
    /// `SparseVector::from_entries` drops the rest), and a sum starting at
    /// +0.0 never becomes −0.0 and is unchanged by adding a zero. Terms
    /// past the scatter's end are such zeros, so the gather stops there.
    fn cosine(&self, item: &SparseVector) -> f64 {
        let denom = self.norm * item.norm();
        if denom == 0.0 {
            return 0.0;
        }
        let mut dot = 0.0;
        for &(t, w) in item.entries() {
            match self.dense.get(t.index()) {
                Some(&c) => dot += c * w,
                None => break,
            }
        }
        (dot / denom).clamp(0.0, 1.0)
    }
}

/// Term-key tags for [`SparseClusterSpace`]: the three feature spaces
/// share one `u64` key space by packing a space tag into the high 32 bits
/// above the 32-bit [`cafc_text::TermId`], so a page-content term can
/// never collide with the same term id in form contents or anchor text.
const PC_TAG: u64 = 0 << 32;
const FC_TAG: u64 = 1u64 << 32;
const ANCHOR_TAG: u64 = 2u64 << 32;

impl FormPageSpace<'_> {
    /// Enumerate the tagged term keys of one page or centroid (its three
    /// per-space vectors), restricted to the spaces the [`FeatureConfig`]
    /// lets contribute to Equation 3. Shared by items and centroids so
    /// both sides agree on the key space.
    fn for_each_term_key(
        &self,
        pc: &SparseVector,
        fc: &SparseVector,
        anchor: &SparseVector,
        f: &mut dyn FnMut(u64),
    ) {
        let (use_pc, use_fc, use_anchor) = match self.config {
            FeatureConfig::FcOnly => (false, true, false),
            FeatureConfig::PcOnly => (true, false, false),
            FeatureConfig::Combined { .. } => (true, true, false),
            FeatureConfig::WithAnchors { .. } => (true, true, true),
        };
        if use_pc {
            for &(t, _) in pc.entries() {
                f(PC_TAG | t.0 as u64);
            }
        }
        if use_fc {
            for &(t, _) in fc.entries() {
                f(FC_TAG | t.0 as u64);
            }
        }
        if use_anchor {
            for &(t, _) in anchor.entries() {
                f(ANCHOR_TAG | t.0 as u64);
            }
        }
    }
}

/// The term keys of pages and centroids, for probes that measure how much
/// vocabulary they share.
impl SparseClusterSpace for FormPageSpace<'_> {
    fn for_each_item_term(&self, item: usize, f: &mut dyn FnMut(u64)) {
        self.for_each_term_key(
            &self.corpus.pc[item],
            &self.corpus.fc[item],
            &self.corpus.anchor[item],
            f,
        );
    }

    fn for_each_centroid_term(&self, centroid: &MultiCentroid, f: &mut dyn FnMut(u64)) {
        self.for_each_term_key(&centroid.pc, &centroid.fc, &centroid.anchor, f);
    }
}

impl ClusterSpace for FormPageSpace<'_> {
    type Centroid = MultiCentroid;

    fn len(&self) -> usize {
        self.corpus.len()
    }

    fn centroid(&self, members: &[usize]) -> MultiCentroid {
        self.member_sum(members).mean(members.len())
    }

    fn similarity(&self, centroid: &MultiCentroid, item: usize) -> f64 {
        self.combine(
            centroid.pc.cosine(&self.corpus.pc[item]),
            centroid.fc.cosine(&self.corpus.fc[item]),
            anchor_cosine(&centroid.anchor, &self.corpus.anchor[item]),
        )
    }

    /// [`ClusterSpace::similarity`] for a run of items, bit for bit: the
    /// centroid's three vectors are scattered once, and each item's
    /// per-space cosines gather over its own entries (see
    /// `Scattered::cosine`), so a similarity costs the item's entries
    /// rather than a merge with the whole centroid.
    fn similarities(&self, centroid: &MultiCentroid, items: Range<usize>, out: &mut [f64]) {
        let (pc, fc, anchor) = (
            Scattered::new(&centroid.pc),
            Scattered::new(&centroid.fc),
            Scattered::new(&centroid.anchor),
        );
        let corpus = self.corpus;
        for (item, sim) in items.zip(out) {
            let item_anchor = &corpus.anchor[item];
            *sim = self.combine(
                pc.cosine(&corpus.pc[item]),
                fc.cosine(&corpus.fc[item]),
                // Silent when both sides are empty, as in `anchor_cosine`.
                (!centroid.anchor.is_empty() || !item_anchor.is_empty())
                    .then(|| anchor.cosine(item_anchor)),
            );
        }
    }

    fn centroid_similarity(&self, a: &MultiCentroid, b: &MultiCentroid) -> f64 {
        self.combine(
            a.pc.cosine(&b.pc),
            a.fc.cosine(&b.fc),
            anchor_cosine(&a.anchor, &b.anchor),
        )
    }

    fn item_similarity(&self, a: usize, b: usize) -> f64 {
        self.combine(
            self.corpus.pc[a].cosine(&self.corpus.pc[b]),
            self.corpus.fc[a].cosine(&self.corpus.fc[b]),
            anchor_cosine(&self.corpus.anchor[a], &self.corpus.anchor[b]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FormPageCorpus, ModelOptions};
    use crate::{ExecPolicy, Obs};

    fn corpus() -> FormPageCorpus {
        // Two airfare-ish pages, one job page. Body text differs from form
        // text so FC and PC pull in different directions.
        let pages = [
            "<title>Flights</title><p>airfare travel deals vacation</p>\
             <form>departure arrival <input name=a></form>",
            "<p>airfare travel bargain vacation</p>\
             <form>departure return cabin <input name=b></form>",
            "<title>Jobs</title><p>careers employment salary resume</p>\
             <form>keywords category location <input name=c></form>",
        ];
        FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
    }

    #[test]
    fn similar_domain_pages_are_closer() {
        let c = corpus();
        let space = FormPageSpace::new(&c, FeatureConfig::combined());
        let same = space.item_similarity(0, 1);
        let diff = space.item_similarity(0, 2);
        assert!(
            same > diff,
            "same-domain sim {same} <= cross-domain sim {diff}"
        );
    }

    #[test]
    fn fc_only_ignores_body_text() {
        let pages = [
            // Identical forms, wildly different bodies.
            "<p>airfare travel flights</p><form>departure city <input name=a></form>",
            "<p>careers salary resume</p><form>departure city <input name=b></form>",
            "<p>third page noise words</p><form>other things <input name=c></form>",
        ];
        let c = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let fc_space = FormPageSpace::new(&c, FeatureConfig::FcOnly);
        let sim = fc_space.item_similarity(0, 1);
        assert!(
            (sim - 1.0).abs() < 1e-9,
            "identical forms must have FC sim 1, got {sim}"
        );
        let pc_space = FormPageSpace::new(&c, FeatureConfig::PcOnly);
        assert!(pc_space.item_similarity(0, 1) < 0.5);
    }

    #[test]
    fn combined_is_average_of_spaces() {
        let c = corpus();
        let fc = FormPageSpace::new(&c, FeatureConfig::FcOnly).item_similarity(0, 1);
        let pc = FormPageSpace::new(&c, FeatureConfig::PcOnly).item_similarity(0, 1);
        let both = FormPageSpace::new(&c, FeatureConfig::combined()).item_similarity(0, 1);
        assert!(((fc + pc) / 2.0 - both).abs() < 1e-12);
    }

    #[test]
    fn unequal_weights_shift_the_average() {
        let c = corpus();
        let fc = FormPageSpace::new(&c, FeatureConfig::FcOnly).item_similarity(0, 1);
        let pc = FormPageSpace::new(&c, FeatureConfig::PcOnly).item_similarity(0, 1);
        let lopsided = FormPageSpace::new(&c, FeatureConfig::Combined { c1: 3.0, c2: 1.0 })
            .item_similarity(0, 1);
        assert!(((3.0 * pc + fc) / 4.0 - lopsided).abs() < 1e-12);
    }

    #[test]
    fn centroid_similarity_matches_item_for_singletons() {
        let c = corpus();
        let space = FormPageSpace::new(&c, FeatureConfig::combined());
        let ca = space.centroid(&[0]);
        let cb = space.centroid(&[2]);
        assert!((space.centroid_similarity(&ca, &cb) - space.item_similarity(0, 2)).abs() < 1e-12);
    }

    #[test]
    fn empty_anchor_space_does_not_dilute_similarity() {
        // `from_html` builds no anchor vectors, so WithAnchors over this
        // corpus must degrade to exactly the two-space Equation 3 —
        // anchor-off and anchor-empty give identical similarities.
        let c = corpus();
        let combined = FormPageSpace::new(&c, FeatureConfig::Combined { c1: 2.0, c2: 1.0 });
        let with_anchors = FormPageSpace::new(
            &c,
            FeatureConfig::WithAnchors {
                c1: 2.0,
                c2: 1.0,
                c3: 5.0,
            },
        );
        for a in 0..3 {
            for b in 0..3 {
                let off = combined.item_similarity(a, b);
                let empty = with_anchors.item_similarity(a, b);
                assert_eq!(
                    off.to_bits(),
                    empty.to_bits(),
                    "sim({a},{b}): anchor-off {off} != anchor-empty {empty}"
                );
            }
        }
        // Same for the centroid paths used by k-means/HAC.
        let ca = with_anchors.centroid(&[0, 1]);
        let cb = with_anchors.centroid(&[2]);
        assert_eq!(
            with_anchors.centroid_similarity(&ca, &cb).to_bits(),
            combined.centroid_similarity(&ca, &cb).to_bits()
        );
        assert_eq!(
            with_anchors.similarity(&ca, 2).to_bits(),
            combined.similarity(&ca, 2).to_bits()
        );
    }

    #[test]
    fn populated_anchor_space_still_weighs_in() {
        let c = corpus();
        let space = FormPageSpace::new(
            &c,
            FeatureConfig::WithAnchors {
                c1: 1.0,
                c2: 1.0,
                c3: 2.0,
            },
        );
        // A present (even one-sided) anchor signal re-enters the average.
        assert_eq!(space.combine(0.8, 0.4, Some(1.0)), (0.8 + 0.4 + 2.0) / 4.0);
        assert_eq!(space.combine(0.8, 0.4, None), (0.8 + 0.4) / 2.0);
    }

    #[test]
    fn anchor_cosine_is_none_only_when_both_sides_empty() {
        let empty = SparseVector::default();
        let full = SparseVector::from_entries(vec![(cafc_text::TermId(0), 1.0)]);
        assert_eq!(anchor_cosine(&empty, &empty), None);
        assert_eq!(anchor_cosine(&full, &empty), Some(0.0));
        assert_eq!(anchor_cosine(&empty, &full), Some(0.0));
        assert_eq!(anchor_cosine(&full, &full), Some(1.0));
    }

    #[test]
    fn term_keys_respect_feature_config() {
        let c = corpus();
        let collect = |config: FeatureConfig| {
            let space = FormPageSpace::new(&c, config);
            let mut keys = Vec::new();
            space.for_each_item_term(0, &mut |k| keys.push(k));
            keys
        };
        let fc_only = collect(FeatureConfig::FcOnly);
        assert!(!fc_only.is_empty());
        assert!(
            fc_only.iter().all(|k| k >> 32 == 1),
            "FcOnly must enumerate only FC-tagged keys"
        );
        let pc_only = collect(FeatureConfig::PcOnly);
        assert!(pc_only.iter().all(|k| k >> 32 == 0));
        let combined = collect(FeatureConfig::combined());
        assert_eq!(combined.len(), fc_only.len() + pc_only.len());
        // Shared vocabulary across spaces stays distinct under the tags:
        // a PC key never equals an FC key.
        assert!(pc_only.iter().all(|k| !fc_only.contains(k)));
    }

    const CONFIGS: [FeatureConfig; 4] = [
        FeatureConfig::FcOnly,
        FeatureConfig::PcOnly,
        FeatureConfig::Combined { c1: 1.0, c2: 1.0 },
        FeatureConfig::WithAnchors {
            c1: 1.0,
            c2: 2.0,
            c3: 1.0,
        },
    ];

    /// [`corpus`] plus a blank page (empty PC and FC), with anchor text on
    /// pages 0 and 2 only: pairs mix populated, one-sided and silent
    /// anchor spaces, and page 2's anchor reaches past page 0's last term.
    fn mixed_corpus() -> FormPageCorpus {
        let mut c = corpus();
        c.pc.push(SparseVector::empty());
        c.pc_tf.push(SparseVector::empty());
        c.fc.push(SparseVector::empty());
        c.anchor.push(SparseVector::empty());
        let t = cafc_text::TermId;
        c.anchor[0] = SparseVector::from_entries(vec![(t(1), 0.5), (t(4), 2.0)]);
        c.anchor[2] = SparseVector::from_entries(vec![(t(4), 1.0), (t(9), 0.25)]);
        c
    }

    /// The per-pair reference: this space with the default
    /// `ClusterSpace::similarities`, one `similarity` call per pair.
    struct PerPair<'a>(FormPageSpace<'a>);

    impl ClusterSpace for PerPair<'_> {
        type Centroid = MultiCentroid;

        fn len(&self) -> usize {
            self.0.len()
        }

        fn centroid(&self, members: &[usize]) -> MultiCentroid {
            self.0.centroid(members)
        }

        fn similarity(&self, centroid: &MultiCentroid, item: usize) -> f64 {
            self.0.similarity(centroid, item)
        }

        fn centroid_similarity(&self, a: &MultiCentroid, b: &MultiCentroid) -> f64 {
            self.0.centroid_similarity(a, b)
        }
    }

    #[test]
    fn batched_scores_equal_similarity_bit_for_bit() {
        let c = mixed_corpus();
        let n = c.len();
        for config in CONFIGS {
            let space = FormPageSpace::new(&c, config);
            let mut centroids = vec![MultiCentroid::default(), space.centroid(&[0, 1, 2, 3])];
            centroids.extend((0..n).map(|i| space.centroid(&[i])));
            centroids.push(space.centroid(&[1, 3]));
            for centroid in &centroids {
                for items in [0..n, 1..3, 2..2, 3..4] {
                    let mut out = vec![f64::NAN; items.len()];
                    space.similarities(centroid, items.clone(), &mut out);
                    for (item, got) in items.zip(out) {
                        let want = space.similarity(centroid, item);
                        assert_eq!(got.to_bits(), want.to_bits(), "{config:?} item {item}");
                    }
                }
            }
        }
    }

    #[test]
    fn assignment_pass_matches_nearest_centroid_on_form_pages() {
        use cafc_cluster::{kmeans, nearest_centroid, ExecPolicy, KMeansOptions, Partition};
        let c = mixed_corpus();
        let one_pass = KMeansOptions::default().with_max_iterations(1);
        for config in CONFIGS {
            let space = FormPageSpace::new(&c, config);
            for seeds in [vec![vec![0], vec![2]], vec![vec![3], vec![1, 2], vec![0]]] {
                let centroids: Vec<MultiCentroid> =
                    seeds.iter().map(|s| space.centroid(s)).collect();
                let nearest: Vec<usize> = (0..c.len())
                    .map(|item| {
                        nearest_centroid(&space, centroids.iter().enumerate(), item)
                            .map_or(0, |(i, _)| i)
                    })
                    .collect();
                let want = Partition::from_assignments(&nearest, seeds.len());
                let got = kmeans(
                    &space,
                    &seeds,
                    &one_pass,
                    ExecPolicy::Serial,
                    &Obs::disabled(),
                );
                assert_eq!(got.partition, want, "{config:?} {seeds:?}");
            }
        }
    }

    #[test]
    fn sparse_kmeans_matches_dense_on_form_pages() {
        use cafc_cluster::{kmeans, kmeans_sparse_exec, ExecPolicy, KMeansOptions};
        let c = mixed_corpus();
        for config in CONFIGS {
            let space = FormPageSpace::new(&c, config);
            let seeds = [vec![0], vec![2]];
            let reference = kmeans(
                &PerPair(space),
                &seeds,
                &KMeansOptions::strict(),
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            for policy in [ExecPolicy::Serial, ExecPolicy::Parallel { threads: 3 }] {
                for out in [
                    kmeans(
                        &space,
                        &seeds,
                        &KMeansOptions::strict(),
                        policy,
                        &Obs::disabled(),
                    ),
                    kmeans_sparse_exec(&space, &seeds, &KMeansOptions::strict(), policy),
                ] {
                    assert_eq!(out.partition, reference.partition, "{config:?} {policy:?}");
                    assert_eq!(
                        out.iterations, reference.iterations,
                        "{config:?} {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn similarity_in_unit_interval() {
        let c = corpus();
        for config in [
            FeatureConfig::FcOnly,
            FeatureConfig::PcOnly,
            FeatureConfig::combined(),
            FeatureConfig::WithAnchors {
                c1: 1.0,
                c2: 1.0,
                c3: 1.0,
            },
        ] {
            let space = FormPageSpace::new(&c, config);
            for a in 0..3 {
                for b in 0..3 {
                    let s = space.item_similarity(a, b);
                    assert!((0.0..=1.0).contains(&s), "{config:?}: sim({a},{b}) = {s}");
                }
            }
        }
    }
}
