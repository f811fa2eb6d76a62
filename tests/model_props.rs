//! Property-based tests over the core form-page model: invariants that
//! must hold for *any* generated page set.
//!
//! The properties run on `cafc-check`, the workspace's property engine,
//! so these invariants are exercised on every commit.

use cafc::{
    ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, LocationWeights, ModelOptions, Obs,
};
use cafc_check::corpus::clean_html_corpus;
use cafc_check::gen::{f64s, pairs, Gen};
use cafc_check::{check, require, require_close, require_eq, CheckConfig};
use cafc_cluster::ClusterSpace;

fn corpus_gen() -> Gen<Vec<String>> {
    clean_html_corpus(2, 7)
}

fn build(pages: &[String]) -> FormPageCorpus {
    FormPageCorpus::from_html(
        pages.iter().map(String::as_str),
        &ModelOptions::default(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    )
}

/// Model construction is deterministic.
#[test]
fn model_deterministic() {
    check!(CheckConfig::new(), corpus_gen(), |pages| {
        let a = build(pages);
        let b = build(pages);
        require_eq!(a.len(), b.len());
        for i in 0..a.len() {
            require_eq!(a.pc[i].entries(), b.pc[i].entries());
            require_eq!(a.fc[i].entries(), b.fc[i].entries());
        }
        Ok(())
    });
}

/// All TF-IDF weights are non-negative and finite.
#[test]
fn weights_nonnegative() {
    check!(CheckConfig::new(), corpus_gen(), |pages| {
        let corpus = build(pages);
        for v in corpus.pc.iter().chain(&corpus.fc) {
            for &(t, w) in v.entries() {
                require!(w >= 0.0 && w.is_finite(), "weight({t:?}) = {w}");
            }
        }
        Ok(())
    });
}

/// Similarity is symmetric and in [0, 1] under every feature config.
#[test]
fn similarity_symmetric_bounded() {
    check!(CheckConfig::new(), corpus_gen(), |pages| {
        let corpus = build(pages);
        for config in [
            FeatureConfig::FcOnly,
            FeatureConfig::PcOnly,
            FeatureConfig::combined(),
        ] {
            let space = FormPageSpace::new(&corpus, config);
            for a in 0..corpus.len() {
                for b in 0..corpus.len() {
                    let s = space.item_similarity(a, b);
                    require!((0.0..=1.0).contains(&s), "{config:?}: sim({a},{b}) = {s}");
                    require_close!(s, space.item_similarity(b, a), 1e-12);
                }
            }
        }
        Ok(())
    });
}

/// A page is always at least as similar to itself as to any other page
/// (under combined features).
#[test]
fn self_similarity_maximal() {
    check!(CheckConfig::new(), corpus_gen(), |pages| {
        let corpus = build(pages);
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        for a in 0..corpus.len() {
            let self_sim = space.item_similarity(a, a);
            for b in 0..corpus.len() {
                require!(
                    space.item_similarity(a, b) <= self_sim + 1e-12,
                    "sim({a},{b}) exceeds self-similarity {self_sim}"
                );
            }
        }
        Ok(())
    });
}

/// Raising a location weight never decreases that location's terms'
/// weights (monotonicity of Equation 1 in LOC).
#[test]
fn loc_weight_monotone() {
    let cases = pairs(&corpus_gen(), &f64s(1.0, 4.0));
    check!(CheckConfig::new(), cases, |(pages, boost)| {
        let base = ModelOptions::default();
        let boosted = ModelOptions::new().with_weights(LocationWeights {
            title: base.weights.title * boost,
            ..base.weights
        });
        let a = FormPageCorpus::from_html(
            pages.iter().map(String::as_str),
            &base,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let b = FormPageCorpus::from_html(
            pages.iter().map(String::as_str),
            &boosted,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        // Same dictionaries (same interning order), so ids are comparable.
        for i in 0..a.len() {
            for &(t, w) in a.pc[i].entries() {
                require!(
                    b.pc[i].get(t) >= w - 1e-12,
                    "weight({t:?}) shrank under boost {boost}"
                );
            }
        }
        Ok(())
    });
}

/// Centroid similarity of a singleton equals item similarity.
#[test]
fn singleton_centroid_consistency() {
    check!(CheckConfig::new(), corpus_gen(), |pages| {
        let corpus = build(pages);
        let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
        let ca = space.centroid(&[0]);
        for b in 0..corpus.len() {
            require_close!(space.similarity(&ca, b), space.item_similarity(0, b), 1e-12);
        }
        Ok(())
    });
}

/// On an anchor-less corpus, `WithAnchors` carries no anchor signal and
/// must degrade to exactly the `Combined` weighting — bit-identically,
/// since `combine` drops the missing anchor term from both numerator and
/// denominator (the §6 extension never dilutes when unavailable).
#[test]
fn anchorless_with_anchors_matches_combined() {
    check!(CheckConfig::new(), corpus_gen(), |pages| {
        let corpus = build(pages);
        let with = FormPageSpace::new(
            &corpus,
            FeatureConfig::WithAnchors {
                c1: 1.0,
                c2: 1.0,
                c3: 1.0,
            },
        );
        let without = FormPageSpace::new(&corpus, FeatureConfig::Combined { c1: 1.0, c2: 1.0 });
        for a in 0..corpus.len() {
            for b in 0..corpus.len() {
                let l = with.item_similarity(a, b);
                let r = without.item_similarity(a, b);
                require!(
                    l == r,
                    "WithAnchors diverges from Combined on anchor-less corpus: \
                     sim({a},{b}) {l} != {r}"
                );
            }
        }
        Ok(())
    });
}

/// Shard-merge term-id order invariance: building from pre-cut shards —
/// any chunking of the page list, any `shard_pages` work-unit size —
/// reproduces the single-batch dictionary (same term-id ↔ term mapping in
/// first-occurrence order) and bit-identical vectors and report.
#[test]
fn shard_merge_term_order_invariant() {
    use cafc::IngestLimits;
    use cafc_check::gen::usizes;
    let problem = pairs(&corpus_gen(), &pairs(&usizes(1, 4), &usizes(1, 3)));
    check!(CheckConfig::new(), problem, |(pages, (cut, unit))| {
        let opts = ModelOptions::default();
        let limits = IngestLimits::new().with_shard_pages(*unit);
        let (base, base_report) = FormPageCorpus::from_shards(
            [&pages],
            &opts,
            &limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let shards: Vec<Vec<String>> = pages.chunks(*cut).map(<[String]>::to_vec).collect();
        let (sharded, report) = FormPageCorpus::from_shards(
            shards,
            &opts,
            &limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        require_eq!(base.dict.len(), sharded.dict.len());
        for ((ta, sa), (tb, sb)) in base.dict.iter().zip(sharded.dict.iter()) {
            require_eq!(ta, tb);
            require_eq!(sa, sb);
        }
        require_eq!(base.len(), sharded.len());
        for i in 0..base.len() {
            require_eq!(base.pc[i].entries(), sharded.pc[i].entries());
            require_eq!(base.fc[i].entries(), sharded.fc[i].entries());
        }
        require_eq!(base_report.outcomes, report.outcomes);
        require_eq!(base_report.kept, report.kept);
        Ok(())
    });
}
