//! End-to-end integration: synthetic web → form-page model → CAFC-C /
//! CAFC-CH → evaluation. Crosses every crate in the workspace.

use cafc::{
    cafc_c, cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace,
    HubClusterOptions, KMeansOptions, ModelOptions, Obs,
};
use cafc_corpus::{generate, CorpusConfig};
use cafc_eval::{entropy, f_measure, EntropyBase};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_config(seed: u64) -> CafcChConfig {
    let _ = seed;
    CafcChConfig::paper_default(8).with_hub(HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    })
}

#[test]
fn end_to_end_cafc_ch_beats_random_chance() {
    let web = generate(&CorpusConfig::small(1));
    let targets = web.form_page_ids();
    let labels = web.labels();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(2);
    let result = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &small_config(2),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let clusters = result.outcome.partition.clusters();

    let e = entropy(clusters, &labels, EntropyBase::Two);
    let f = f_measure(clusters, &labels);
    // Random assignment over 8 domains would give entropy near 3 bits and
    // F near 1/8; CAFC-CH must be far better.
    assert!(e < 1.2, "entropy {e} too high");
    assert!(f > 0.6, "F-measure {f} too low");
    assert_eq!(result.outcome.partition.num_assigned(), targets.len());
}

#[test]
fn cafc_ch_beats_cafc_c_on_average() {
    let web = generate(&CorpusConfig::small(5));
    let targets = web.form_page_ids();
    let labels = web.labels();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());

    let mut c_entropy = 0.0;
    for run in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(run);
        let out = cafc_c(
            &space,
            8,
            &KMeansOptions::default(),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        c_entropy += entropy(out.partition.clusters(), &labels, EntropyBase::Two);
    }
    c_entropy /= 5.0;

    let mut rng = StdRng::seed_from_u64(9);
    let ch = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &small_config(9),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let ch_entropy = entropy(ch.outcome.partition.clusters(), &labels, EntropyBase::Two);
    assert!(
        ch_entropy < c_entropy,
        "hub seeding must improve entropy: CAFC-CH {ch_entropy} vs CAFC-C {c_entropy}"
    );
}

#[test]
fn combined_features_beat_fc_only() {
    let web = generate(&CorpusConfig::small(8));
    let targets = web.form_page_ids();
    let labels = web.labels();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );

    let mut entropies = Vec::new();
    for config in [FeatureConfig::FcOnly, FeatureConfig::combined()] {
        let space = FormPageSpace::new(&corpus, config);
        let mut acc = 0.0;
        for run in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(run);
            let out = cafc_c(
                &space,
                8,
                &KMeansOptions::default(),
                &mut rng,
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            acc += entropy(out.partition.clusters(), &labels, EntropyBase::Two);
        }
        entropies.push(acc / 5.0);
    }
    assert!(
        entropies[1] < entropies[0],
        "FC+PC ({}) must beat FC-only ({})",
        entropies[1],
        entropies[0]
    );
}

#[test]
fn deterministic_given_seeds() {
    let web = generate(&CorpusConfig::small(3));
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
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        cafc_ch(
            &web.graph,
            &targets,
            &space,
            &small_config(seed),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        )
        .outcome
        .partition
    };
    assert_eq!(run(4), run(4));
}

#[test]
fn every_page_lands_in_exactly_one_cluster() {
    let web = generate(&CorpusConfig::small(6));
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
    let mut rng = StdRng::seed_from_u64(6);
    let result = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &small_config(6),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let mut seen: Vec<usize> = result
        .outcome
        .partition
        .clusters()
        .iter()
        .flatten()
        .copied()
        .collect();
    seen.sort_unstable();
    let expect: Vec<usize> = (0..targets.len()).collect();
    assert_eq!(seen, expect);
}

#[test]
fn anchor_extension_produces_valid_space() {
    let web = generate(&CorpusConfig::small(7));
    let targets = web.form_page_ids();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        true,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    // Most pages receive in-link anchor text from hubs.
    let with_anchor_text = corpus.anchor.iter().filter(|v| !v.is_empty()).count();
    assert!(
        with_anchor_text * 2 > targets.len(),
        "only {with_anchor_text} of {} pages got anchor vectors",
        targets.len()
    );
    let space = FormPageSpace::new(
        &corpus,
        FeatureConfig::WithAnchors {
            c1: 1.0,
            c2: 1.0,
            c3: 1.0,
        },
    );
    let mut rng = StdRng::seed_from_u64(7);
    let result = cafc_ch(
        &web.graph,
        &targets,
        &space,
        &small_config(7),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(result.outcome.partition.num_assigned(), targets.len());
}
