//! The paper's qualitative claims as executable assertions, at paper
//! scale. Each test pins one "who wins" relationship from the evaluation;
//! absolute values live in EXPERIMENTS.md.
//!
//! These build the 454-page corpus once and are the slowest tests in the
//! suite; they stay well under a minute even in debug builds.

use cafc::{
    cafc_c, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace,
    HubClusterOptions, KMeansOptions, LocationWeights, ModelOptions, Obs,
};
use cafc_corpus::{generate, CorpusConfig, Domain, SyntheticWeb};
use cafc_eval::{entropy, f_measure, EntropyBase};
use cafc_webgraph::PageId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Env {
    web: SyntheticWeb,
    targets: Vec<PageId>,
    labels: Vec<Domain>,
    corpus: FormPageCorpus,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let web = generate(&CorpusConfig::default());
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
        Env {
            web,
            targets,
            labels,
            corpus,
        }
    })
}

fn avg_cafc_c(space: &FormPageSpace<'_>, runs: u64) -> (f64, f64) {
    let labels = &env().labels;
    let mut e = 0.0;
    let mut f = 0.0;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(run);
        let out = cafc_c(
            space,
            8,
            &KMeansOptions::default(),
            &mut rng,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        e += entropy(out.partition.clusters(), labels, EntropyBase::Two);
        f += f_measure(out.partition.clusters(), labels);
    }
    (e / runs as f64, f / runs as f64)
}

fn run_ch(space: &FormPageSpace<'_>) -> (f64, f64) {
    let e = env();
    let mut rng = StdRng::seed_from_u64(1);
    let out = cafc::cafc_ch(
        &e.web.graph,
        &e.targets,
        space,
        &CafcChConfig::paper_default(8).with_hub(HubClusterOptions::default()),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    (
        entropy(
            out.outcome.partition.clusters(),
            &e.labels,
            EntropyBase::Two,
        ),
        f_measure(out.outcome.partition.clusters(), &e.labels),
    )
}

/// Figure 2, claim 1: combining FC and PC beats either space alone
/// (CAFC-C, averaged).
#[test]
fn fig2_combined_beats_single_spaces_cafc_c() {
    let e = env();
    let fc = avg_cafc_c(&FormPageSpace::new(&e.corpus, FeatureConfig::FcOnly), 12);
    let pc = avg_cafc_c(&FormPageSpace::new(&e.corpus, FeatureConfig::PcOnly), 12);
    let both = avg_cafc_c(
        &FormPageSpace::new(&e.corpus, FeatureConfig::combined()),
        12,
    );
    assert!(both.0 < fc.0, "entropy: FC+PC {} !< FC {}", both.0, fc.0);
    assert!(both.0 < pc.0, "entropy: FC+PC {} !< PC {}", both.0, pc.0);
    assert!(both.1 > fc.1, "F: FC+PC {} !> FC {}", both.1, fc.1);
}

/// Figure 2, claim 2: CAFC-CH improves on CAFC-C in both metrics for the
/// combined configuration, substantially.
#[test]
fn fig2_hubs_improve_both_metrics() {
    let e = env();
    let space = FormPageSpace::new(&e.corpus, FeatureConfig::combined());
    let (c_e, c_f) = avg_cafc_c(&space, 5);
    let (ch_e, ch_f) = run_ch(&space);
    assert!(
        ch_e < c_e * 0.75,
        "entropy {c_e} -> {ch_e}: not a substantial drop"
    );
    assert!(ch_f > c_f, "F {c_f} -> {ch_f}: no improvement");
}

/// §4.4: uniform weights hurt CAFC-CH, but uniform CAFC-CH still beats
/// differentiated CAFC-C.
#[test]
fn loc_weights_ablation_shape() {
    let e = env();
    let uniform_corpus = FormPageCorpus::from_graph(
        &e.web.graph,
        &e.targets,
        &ModelOptions::new().with_weights(LocationWeights::uniform()),
        false,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let diff_space = FormPageSpace::new(&e.corpus, FeatureConfig::combined());
    let uni_space = FormPageSpace::new(&uniform_corpus, FeatureConfig::combined());
    let (diff_e, diff_f) = run_ch(&diff_space);
    let (uni_e, uni_f) = run_ch(&uni_space);
    let (c_e, _) = avg_cafc_c(&diff_space, 5);
    assert!(
        diff_e <= uni_e,
        "differentiated {diff_e} !<= uniform {uni_e}"
    );
    assert!(
        diff_f >= uni_f,
        "differentiated F {diff_f} !>= uniform {uni_f}"
    );
    assert!(
        uni_e < c_e,
        "uniform CAFC-CH {uni_e} !< differentiated CAFC-C {c_e}"
    );
}

/// §4.2: single-attribute forms are handled — the overwhelming majority
/// end up correctly clustered in the best configuration.
#[test]
fn single_attribute_forms_mostly_correct() {
    let e = env();
    let space = FormPageSpace::new(&e.corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(1);
    let out = cafc::cafc_ch(
        &e.web.graph,
        &e.targets,
        &space,
        &CafcChConfig::paper_default(8),
        &mut rng,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let wrong = cafc_eval::misclustered(out.outcome.partition.clusters(), &e.labels);
    let singles_total = e
        .web
        .form_pages
        .iter()
        .filter(|r| r.single_attribute)
        .count();
    let singles_wrong = wrong
        .iter()
        .filter(|&&i| e.web.form_pages[i].single_attribute)
        .count();
    assert!(
        singles_wrong * 4 < singles_total,
        "{singles_wrong} of {singles_total} single-attribute pages misclustered"
    );
}
