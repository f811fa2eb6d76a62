//! **Ablation (ours)** — TF/IDF weighting-scheme variants.
//!
//! Equation 1 picks raw TF with plain `log(N/n_i)` IDF. This bench makes
//! that an empirical choice: it sweeps TF schemes (raw, log, binary,
//! max-norm) and IDF schemes (plain, smooth, probabilistic, none) under
//! CAFC-CH FC+PC, keeping everything else fixed.

use cafc::{
    ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, IdfScheme, ModelOptions, Obs,
    TfScheme,
};
use cafc_bench::{print_header, print_row, run_cafc_ch, Bench};

fn main() {
    print_header(
        "Ablation: TF/IDF scheme variants (CAFC-CH, FC+PC)",
        "the paper's raw TF + plain IDF should be competitive; idf=none should collapse",
    );
    let bench = Bench::paper_scale();

    let tf_schemes = [
        ("raw", TfScheme::Raw),
        ("log", TfScheme::Log),
        ("binary", TfScheme::Binary),
        ("maxnorm", TfScheme::MaxNorm),
    ];
    let idf_schemes = [
        ("plain", IdfScheme::Plain),
        ("smooth", IdfScheme::Smooth),
        ("prob", IdfScheme::Probabilistic),
        ("none", IdfScheme::None),
    ];

    let mut rows = Vec::new();
    for &(tf_name, tf) in &tf_schemes {
        for &(idf_name, idf) in &idf_schemes {
            let corpus = FormPageCorpus::from_graph(
                &bench.web.graph,
                &bench.targets,
                &ModelOptions::new().with_tf(tf).with_idf(idf),
                false,
                ExecPolicy::Serial,
                &Obs::disabled(),
            );
            let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
            let (q, _) = run_cafc_ch(&bench, &space, 8, 0x7F1D);
            print_row(&format!("tf={tf_name:<8} idf={idf_name:<6}"), &q);
            rows.push((format!("{tf_name}/{idf_name}"), q));
        }
    }

    let baseline = rows
        .iter()
        .find(|(n, _)| n == "raw/plain")
        .expect("baseline row")
        .1;
    let best = rows
        .iter()
        .min_by(|a, b| a.1.entropy.partial_cmp(&b.1.entropy).expect("finite"))
        .expect("rows");
    println!(
        "\npaper's raw/plain: entropy {:.3}; best variant {} at {:.3}",
        baseline.entropy, best.0, best.1.entropy
    );
    cafc_bench::write_json("exp_tfidf_variants", rows);
}
