//! End-to-end CLI checks for the observability flags (`--metrics`,
//! `--trace`) and the eval-boundary clustering validation, driving the
//! real `cafc` binary.

use cafc::obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cafc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cafc"))
        .args(args)
        .output()
        .expect("cafc binary runs")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cafc-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn corpus(&self) -> String {
        let corpus = self.path("corpus");
        let out = cafc(&[
            "generate",
            "--out",
            corpus.to_str().expect("utf-8 path"),
            "--pages",
            "40",
            "--seed",
            "3",
        ]);
        assert_ok(&out, "generate");
        corpus.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

#[test]
fn cluster_metrics_snapshot_parses_and_covers_stages() {
    let scratch = Scratch::new("metrics");
    let corpus = scratch.corpus();
    let metrics = scratch.path("metrics.json");
    let out = cafc(&[
        "cluster",
        "--input",
        &corpus,
        "--k",
        "4",
        "--seed",
        "1",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
        "--trace",
    ]);
    assert_ok(&out, "cluster --metrics --trace");

    let json = read(&metrics);
    let doc = json::parse(&json).expect("snapshot is valid JSON");
    for key in ["counters", "gauges", "histograms", "spans"] {
        assert!(doc.get(key).is_some(), "snapshot missing {key:?}:\n{json}");
    }
    for metric in [
        "ingest.pages_total",
        "seed.hub_candidates",
        "kmeans.iterations",
        "exec.threads",
    ] {
        assert!(json.contains(metric), "snapshot missing {metric}:\n{json}");
    }
    // The corpus is built by the hardened page pass, under its names.
    assert!(!json.contains("corpus.vectorize"), "{json}");
    // --trace prints the span tree to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("kmeans.assign"), "no span tree:\n{stderr}");
}

#[test]
fn metrics_flag_does_not_change_the_clustering() {
    let scratch = Scratch::new("invariance");
    let corpus = scratch.corpus();
    let silent = scratch.path("silent.json");
    let traced = scratch.path("traced.json");
    let metrics = scratch.path("metrics.json");
    let base = ["cluster", "--input", &corpus, "--k", "4", "--seed", "1"];
    let out = cafc(&[&base[..], &["--out", silent.to_str().expect("utf-8")]].concat());
    assert_ok(&out, "uninstrumented cluster");
    let out = cafc(
        &[
            &base[..],
            &[
                "--out",
                traced.to_str().expect("utf-8"),
                "--metrics",
                metrics.to_str().expect("utf-8"),
            ],
        ]
        .concat(),
    );
    assert_ok(&out, "instrumented cluster");
    assert_eq!(
        read(&silent),
        read(&traced),
        "--metrics perturbed the written clustering"
    );
}

#[test]
fn eval_rejects_duplicate_assignments() {
    let scratch = Scratch::new("eval");
    let corpus = scratch.corpus();
    let clusters = scratch.path("clusters.json");
    let out = cafc(&[
        "cluster",
        "--input",
        &corpus,
        "--k",
        "4",
        "--seed",
        "1",
        "--out",
        clusters.to_str().expect("utf-8"),
    ]);
    assert_ok(&out, "cluster --out");

    // Duplicate the first URL into an extra cluster: one database now has
    // two cluster assignments, which eval must reject loudly.
    let doc = json::parse(&read(&clusters)).expect("clusters.json parses");
    let mut arrays = doc
        .get("clusters")
        .and_then(Value::as_array)
        .expect("clusters array")
        .to_vec();
    let first_url = arrays
        .first()
        .and_then(|c| c.as_array())
        .and_then(|c| c.first())
        .and_then(|u| u.as_str())
        .expect("first cluster has a URL")
        .to_owned();
    arrays.push(Value::Array(vec![Value::String(first_url)]));
    let malformed = scratch.path("malformed.json");
    let root = Value::object([("clusters", Value::Array(arrays))]);
    std::fs::write(&malformed, root.to_string()).expect("malformed.json writes");

    let out = cafc(&[
        "eval",
        "--input",
        &corpus,
        "--clusters",
        malformed.to_str().expect("utf-8"),
    ]);
    assert!(
        !out.status.success(),
        "eval must reject a duplicated assignment"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid clustering"),
        "unexpected error text:\n{stderr}"
    );
    assert!(stderr.contains("appears in cluster"), "{stderr}");

    // The untouched file still evaluates cleanly.
    let out = cafc(&[
        "eval",
        "--input",
        &corpus,
        "--clusters",
        clusters.to_str().expect("utf-8"),
    ]);
    assert_ok(&out, "eval of a well-formed clustering");
}
