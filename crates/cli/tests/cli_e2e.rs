//! End-to-end tests of the `cafc` binary: generate → cluster → eval →
//! search over a real temp directory, driving the compiled executable.

use std::path::PathBuf;
use std::process::Command;

fn cafc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cafc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cafc-cli-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "command failed.\nstdout: {stdout}\nstderr: {stderr}"
    );
    stdout
}

#[test]
fn generate_cluster_eval_search_pipeline() {
    let dir = tmpdir("pipeline");
    let dir_s = dir.to_str().expect("utf8 temp path");

    let out = run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "64", "--seed", "9"]));
    assert!(out.contains("64 form pages"), "{out}");
    assert!(dir.join("manifest.json").exists());
    assert!(dir.join("pages/0.html").exists());

    let clusters = dir.join("clusters.json");
    let report = dir.join("dir.html");
    let out = run_ok(cafc().args([
        "cluster",
        "--input",
        dir_s,
        "--k",
        "8",
        "--out",
        clusters.to_str().expect("utf8"),
        "--report",
        report.to_str().expect("utf8"),
    ]));
    assert!(out.contains("cluster"), "{out}");
    assert!(out.contains("gold-standard quality"), "{out}");
    assert!(clusters.exists());
    let html = std::fs::read_to_string(&report).expect("report written");
    assert!(html.contains("Hidden-Web Database Directory"));

    let out = run_ok(cafc().args([
        "eval",
        "--input",
        dir_s,
        "--clusters",
        clusters.to_str().expect("utf8"),
    ]));
    assert!(out.contains("entropy"), "{out}");
    assert!(out.contains("ARI"), "{out}");

    let out = run_ok(cafc().args(["search", "--input", dir_s, "cheap", "flights"]));
    assert!(out.contains("clusters matching"), "{out}");
    assert!(out.contains("databases matching"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_with_alternative_algorithms() {
    let dir = tmpdir("algos");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "48", "--seed", "4"]));
    let outputs = tmpdir("algos-out");
    std::fs::create_dir_all(&outputs).expect("output dir");
    let runs: [&[&str]; 5] = [
        &["--k", "8", "--algorithm", "cafc-ch"],
        &["--k", "8", "--algorithm", "cafc-c"],
        &["--k", "8", "--algorithm", "hac"],
        &["--k", "8", "--algorithm", "bisect"],
        &["--auto-k"],
    ];
    // Every branch of the algorithm dispatch writes the same clusters.json
    // at one thread and at four.
    for flags in runs {
        let written: Vec<Vec<u8>> = ["1", "4"]
            .iter()
            .map(|threads| {
                let path = outputs.join(format!("clusters-{threads}.json"));
                let path_s = path.to_str().expect("utf8 temp path");
                let out = run_ok(
                    cafc()
                        .args(["cluster", "--input", dir_s, "--threads", threads])
                        .args(["--out", path_s])
                        .args(flags),
                );
                assert!(out.contains("gold-standard quality"), "{flags:?}: {out}");
                std::fs::read(&path).expect("clusters.json written")
            })
            .collect();
        assert!(
            written[0] == written[1],
            "{flags:?}: --threads 1 and --threads 4 wrote different clusters.json"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&outputs);
}

#[test]
fn auto_k_flag() {
    let dir = tmpdir("autok");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "48", "--seed", "6"]));
    let out = run_ok(cafc().args(["cluster", "--input", dir_s, "--auto-k"]));
    assert!(out.contains("auto-k: chose k ="), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors() {
    let out = cafc().args(["cluster"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out = cafc().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = cafc().output().expect("binary runs");
    assert!(!out.status.success());

    let out = cafc().args(["help"]).output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn torture_reports_accounted_outcomes() {
    let out = run_ok(cafc().args(["torture", "--seed", "7", "--mutations", "all"]));
    assert!(out.contains("ok "), "{out}");
    assert!(out.contains("degraded "), "{out}");
    assert!(out.contains("quarantined "), "{out}");
    assert!(
        out.contains("accounting: ok + degraded + quarantined == total"),
        "{out}"
    );
    // The run is deterministic end to end: same seeds, same report.
    let again = run_ok(cafc().args(["torture", "--seed", "7", "--mutations", "all"]));
    assert_eq!(out, again);
}

#[test]
fn torture_rejects_unknown_mutation() {
    let out = cafc()
        .args(["torture", "--mutations", "frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown mutation"));
}

#[test]
fn search_requires_query() {
    let dir = tmpdir("noquery");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "48", "--seed", "2"]));
    let out = cafc()
        .args(["search", "--input", dir_s])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("query"));
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        !out.status.success(),
        "command unexpectedly succeeded.\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Checkpoint a cafc-c run, resume it, and compare against a plain run:
/// all three must print identical clusterings.
#[test]
fn checkpointed_cluster_resumes_bit_identically() {
    let dir = tmpdir("ckpt-cluster");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "48", "--seed", "4"]));
    let ck = dir.join("ck");
    let ck_s = ck.to_str().expect("utf8");
    let base = [
        "cluster",
        "--input",
        dir_s,
        "--algorithm",
        "cafc-c",
        "--k",
        "6",
    ];

    let plain = run_ok(cafc().args(base));
    let strip = |out: String| -> String {
        out.lines()
            .filter(|l| !l.contains("checkpoint"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first =
        run_ok(
            cafc()
                .args(base)
                .args(["--checkpoint-dir", ck_s, "--checkpoint-every", "2"]),
        );
    assert!(first.contains("checkpointing to"), "{first}");
    assert!(ck.join("kmeans.journal").exists(), "journal not written");
    let resumed = run_ok(
        cafc()
            .args(base)
            .args(["--checkpoint-dir", ck_s, "--resume"]),
    );
    assert!(resumed.contains("resuming from"), "{resumed}");
    assert_eq!(strip(first), plain.trim_end());
    assert_eq!(strip(resumed), plain.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same contract for the crawl: a checkpointed run and its resume print
/// exactly what an uncheckpointed run prints.
#[test]
fn checkpointed_crawl_resumes_bit_identically() {
    let dir = tmpdir("ckpt-crawl");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ck = dir.join("ck");
    let ck_s = ck.to_str().expect("utf8");
    let base = ["crawl", "--fault-rate", "0.3", "--seed", "11"];

    let plain = run_ok(cafc().args(base));
    let strip = |out: String| -> String {
        out.lines()
            .filter(|l| !l.contains("checkpoint"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = run_ok(cafc().args(base).args(["--checkpoint-dir", ck_s]));
    let resumed = run_ok(
        cafc()
            .args(base)
            .args(["--checkpoint-dir", ck_s, "--resume"]),
    );
    assert_eq!(strip(first), plain.trim_end());
    assert_eq!(strip(resumed), plain.trim_end());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Numeric-flag validation: each subcommand rejects malformed values with
/// the flag's own name in the message.
#[test]
fn numeric_flag_validation_names_the_flag() {
    let dir = tmpdir("flagcheck");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "32", "--seed", "2"]));

    for (args, needle) in [
        (
            vec!["cluster", "--input", dir_s, "--k", "several"],
            "--k expects a number",
        ),
        (
            vec![
                "cluster",
                "--input",
                dir_s,
                "--checkpoint-dir",
                "x",
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every expects a count of at least 1",
        ),
        (
            vec!["cluster", "--input", dir_s, "--resume"],
            "--resume requires --checkpoint-dir",
        ),
        (
            vec!["crawl", "--fault-rate", "1.5"],
            "--fault-rate expects a rate in [0, 1]",
        ),
        (
            vec!["crawl", "--breaker-threshold", "high"],
            "--breaker-threshold expects a number",
        ),
        (
            vec!["torture", "--mutations-per-page", "lots"],
            "--mutations-per-page expects a number",
        ),
        (
            vec!["fuzz", "--budget-iters", "0"],
            "--budget-iters expects a count of at least 1",
        ),
        (
            vec!["bench", "--threads", "0"],
            "--threads expects a count of at least 1",
        ),
        (
            vec!["crash-test", "--points", "0"],
            "--points expects a count of at least 1",
        ),
    ] {
        let err = run_err(cafc().args(&args));
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A quick crash-test sweep: one injection point per stage × fault kind,
/// ending in the recovered-bit-identically verdict.
#[test]
fn crash_test_sweep_reports_recovery() {
    let out = run_ok(cafc().args(["crash-test", "--seed", "5", "--points", "1"]));
    assert!(out.contains("stage"), "{out}");
    for fault in [
        "torn-write",
        "short-write",
        "no-space",
        "sync-eio",
        "bit-flip",
    ] {
        assert!(out.contains(fault), "{out}");
    }
    assert!(
        out.contains("every crash point recovered bit-identically"),
        "{out}"
    );
}

/// `cafc cluster` writes byte-stable `clusters.json`: a fixed generated
/// corpus and seed give exactly these bytes (empty clusters dropped, two-
/// space indentation, trailing newline). The corpus comes from the seeded
/// generator, so this also pins the generator end to end.
#[test]
fn cluster_writes_pinned_clusters_json() {
    let dir = tmpdir("pinned-json");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "20", "--seed", "5"]));
    let clusters = dir.join("clusters.json");
    run_ok(cafc().args([
        "cluster",
        "--input",
        dir_s,
        "--k",
        "4",
        "--seed",
        "1",
        "--out",
        clusters.to_str().expect("utf8"),
    ]));
    let expected = r#"{
  "clusters": [
    [
      "http://www.airfare2.com/search.html",
      "http://www.book8.com/search.html",
      "http://www.hotel9.com/search.html",
      "http://www.hotel10.com/search.html"
    ],
    [
      "http://www.airfare0.com/search.html",
      "http://www.airfare1.com/search.html",
      "http://www.auto3.com/search.html",
      "http://www.auto4.com/search.html",
      "http://www.auto5.com/search.html",
      "http://www.hotel11.com/search.html",
      "http://www.job12.com/search.html",
      "http://www.movie14.com/search.html",
      "http://www.movie15.com/search.html"
    ],
    [
      "http://www.book6.com/search.html",
      "http://www.book7.com/search.html",
      "http://www.job13.com/search.html",
      "http://www.music16.com/search.html",
      "http://www.music17.com/search.html",
      "http://www.rental18.com/search.html",
      "http://www.rental19.com/search.html"
    ]
  ]
}
"#;
    let written = std::fs::read_to_string(&clusters).expect("clusters.json written");
    assert_eq!(written, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cafc eval` refuses a bad clusters file with a named error and a clean
/// non-zero exit: malformed JSON, a document without `clusters`, and
/// nesting deep enough to overflow a recursive parser's stack.
#[test]
fn eval_rejects_malformed_and_deeply_nested_json() {
    let dir = tmpdir("bad-json");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "16", "--seed", "3"]));
    let deep = "[".repeat(200_000);
    for (name, body, needle) in [
        (
            "truncated.json",
            "{\"clusters\": [[\"a\"]",
            "expected ',' or ']' at byte 19",
        ),
        (
            "no-clusters.json",
            "{\"groups\": []}",
            "has no top-level \"clusters\" array",
        ),
        (
            "deep.json",
            deep.as_str(),
            "nesting deeper than 128 levels at byte 128",
        ),
    ] {
        let path = dir.join(name);
        let path_s = path.to_str().expect("utf8");
        std::fs::write(&path, body).expect("write clusters file");
        let out = cafc()
            .args(["eval", "--input", dir_s, "--clusters", path_s])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // An exit code (rather than a signal) means no abort.
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
        if name != "no-clusters.json" {
            assert!(
                stderr.contains(&format!("parsing {path_s}: ")),
                "{name}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
