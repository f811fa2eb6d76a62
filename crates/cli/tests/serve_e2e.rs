//! End-to-end tests of `cafc serve` and `cafc loadgen`: generate a corpus,
//! stand up the daemon on an ephemeral loopback port, drive it over real
//! TCP, and check that fixed-seed loadgen runs agree byte-for-byte.

use cafc::obs::json::{self, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn cafc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cafc"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cafc-serve-e2e-{name}-{}", std::process::id()));
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

fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        !out.status.success(),
        "command unexpectedly succeeded.\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// One HTTP request against the daemon; returns `(status, body)`.
fn get(addr: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serve_daemon_answers_and_shuts_down() {
    let dir = tmpdir("daemon");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "48", "--seed", "9"]));

    // --port 0: the daemon picks an ephemeral port and prints it.
    let mut child = cafc()
        .args([
            "serve", "--input", dir_s, "--port", "0", "--k", "6", "--seed", "3",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon prints before exiting")
            .expect("utf8 stdout");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest
                .split('/')
                .next()
                .expect("authority after scheme")
                .to_string();
        }
    };

    let (status, body) = get(&addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = get(&addr, "/search?q=cheap+flights&k=3");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"hits\":["), "{body}");
    assert!(body.contains("\"clusters_visited\""), "{body}");

    let (status, body) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"counters\""), "{body}");

    let (status, _) = get(&addr, "/search");
    assert_eq!(status, 400, "missing q must be a client error");

    let (status, _) = get(&addr, "/shutdown");
    assert_eq!(status, 200);
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon exit: {:?}", out.status);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_fixed_seed_runs_agree() {
    let dir = tmpdir("loadgen");
    let dir_s = dir.to_str().expect("utf8 temp path");
    run_ok(cafc().args(["generate", "--out", dir_s, "--pages", "48", "--seed", "9"]));

    let digest_a = dir.join("digest-a.json");
    let digest_b = dir.join("digest-b.json");
    let bench = dir.join("bench.json");
    let base = [
        "loadgen",
        "--input",
        dir_s,
        "--k",
        "6",
        "--seed",
        "17",
        "--rate",
        "300",
        "--duration-ms",
        "250",
    ];
    let out_a = run_ok(cafc().args(base).args([
        "--digest",
        digest_a.to_str().expect("utf8"),
        "--json",
        bench.to_str().expect("utf8"),
    ]));
    let out_b = run_ok(
        cafc()
            .args(base)
            .args(["--digest", digest_b.to_str().expect("utf8")]),
    );

    assert!(out_a.contains("recall@10"), "{out_a}");
    assert!(out_a.contains("p99"), "{out_a}");

    // The seed-determined digests must agree byte-for-byte across runs.
    let a = std::fs::read_to_string(&digest_a).expect("digest a");
    let b = std::fs::read_to_string(&digest_b).expect("digest b");
    assert_eq!(a, b, "fixed-seed digests diverged:\n{out_a}\n{out_b}");
    assert!(a.contains("\"stream_hash\""), "{a}");

    // The bench JSON carries the stable schema for the perf trajectory.
    let bench_json = std::fs::read_to_string(&bench).expect("bench json");
    for key in [
        "\"bench\": \"loadgen\"",
        "\"achieved_qps\"",
        "\"p50_us\"",
        "\"p99_us\"",
        "\"recall_at_10\"",
        "\"routed_postings\"",
        "\"full_postings\"",
        "\"pages_per_sec\"",
    ] {
        assert!(bench_json.contains(key), "missing {key} in {bench_json}");
    }

    // A budget routes every query. Runs at one and four threads write the
    // same digest, and the routed scans read fewer postings than the full
    // ones. Recall under a budget is printed, not gated.
    let budgeted = |threads: &str| {
        let digest = dir.join(format!("digest-budget-{threads}.json"));
        run_ok(cafc().args(base).args([
            "--budget",
            "100",
            "--threads",
            threads,
            "--digest",
            digest.to_str().expect("utf8"),
        ]));
        std::fs::read_to_string(&digest).expect("budgeted digest")
    };
    let one = budgeted("1");
    assert_eq!(
        one,
        budgeted("4"),
        "budgeted digests diverged across threads"
    );
    let digest = json::parse(&one).expect("digest parses");
    let field = |key: &str| match digest.get(key) {
        Some(Value::Number(n)) => *n,
        other => panic!("digest field {key}: {other:?} in {one}"),
    };
    assert!(field("routed_postings") < field("full_postings"), "{one}");
    println!("budget 100: recall@10 {}", field("recall_at_10"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_and_loadgen_flags_fail_fast_with_flag_names() {
    // Flag validation happens before corpus load, so no corpus is needed.
    for (args, needle) in [
        (vec!["serve", "--port", "70000"], "--port expects a number"),
        (
            vec!["loadgen", "--rate", "0"],
            "--rate expects a positive number",
        ),
        (
            vec!["loadgen", "--duration-ms", "0"],
            "--duration-ms expects a count of at least 1",
        ),
        (
            vec!["loadgen", "--budget", "0"],
            "--budget expects a count of at least 1",
        ),
        (
            vec!["search", "--rank", "pagerank", "flights"],
            "--rank expects bm25|tfidf|fused",
        ),
    ] {
        let err = run_err(cafc().args(&args));
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}
