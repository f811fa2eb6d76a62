//! Schema regression tests for the committed `BENCH_<n>.json` trajectory.
//!
//! The bench files are a contract: every later PR gets held to their
//! numbers, so their schemas only ever gain fields — never lose or rename
//! them. This suite parses the committed artifacts with the workspace's
//! JSON module (`cafc::obs::json`) and pins:
//!
//! * `BENCH_8.json` — PR 8's loadgen schema (flat object, loadgen keys);
//! * `BENCH_10.json` — the batch schema (digest + stages);
//! * `BENCH_12.json` — alternated parent/change pairs of the repo
//!   benchmark: one run per record with its side, seed, run order, digest
//!   line and `run.sh`'s last JSON line, at least ten `stream` pairs, and
//!   the pinned seed-10 digests;
//! * `BENCH_15.json` — the same pairs schema with at least ten pairs on
//!   each of `batch`, `serve-keyword` and `stream`, one traced seed-10
//!   batch pair, and a parent/change pair of the 10^5-page `cafc bench`
//!   at one thread count and the pinned 10^5 digest;
//! * `BENCH_16.json` — the BENCH_15 schema as `tools/bench-pairs.sh`
//!   writes it: a summary line per workload and end-to-end metric, and
//!   the 10^5 pair at one thread;
//! * `BENCH_19.json` — ten pairs on each workload with their summary
//!   lines, and one traced seed-10 stream pair with the self time of the
//!   publish's `index.build` and `index.publish` spans and of
//!   `stream.arrival`;
//! * digest determinism — two same-config `run_bench` calls render
//!   byte-identical digests, the property the CI `bench-smoke` job diffs
//!   end to end through the CLI.

use cafc::obs::json::{parse, Value};
use cafc::{run_bench, BenchConfig};
use cafc_corpus::{generate_shard, ShardedCorpusConfig};

/// Read and parse a committed repo-root artifact.
fn committed(name: &str) -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    let text = std::fs::read_to_string(format!("{path}{name}"))
        .unwrap_or_else(|e| panic!("cannot read committed {name}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{name} is not JSON: {e:?}"))
}

/// The JSON value kinds the schemas distinguish.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// A non-negative integer.
    Uint,
    /// Any number.
    Number,
    /// A string of 16 hex digits.
    Hash,
    /// `true` or `false`.
    Bool,
    /// A string.
    Str,
    /// An object.
    Object,
    /// An array.
    Array,
}

fn is_kind(value: &Value, kind: Kind) -> bool {
    match (kind, value) {
        (Kind::Uint, Value::Number(n)) => *n >= 0.0 && n.fract() == 0.0,
        (Kind::Number, Value::Number(_)) => true,
        (Kind::Hash, Value::String(s)) => s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit()),
        (Kind::Bool, Value::Bool(_)) => true,
        (Kind::Str, Value::String(_)) => true,
        (Kind::Object, Value::Object(_)) => true,
        (Kind::Array, Value::Array(_)) => true,
        _ => false,
    }
}

/// `doc[key]`, which must exist and be of `kind`.
fn require_key<'a>(doc: &'a Value, key: &str, kind: Kind) -> &'a Value {
    let value = doc
        .get(key)
        .unwrap_or_else(|| panic!("missing key {key:?}"));
    assert!(
        is_kind(value, kind),
        "key {key:?} is not {kind:?}: {value:?}"
    );
    value
}

fn str_of<'a>(doc: &'a Value, key: &str) -> &'a str {
    require_key(doc, key, Kind::Str)
        .as_str()
        .unwrap_or_default()
}

fn array_of<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    require_key(doc, key, Kind::Array)
        .as_array()
        .unwrap_or_default()
}

fn number_of(doc: &Value, key: &str) -> f64 {
    match require_key(doc, key, Kind::Number) {
        Value::Number(n) => *n,
        _ => f64::NAN,
    }
}

#[test]
fn bench_8_keeps_the_loadgen_schema() {
    let doc = committed("BENCH_8.json");
    assert_eq!(str_of(&doc, "bench"), "loadgen", "bench tag changed");
    for (key, kind) in [
        ("seed", Kind::Uint),
        ("queries", Kind::Uint),
        ("offered_qps", Kind::Number),
        ("achieved_qps", Kind::Number),
        ("p50_us", Kind::Number),
        ("p99_us", Kind::Number),
        ("p999_us", Kind::Number),
        ("stream_hash", Kind::Hash),
        ("results_hash", Kind::Hash),
        ("recall_at_10", Kind::Number),
        ("routed_postings", Kind::Uint),
        ("full_postings", Kind::Uint),
        ("index_docs", Kind::Uint),
        ("index_postings", Kind::Uint),
        ("index_build_ms", Kind::Number),
        ("pages_per_sec", Kind::Number),
    ] {
        require_key(&doc, key, kind);
    }
}

/// The `cafc bench --json` batch report: the digest object, the stage
/// list in pipeline order, and the machine-dependent totals.
fn require_batch_report(doc: &Value) -> &Value {
    assert_eq!(str_of(doc, "bench"), "batch", "bench tag changed");
    let digest = require_key(doc, "digest", Kind::Object);
    for (key, kind) in [
        ("pages", Kind::Uint),
        ("shard_pages", Kind::Uint),
        ("seed", Kind::Uint),
        ("k", Kind::Uint),
        ("hac_sample", Kind::Uint),
        ("pages_ok", Kind::Uint),
        ("pages_degraded", Kind::Uint),
        ("pages_quarantined", Kind::Uint),
        ("dict_terms", Kind::Uint),
        ("corpus_bytes", Kind::Uint),
        ("kmeans_iterations", Kind::Uint),
        ("kmeans_converged", Kind::Bool),
        ("kmeans_clusters", Kind::Uint),
        ("assignment_hash", Kind::Hash),
        ("cluster_sizes_hash", Kind::Hash),
        ("hac_hash", Kind::Hash),
    ] {
        require_key(digest, key, kind);
    }
    for (key, kind) in [
        ("threads", Kind::Uint),
        ("peak_rss_kb", Kind::Uint),
        ("total_wall_ms", Kind::Number),
    ] {
        require_key(doc, key, kind);
    }
    // One stage entry per batch leg, in pipeline order.
    let stages: Vec<&str> = array_of(doc, "stages")
        .iter()
        .map(|stage| {
            require_key(stage, "items", Kind::Uint);
            require_key(stage, "wall_ms", Kind::Number);
            require_key(stage, "pages_per_sec", Kind::Number);
            str_of(stage, "stage")
        })
        .collect();
    assert_eq!(
        stages,
        ["gen", "ingest", "vectorize", "kmeans", "hac_sample"],
        "stages out of order"
    );
    digest
}

#[test]
fn bench_10_keeps_the_batch_schema() {
    let doc = committed("BENCH_10.json");
    let digest = require_batch_report(&doc);
    // The committed artifact is the accepted 10^5 run.
    assert_eq!(
        number_of(digest, "pages"),
        100_000.0,
        "BENCH_10 must be the 10^5 run"
    );
}

/// The pairs schema shared by `BENCH_12.json` and `BENCH_15.json`: the
/// header, the pinned seed-10 digests, and one complete, correct record
/// per run with equal parent and change counts per workload. Returns the
/// runs.
fn require_pairs(doc: &Value) -> &[Value] {
    assert_eq!(str_of(doc, "bench"), "pairs", "bench tag changed");
    str_of(doc, "parent");
    str_of(doc, "command");
    let digests = require_key(doc, "digest_seed_10", Kind::Object);
    for (workload, hash) in [
        ("stream", "0b260a68bd058677"),
        ("batch", "552dbcd8bdd5fd4c"),
        ("serve-keyword", "579582f2f0c7b00c"),
    ] {
        assert!(
            str_of(digests, workload).contains(hash),
            "seed-10 digest {hash} missing"
        );
    }
    require_key(doc, "summary", Kind::Array);
    let runs = array_of(doc, "runs");
    for run in runs {
        for (key, kind) in [
            ("workload", Kind::Str),
            ("seconds", Kind::Uint),
            ("pair", Kind::Uint),
            ("seed", Kind::Uint),
            ("side", Kind::Str),
            ("run_order", Kind::Uint),
            ("digest", Kind::Str),
        ] {
            require_key(run, key, kind);
        }
        let last = require_key(run, "last_line", Kind::Object);
        require_key(last, "attempted", Kind::Uint);
        require_key(last, "failed", Kind::Uint);
        assert_eq!(
            last.get("correct"),
            Some(&Value::Bool(true)),
            "a recorded run failed its checks: {run:?}"
        );
        let metrics = require_key(last, "metrics", Kind::Object);
        for metric in [
            "setup_s",
            "ops_per_s",
            "latency_p50_ms",
            "latency_p90_ms",
            "peak_rss_mb",
        ] {
            let metric = require_key(metrics, metric, Kind::Object);
            require_key(metric, "value", Kind::Number);
        }
    }
    for workload in ["stream", "batch", "serve-keyword"] {
        assert_eq!(
            count(runs, workload, "parent"),
            count(runs, workload, "change"),
            "{workload}: unpaired runs"
        );
    }
    runs
}

/// Runs of `workload` on `side`.
fn count(runs: &[Value], workload: &str, side: &str) -> usize {
    runs.iter()
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|run| run.get("side").and_then(Value::as_str) == Some(side))
        .count()
}

#[test]
fn bench_12_keeps_the_pairs_schema() {
    let doc = committed("BENCH_12.json");
    let runs = require_pairs(&doc);
    require_key(&doc, "trace_stream_seed_10", Kind::Array);
    assert!(
        count(runs, "stream", "change") >= 10,
        "fewer than ten stream pairs"
    );
}

/// The pairs, trace and scale schema shared by `BENCH_15.json` and
/// `BENCH_16.json`: at least ten pairs on each workload, one traced seed-10
/// batch record per side with its self time per span and per-layer split,
/// and a parent/change pair of the 10^5-page `cafc bench` at one thread
/// count, both at the pinned digest. Returns that thread count.
fn require_pairs_trace_and_scale(doc: &Value) -> f64 {
    let runs = require_pairs(doc);
    for workload in ["batch", "serve-keyword", "stream"] {
        assert!(
            count(runs, workload, "change") >= 10,
            "fewer than ten {workload} pairs"
        );
    }
    let traced = array_of(doc, "trace_batch_seed_10");
    for side in ["parent", "change"] {
        let run = traced
            .iter()
            .find(|run| run.get("side").and_then(Value::as_str) == Some(side))
            .unwrap_or_else(|| panic!("no traced {side} run"));
        require_key(run, "run_order", Kind::Uint);
        let self_time = require_key(run, "self_time_ms", Kind::Object);
        require_key(self_time, "model.build", Kind::Number);
        require_key(self_time, "cluster.kmeans", Kind::Number);
        let per_layer = require_key(run, "per_layer", Kind::Object);
        require_key(per_layer, "text.analyze_us", Kind::Number);
        require_key(per_layer, "model.build_s", Kind::Number);
        require_key(per_layer, "cluster.kmeans_s", Kind::Number);
    }
    let scale = array_of(doc, "scale_1e5");
    let mut threads = Vec::new();
    for side in ["parent", "change"] {
        let run = scale
            .iter()
            .find(|run| run.get("side").and_then(Value::as_str) == Some(side))
            .unwrap_or_else(|| panic!("no 10^5 {side} run"));
        let report = require_key(run, "report", Kind::Object);
        let digest = require_batch_report(report);
        assert_eq!(number_of(digest, "pages"), 100_000.0);
        assert_eq!(str_of(digest, "assignment_hash"), "627b07e2f691f549");
        threads.push(number_of(report, "threads"));
    }
    assert_eq!(
        threads[0], threads[1],
        "10^5 pair at different thread counts"
    );
    threads[0]
}

#[test]
fn bench_15_keeps_the_pairs_trace_and_scale_schema() {
    require_pairs_trace_and_scale(&committed("BENCH_15.json"));
}

#[test]
fn bench_16_keeps_the_pairs_trace_and_scale_schema() {
    let doc = committed("BENCH_16.json");
    let threads = require_pairs_trace_and_scale(&doc);
    assert_eq!(threads, 1.0, "the 10^5 pair runs at one thread");
    require_summary(&doc);
}

#[test]
fn bench_19_keeps_the_pairs_and_stream_trace_schema() {
    let doc = committed("BENCH_19.json");
    let runs = require_pairs(&doc);
    for workload in ["batch", "serve-keyword", "stream"] {
        assert!(
            count(runs, workload, "change") >= 10,
            "fewer than ten {workload} pairs"
        );
    }
    require_summary(&doc);
    let traced = array_of(&doc, "trace_stream_seed_10");
    for side in ["parent", "change"] {
        let run = traced
            .iter()
            .find(|run| run.get("side").and_then(Value::as_str) == Some(side))
            .unwrap_or_else(|| panic!("no traced {side} run"));
        require_key(run, "run_order", Kind::Uint);
        assert_eq!(number_of(run, "seed"), 10.0, "traced pair at seed 10");
        require_key(run, "last_line", Kind::Object);
        let self_time = require_key(run, "self_time_ms", Kind::Object);
        for span in ["index.build", "index.publish", "stream.arrival"] {
            require_key(self_time, span, Kind::Number);
        }
    }
}

/// One summary line per (workload, end-to-end metric), as
/// `tools/bench-pairs.sh` prints it.
fn require_summary(doc: &Value) {
    let summary = array_of(doc, "summary");
    for workload in ["batch", "serve-keyword", "stream"] {
        for metric in [
            "setup_s",
            "ops_per_s",
            "latency_p50_ms",
            "latency_p90_ms",
            "peak_rss_mb",
        ] {
            let line = summary
                .iter()
                .find(|line| {
                    line.get("workload").and_then(Value::as_str) == Some(workload)
                        && line.get("metric").and_then(Value::as_str) == Some(metric)
                })
                .unwrap_or_else(|| panic!("no {workload} {metric} summary"));
            for (key, kind) in [
                ("better", Kind::Str),
                ("pairs", Kind::Uint),
                ("change_wins", Kind::Uint),
                ("parent_median", Kind::Number),
                ("parent_q1", Kind::Number),
                ("parent_q3", Kind::Number),
                ("change_median", Kind::Number),
                ("change_q1", Kind::Number),
                ("change_q3", Kind::Number),
                ("median_ratio", Kind::Number),
            ] {
                require_key(line, key, kind);
            }
        }
    }
}

/// Two same-config runs render byte-identical digests, and the digest
/// lines embedded in the full `--json` document match the standalone
/// digest — what the CI `bench-smoke` job diffs through the CLI.
#[test]
fn same_seed_runs_render_identical_digests() {
    let corpus = ShardedCorpusConfig::new()
        .with_total_form_pages(120)
        .with_shard_pages(32)
        .with_seed(21);
    let num_shards = corpus.num_shards();
    let config = BenchConfig::new()
        .with_pages(120)
        .with_shard_pages(32)
        .with_seed(21)
        .with_k(4)
        .with_hac_sample(30);
    let source = |cfg: ShardedCorpusConfig| {
        move |s: usize| {
            if s >= num_shards {
                None
            } else {
                Some(generate_shard(&cfg, s))
            }
        }
    };
    let a = run_bench(&config, source(corpus.clone()));
    let b = run_bench(&config.clone().with_threads(4), source(corpus));
    assert_eq!(
        a.render_digest(),
        b.render_digest(),
        "same-seed digests must be byte-identical across thread counts"
    );
    for line in a.render_digest().lines().filter(|l| l.starts_with("  \"")) {
        assert!(
            a.render_json().contains(line.trim()),
            "digest line {line:?} missing from the full report"
        );
    }
}
