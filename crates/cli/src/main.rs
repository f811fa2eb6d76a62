//! `cafc` — organize hidden-web databases from the command line.
//!
//! ```text
//! cafc generate --out DIR [--pages N] [--seed S]
//!     Synthesize a deep-web corpus and write it to DIR
//!     (manifest.json + pages/*.html).
//!
//! cafc cluster --input DIR [--k N | --auto-k] [--algorithm cafc-ch|cafc-c|hac|bisect]
//!              [--features fc|pc|both] [--min-cardinality N] [--seed S]
//!              [--threads N] [--out clusters.json] [--report FILE.html]
//!              [--metrics FILE.json] [--trace]
//!     Cluster the corpus in DIR; optionally write assignments and an HTML
//!     directory report.
//!
//! cafc search --input DIR [--k N] [--limit N] [--rank bm25|tfidf|fused]
//!             [--budget N] QUERY...
//!     Cluster then search: rank clusters and databases against QUERY
//!     through the inverted index (BM25 by default; `--rank tfidf` is the
//!     original cosine ranking, `fused` reciprocal-rank-fuses both).
//!
//! cafc serve --input DIR [--port P] [--workers N] [--backlog N]
//!            [--rank ...] [--budget N] [--limit N]
//!     Cluster, build the inverted index, and answer queries over HTTP:
//!     GET /search?q=…&k=… (JSON), /metrics (cafc-obs snapshot),
//!     /healthz, /shutdown. --port 0 binds an ephemeral port.
//!
//! cafc daemon [--pages N] [--seed S] [--warmup N] [--k N] [--port P]
//!             [--repair-every N] [--refresh-every N] [--drift-threshold T]
//!             [--interval-ms MS] [--assignments FILE]
//!             [--workers N] [--backlog N] [--rank ...] [--threads N]
//!     Streaming mode: synthesize a seeded crawl, warm-start clusters on
//!     the first `--warmup` pages, then stream the rest one page at a time
//!     through the batch ingest checks and nearest-centroid assignment
//!     while serving queries — the index hot-swaps every `--refresh-every`
//!     kept pages, so new sources appear in /search without a restart. A
//!     repair pass (mini-batch reassignment + drift check, re-clustering
//!     past the threshold) runs every `--repair-every` arrivals.
//!     `--assignments` writes the per-page log; same seed, byte-identical
//!     file.
//!
//! cafc loadgen --input DIR [--seed S] [--rate QPS] [--duration-ms MS]
//!              [--vocab N] [--workers N] [--json FILE] [--digest FILE]
//!              [--rank ...] [--budget N] [--limit N]
//!     Replay a seeded open-loop Zipf query stream against the index:
//!     QPS and p50/p99/p999 latency, recall@10 of routed vs brute-force
//!     retrieval, postings scanned on both sides, and FNV digests of the
//!     stream and result sets (byte-identical for equal seeds). --json
//!     writes the BENCH_<n>.json schema; --digest writes only the
//!     seed-determined fields.
//!
//! cafc eval --input DIR --clusters clusters.json
//!     Score a clustering against the gold labels in the manifest.
//!
//! cafc crawl [--fault-rate R] [--max-retries N] [--breaker-threshold N]
//!            [--seed S] [--threads N] [--sweep]
//!     Crawl a synthetic corpus under injected fetch faults, cluster the
//!     surviving databases, and report quality degradation versus a
//!     fault-free crawl.
//!
//! cafc torture [--pages N] [--corpus-seed S] [--seed S] [--k N]
//!              [--mutations all|LIST] [--mutations-per-page N] [--threads N]
//!     Mutate a synthetic corpus with seeded adversarial HTML, ingest it
//!     through the hardened pipeline, and report ok/degraded/quarantined
//!     counts plus quality deltas versus the clean corpus.
//!
//! cafc fuzz [--seed S] [--budget-iters N] [--budget-ms MS]
//!           [--corpus DIR] [--regressions DIR] [--max-input-len BYTES]
//!           [--replay DIR] [--write-seeds] [--ab]
//!     Coverage-guided fuzzing of the HTML stack: mutate corpus inputs,
//!     run the differential oracles on each, persist coverage-novel
//!     inputs and minimized failures. `--replay DIR` re-executes a stored
//!     directory; `--ab` compares guided vs unguided coverage.
//!
//! cafc bench [--sizes N,N,...] [--k N] [--seed S] [--threads N]
//!           [--json FILE] [--digest FILE] [--pages N] [--shard-pages N]
//!           [--hac-sample N] [--max-corpus-bytes N]
//!     Time the full pipeline serial vs parallel at several corpus sizes,
//!     verifying the two produce identical partitions. With `--json` or
//!     `--digest`: one seeded sharded-corpus batch run (gen → ingest →
//!     vectorize → sparse k-means → HAC-on-sample) written in the stable
//!     `BENCH_<n>.json` schema; the digest contains only seed-determined
//!     fields and is byte-identical across thread counts and machines.
//!
//! cafc crash-test [--seed S] [--points N] [--threads N]
//!     Sweep every pipeline stage against every injected I/O fault kind:
//!     crash (or silently corrupt) the checkpoint store at each of the
//!     first N mutating operations, resume, and require the result to be
//!     bit-identical to an uninterrupted run.
//! ```
//!
//! `cluster` (with `--algorithm cafc-c` or `hac`) and `crawl` (single
//! run) accept `--checkpoint-dir DIR [--checkpoint-every N] [--resume]`:
//! progress is checkpointed to DIR as the run advances, and `--resume`
//! picks an interrupted run back up from whatever survived, producing
//! bit-identical results to a run that was never interrupted.
//!
//! `--threads N` selects the execution policy for every command that
//! clusters: `N ≥ 1` pins the worker-thread count, absent means
//! auto-detect. Results are bit-identical regardless of the value.
//!
//! `--metrics FILE.json` writes a JSON metrics snapshot of the run
//! (counters, gauges, histograms, span timings) and `--trace` prints the
//! span tree to stderr; both are available on `cluster`, `crawl`,
//! `torture` and `bench`, and neither perturbs the clustering result.

mod args;
mod commands;
mod table;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let parsed = match args::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => commands::generate(&parsed),
        "cluster" => commands::cluster(&parsed),
        "search" => commands::search(&parsed),
        "eval" => commands::eval(&parsed),
        "crawl" => commands::crawl(&parsed),
        "torture" => commands::torture(&parsed),
        "fuzz" => commands::fuzz(&parsed),
        "bench" => commands::bench(&parsed),
        "crash-test" => commands::crash_test(&parsed),
        "serve" => commands::serve(&parsed),
        "daemon" => commands::daemon(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "cafc — organize hidden-web databases (CAFC, ICDE 2007)

USAGE:
    cafc generate --out DIR [--pages N] [--seed S]
    cafc cluster  --input DIR [--k N | --auto-k]
                  [--algorithm cafc-ch|cafc-c|hac|bisect]
                  [--features fc|pc|both] [--min-cardinality N] [--seed S]
                  [--threads N] [--out clusters.json] [--report FILE.html]
                  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                  [--metrics FILE.json] [--trace]
    cafc search   --input DIR [--k N] [--limit N] [--threads N]
                  [--rank bm25|tfidf|fused] [--budget N] QUERY...
    cafc serve    --input DIR [--port P] [--workers N] [--backlog N]
                  [--rank bm25|tfidf|fused] [--budget N]
                  [--limit N] [--k N] [--threads N]
    cafc daemon   [--pages N] [--seed S] [--warmup N] [--k N] [--port P]
                  [--repair-every N] [--refresh-every N]
                  [--drift-threshold T] [--interval-ms MS]
                  [--assignments FILE] [--workers N] [--backlog N]
                  [--rank bm25|tfidf|fused] [--budget N]
                  [--limit N] [--threads N]
    cafc loadgen  --input DIR [--seed S] [--rate QPS] [--duration-ms MS]
                  [--vocab N] [--workers N] [--json FILE] [--digest FILE]
                  [--rank bm25|tfidf|fused] [--budget N]
                  [--limit N] [--k N] [--threads N]
                  [--metrics FILE.json] [--trace]
    cafc eval     --input DIR --clusters clusters.json
    cafc crawl    [--pages N] [--corpus-seed S] [--k N]
                  [--fault-rate R] [--permanent-rate R] [--truncate-rate R]
                  [--redirect-rate R] [--seed S] [--max-retries N]
                  [--breaker-threshold N] [--breaker-cooldown-ms MS]
                  [--max-pages N] [--max-depth N] [--threads N] [--sweep]
                  [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                  [--metrics FILE.json] [--trace]
    cafc torture  [--pages N] [--corpus-seed S] [--seed S] [--k N]
                  [--mutations all|truncate-mid-tag,entity-bomb,...]
                  [--mutations-per-page N] [--threads N]
                  [--metrics FILE.json] [--trace]
    cafc fuzz     [--seed S] [--budget-iters N] [--budget-ms MS]
                  [--corpus DIR] [--regressions DIR] [--max-input-len BYTES]
                  [--replay DIR] [--write-seeds] [--ab]
    cafc bench    [--sizes N,N,...] [--k N] [--seed S] [--threads N]
                  [--json FILE] [--digest FILE] [--pages N]
                  [--shard-pages N] [--hac-sample N] [--max-corpus-bytes N]
                  [--metrics FILE.json] [--trace]
    cafc crash-test [--seed S] [--points N] [--threads N]
                  [--metrics FILE.json] [--trace]

    --threads N pins the worker-thread count (absent: auto-detect).
    Clustering results are bit-identical for every thread count.
    --metrics FILE.json writes a JSON metrics snapshot; --trace prints
    the span tree to stderr. Neither changes the clustering.
    --checkpoint-dir DIR checkpoints progress; --resume continues an
    interrupted run from DIR, bit-identically to an uninterrupted one."
}
