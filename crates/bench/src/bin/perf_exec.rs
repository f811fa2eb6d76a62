//! Serial vs parallel wall-clock for the full pipeline (vectorization +
//! CAFC-CH) at several corpus sizes, plus a determinism cross-check: every
//! policy must produce the identical partition. Results are recorded in
//! EXPERIMENTS.md ("Execution layer: serial vs parallel wall-clock").

use cafc::obs::json::Value;
use cafc::{cafc_ch, CafcChConfig, ExecPolicy, FeatureConfig, FormPageCorpus, FormPageSpace, Obs};
use cafc::{ModelOptions, Partition};
use cafc_corpus::{generate, CorpusConfig};
use cafc_webgraph::PageId;
use cafc_webgraph::WebGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const K: usize = 8;
const SEED: u64 = 3;

struct Row {
    pages: usize,
    serial_ms: f64,
    parallel_ms: f64,
    threads: usize,
    speedup: f64,
    identical: bool,
}

impl From<Row> for Value {
    fn from(r: Row) -> Value {
        Value::object([
            ("pages", r.pages.into()),
            ("serial_ms", r.serial_ms.into()),
            ("parallel_ms", r.parallel_ms.into()),
            ("threads", r.threads.into()),
            ("speedup", r.speedup.into()),
            ("identical", r.identical.into()),
        ])
    }
}

fn corpus_config(pages: usize) -> CorpusConfig {
    CorpusConfig {
        total_form_pages: pages,
        single_attribute_count: (pages / 8).max(1),
        non_searchable_count: (pages / 8).max(1),
        hubs_per_domain: pages.max(8),
        mixed_hubs: (pages / 4).max(2),
        seed: SEED,
        ..CorpusConfig::default()
    }
}

fn run(graph: &WebGraph, targets: &[PageId], policy: ExecPolicy) -> (Duration, Partition) {
    let start = Instant::now();
    let corpus = FormPageCorpus::from_graph(
        graph,
        targets,
        &ModelOptions::default(),
        false,
        policy,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(SEED);
    let out = cafc_ch(
        graph,
        targets,
        &space,
        &CafcChConfig::paper_default(K),
        &mut rng,
        policy,
        &Obs::disabled(),
    );
    (start.elapsed(), out.outcome.partition)
}

fn main() {
    let parallel = ExecPolicy::Auto;
    let threads = parallel.threads();
    cafc_bench::print_header(
        "Execution layer: serial vs parallel wall-clock (CAFC-CH end to end)",
        "not in the paper — validates the deterministic execution layer",
    );
    println!("parallel policy: Auto ({threads} worker thread(s))");
    println!();
    println!("  pages  serial_ms  parallel_ms  speedup  identical");
    let mut rows = Vec::new();
    for pages in [120usize, 240, 480, 960] {
        let web = generate(&corpus_config(pages));
        let targets = web.form_page_ids();
        // Warm-up pass so neither arm pays first-touch costs.
        let _ = run(&web.graph, &targets, ExecPolicy::Serial);
        let (serial_t, serial_p) = run(&web.graph, &targets, ExecPolicy::Serial);
        let (parallel_t, parallel_p) = run(&web.graph, &targets, parallel);
        let row = Row {
            pages: targets.len(),
            serial_ms: serial_t.as_secs_f64() * 1e3,
            parallel_ms: parallel_t.as_secs_f64() * 1e3,
            threads,
            speedup: serial_t.as_secs_f64() / parallel_t.as_secs_f64().max(1e-9),
            identical: serial_p == parallel_p,
        };
        println!(
            "{:>7}  {:>9.1}  {:>11.1}  {:>6.2}x  {}",
            row.pages,
            row.serial_ms,
            row.parallel_ms,
            row.speedup,
            if row.identical { "yes" } else { "NO" },
        );
        assert!(
            row.identical,
            "policies diverged at {pages} pages — determinism contract violated"
        );
        rows.push(row);
    }
    cafc_bench::write_json("perf_exec", rows);
}
