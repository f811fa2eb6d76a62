//! Subcommand implementations.

use crate::args::Args;
use crate::table::render_kv_table;
use cafc::obs::json::{self, Value};
use cafc::{
    cafc_c, cafc_ch, run_bench as cafc_run_bench, BenchConfig, CafcChConfig, ExecPolicy,
    FeatureConfig, FormPageCorpus, FormPageSpace, HubClusterOptions, IngestLimits, IngestReport,
    KMeansOptions, ModelOptions, Obs, Partition, SearchAlgorithm, SearchConfig, SearchIndex,
    SearchPipeline, StreamConfig, StreamCorpus,
};
use cafc_cluster::{
    bisecting_kmeans, choose_k, hac, hac_resumable, kmeans, kmeans_resumable,
    random_singleton_seeds, BisectOptions, HacOptions, Linkage,
};
use cafc_corpus::{
    export_web, generate as generate_web, generate_shard, load_web, mutate_page, page_rng,
    CorpusConfig, LoadedWeb, Mutation, ShardedCorpusConfig, SyntheticWeb,
};
use cafc_crawler::{
    crawl as crawl_bfs, crawl_resilient, crawl_resumable, BreakerConfig, ChaosFetcher, CrawlConfig,
    FaultConfig, ResilientConfig, ResilientCrawlOutcome, RetryPolicy,
};
use cafc_explore::{html_report, ClusterIndex};
use cafc_serve::{loadgen, LoadgenConfig, ServeOptions, Server, SharedIndex};
use cafc_store::{ChaosFs, FaultKind, FaultPlan, StdFs, Store, StoreConfig, StoreError};
use cafc_webgraph::PageId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Build the observability handle from `--metrics`/`--trace`: enabled (with
/// the production monotonic clock) when either flag is present, otherwise
/// the near-zero-cost disabled handle. The effective worker-thread count is
/// recorded here — at the CLI boundary, never inside the library, so
/// library snapshots stay policy-invariant.
fn build_obs(args: &Args, policy: ExecPolicy) -> Obs {
    if args.get("metrics").is_some() || args.has("trace") {
        let obs = Obs::enabled();
        obs.gauge("exec.threads", policy.threads() as f64);
        obs
    } else {
        Obs::disabled()
    }
}

/// Emit the collected metrics: the `--trace` span tree and metric lines to
/// stderr, and/or the `--metrics PATH` JSON snapshot. No-op when disabled.
fn emit_obs(args: &Args, obs: &Obs) -> Result<(), String> {
    if !obs.is_enabled() {
        return Ok(());
    }
    let snapshot = obs.snapshot();
    if args.has("trace") {
        eprint!("{}", snapshot.render_text());
    }
    if let Some(path) = args.get("metrics") {
        std::fs::write(path, snapshot.render_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// The `--checkpoint-dir`/`--resume`/`--checkpoint-every` triple, parsed
/// and validated as one unit: the latter two are meaningless without the
/// first, and saying so beats silently ignoring them.
struct CheckpointOpts {
    dir: PathBuf,
    resume: bool,
    every: u64,
}

fn checkpoint_opts(args: &Args) -> Result<Option<CheckpointOpts>, String> {
    let Some(dir) = args.get("checkpoint-dir") else {
        if args.has("resume") {
            return Err("--resume requires --checkpoint-dir".into());
        }
        if args.get("checkpoint-every").is_some() {
            return Err("--checkpoint-every requires --checkpoint-dir".into());
        }
        return Ok(None);
    };
    Ok(Some(CheckpointOpts {
        dir: PathBuf::from(dir),
        resume: args.has("resume"),
        every: args.get_count_u64("checkpoint-every", StoreConfig::new().checkpoint_every)?,
    }))
}

fn open_store(opts: &CheckpointOpts, obs: &Obs) -> Result<Store, String> {
    Store::open(
        &opts.dir,
        StoreConfig::new().with_checkpoint_every(opts.every),
        obs.clone(),
    )
    .map_err(|e| format!("opening checkpoint dir {}: {e}", opts.dir.display()))
}

/// Corpus sized from a `--pages` count, as both `generate` and `crawl`
/// build it.
fn corpus_config(pages: usize, seed: u64) -> CorpusConfig {
    CorpusConfig {
        total_form_pages: pages,
        single_attribute_count: (pages / 8).max(1),
        non_searchable_count: (pages / 8).max(1),
        hubs_per_domain: (pages).max(8),
        mixed_hubs: (pages / 4).max(2),
        seed,
        ..CorpusConfig::default()
    }
}

/// `cafc generate` — synthesize a corpus to disk.
pub fn generate(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let pages = args.get_usize("pages", 454)?;
    let seed = args.get_u64("seed", 3)?;
    let web = generate_web(&corpus_config(pages, seed));
    let written = export_web(&web, Path::new(out)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {written} pages ({} form pages, {} hubs) to {out}",
        web.form_pages.len(),
        web.hubs.len()
    );
    Ok(())
}

/// Everything the clustering subcommands share: the loaded corpus,
/// vectorized model and ids.
struct Prepared {
    web: LoadedWeb,
    targets: Vec<PageId>,
    corpus: FormPageCorpus,
}

fn prepare(input: &str, policy: ExecPolicy, obs: &Obs) -> Result<Prepared, String> {
    let web = load_web(Path::new(input)).map_err(|e| format!("loading {input}: {e}"))?;
    let targets = web.form_page_ids();
    if targets.is_empty() {
        return Err(format!(
            "{input} contains no form pages (manifest kind=\"form\")"
        ));
    }
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        policy,
        obs,
    );
    Ok(Prepared {
        web,
        targets,
        corpus,
    })
}

fn feature_config(args: &Args) -> Result<FeatureConfig, String> {
    match args.get("features").unwrap_or("both") {
        "fc" => Ok(FeatureConfig::FcOnly),
        "pc" => Ok(FeatureConfig::PcOnly),
        "both" => Ok(FeatureConfig::combined()),
        other => Err(format!("--features expects fc|pc|both, got {other:?}")),
    }
}

fn run_clustering(
    prepared: &Prepared,
    args: &Args,
    policy: ExecPolicy,
    obs: &Obs,
) -> Result<Partition, String> {
    let features = feature_config(args)?;
    let space = FormPageSpace::new(&prepared.corpus, features);
    let seed = args.get_u64("seed", 1)?;
    let algorithm = args.get("algorithm").unwrap_or("cafc-ch");
    let ckpt = checkpoint_opts(args)?;
    let _cluster_span = obs.span("cluster");

    if args.has("auto-k") {
        if ckpt.is_some() {
            return Err(
                "--checkpoint-dir does not combine with --auto-k: the silhouette sweep \
                 runs one clustering per candidate k over a single checkpoint stage"
                    .into(),
            );
        }
        // Sweep k with silhouette (CAFC-C inner loop; CAFC-CH would re-pick
        // identical hub seeds for every k below the candidate count).
        let (k, partition, scores) = choose_k(&space, 2..=16, |k| {
            let mut rng = StdRng::seed_from_u64(seed);
            let seeds = random_singleton_seeds(&space, k, &mut rng);
            kmeans(&space, &seeds, &KMeansOptions::default(), policy, obs).partition
        })
        .ok_or("no valid k in 2..=16 for this corpus")?;
        println!("auto-k: chose k = {k} (silhouette sweep: {scores:?})");
        return Ok(partition);
    }

    let k = args.get_usize("k", 8)?;
    if k == 0 || k > prepared.targets.len() {
        return Err(format!(
            "--k {k} out of range for {} pages",
            prepared.targets.len()
        ));
    }
    if let Some(opts) = &ckpt {
        if !matches!(algorithm, "cafc-c" | "hac") {
            return Err(format!(
                "--checkpoint-dir supports --algorithm cafc-c and hac; {algorithm} does \
                 not checkpoint"
            ));
        }
        if opts.resume {
            println!("resuming from checkpoint dir {}", opts.dir.display());
        } else {
            println!("checkpointing to {}", opts.dir.display());
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let partition = match algorithm {
        "cafc-ch" => {
            let config = CafcChConfig::paper_default(k).with_hub(HubClusterOptions {
                min_cardinality: args.get_usize("min-cardinality", 8)?,
                ..HubClusterOptions::default()
            });
            let out = cafc_ch(
                &prepared.web.graph,
                &prepared.targets,
                &space,
                &config,
                &mut rng,
                policy,
                obs,
            );
            println!(
                "CAFC-CH: {} hub seeds, {} padded, {} iterations",
                out.hub_seeds, out.padded_seeds, out.outcome.iterations
            );
            out.outcome.partition
        }
        "cafc-c" => match &ckpt {
            None => cafc_c(&space, k, &KMeansOptions::default(), &mut rng, policy, obs).partition,
            Some(opts) => {
                // Exactly `cafc_c` (random singleton seeds, then the
                // paper's k-means) with the iteration loop journaled, so a
                // resumed run is bit-identical to an uncheckpointed one.
                let mut store = open_store(opts, obs)?;
                let seeds = random_singleton_seeds(&space, k, &mut rng);
                kmeans_resumable(
                    &space,
                    &seeds,
                    &KMeansOptions::default(),
                    policy,
                    obs,
                    &mut store,
                    opts.resume,
                )
                .map_err(|e| format!("checkpointed k-means: {e}"))?
                .partition
            }
        },
        "hac" => {
            let hac_opts = HacOptions {
                target_clusters: k,
                linkage: Linkage::Average,
            };
            match &ckpt {
                None => hac(&space, &[], &hac_opts, policy, obs),
                Some(opts) => {
                    let mut store = open_store(opts, obs)?;
                    hac_resumable(&space, &[], &hac_opts, policy, obs, &mut store, opts.resume)
                        .map_err(|e| format!("checkpointed HAC: {e}"))?
                }
            }
        }
        "bisect" => bisecting_kmeans(
            &space,
            &BisectOptions {
                target_clusters: k,
                ..Default::default()
            },
            &mut rng,
            policy,
            obs,
        ),
        other => return Err(format!("unknown --algorithm {other:?}")),
    };
    Ok(partition)
}

/// Serialize cluster assignments: `{"clusters": [[urls...], ...]}`.
fn clusters_json(prepared: &Prepared, partition: &Partition) -> String {
    // Empty clusters are dropped on write (and again on read in `eval`), so
    // cluster positions agree between the two ends of the file.
    let clusters: Vec<Value> = partition
        .clusters()
        .iter()
        .filter(|members| !members.is_empty())
        .map(|members| {
            Value::Array(
                members
                    .iter()
                    .map(|&m| {
                        Value::String(prepared.web.graph.url(prepared.targets[m]).to_string())
                    })
                    .collect(),
            )
        })
        .collect();
    let mut out = Value::object([("clusters", Value::Array(clusters))]).render_pretty();
    out.push('\n');
    out
}

/// `cafc cluster`.
pub fn cluster(args: &Args) -> Result<(), String> {
    let policy = args.get_threads()?;
    let obs = build_obs(args, policy);
    let prepared = prepare(args.require("input")?, policy, &obs)?;
    let partition = run_clustering(&prepared, args, policy, &obs)?;

    let index = ClusterIndex::from_graph(
        &prepared.corpus,
        &partition,
        &prepared.web.graph,
        &prepared.targets,
        6,
    );
    for summary in index.summaries() {
        if summary.entries.is_empty() {
            continue;
        }
        println!(
            "cluster {:>2}: {:>4} pages  {}",
            summary.cluster,
            summary.entries.len(),
            summary.label
        );
    }

    if let Some(out) = args.get("out") {
        std::fs::write(out, clusters_json(&prepared, &partition))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(report) = args.get("report") {
        std::fs::write(report, html_report(&index))
            .map_err(|e| format!("writing {report}: {e}"))?;
        println!("wrote {report}");
    }

    // If the manifest carries gold labels, score for free.
    let labels = prepared.web.form_page_labels();
    if labels.iter().any(|l| l != "unknown") {
        print_quality(partition.clusters(), &labels);
    }
    emit_obs(args, &obs)?;
    Ok(())
}

fn print_quality(clusters: &[Vec<usize>], labels: &[String]) {
    println!(
        "gold-standard quality: entropy {:.3}  F {:.3}  NMI {:.3}  ARI {:.3}",
        cafc_eval::entropy(clusters, labels, cafc_eval::EntropyBase::Two),
        cafc_eval::f_measure(clusters, labels),
        cafc_eval::nmi(clusters, labels),
        cafc_eval::adjusted_rand_index(clusters, labels),
    );
}

/// The `--rank`/`--budget`/`--limit` triple as a
/// [`SearchConfig`] — shared by `search`, `serve` and `loadgen` so the
/// three commands expose identical retrieval knobs.
fn search_config(args: &Args) -> Result<SearchConfig, String> {
    let algorithm = match args.get("rank").unwrap_or("bm25") {
        "bm25" => SearchAlgorithm::Bm25,
        "tfidf" => SearchAlgorithm::TfIdf,
        "fused" => SearchAlgorithm::Fused,
        other => return Err(format!("--rank expects bm25|tfidf|fused, got {other:?}")),
    };
    let mut config = SearchConfig::new()
        .with_algorithm(algorithm)
        .with_k(args.get_count_usize("limit", 10)?);
    if args.get("budget").is_some() {
        config = config.with_budget(Some(args.get_count_usize("budget", 1)?));
    }
    Ok(config)
}

/// Cluster the corpus and stand up a query-ready [`SearchIndex`] — the
/// shared front half of `search`, `serve` and `loadgen`. Returns the
/// prepared corpus alongside so callers can resolve doc ids to entries.
fn build_search_index(
    args: &Args,
    policy: ExecPolicy,
    obs: &Obs,
) -> Result<(Prepared, Partition, SearchIndex), String> {
    // Validate retrieval flags before paying for corpus load + clustering.
    let config = search_config(args)?;
    let prepared = prepare(args.require("input")?, policy, obs)?;
    let partition = run_clustering(&prepared, args, policy, obs)?;
    let index = SearchPipeline::builder()
        .config(config)
        .exec(policy)
        .obs(obs.clone())
        .build()
        .index(&prepared.corpus, Some(&partition));
    Ok((prepared, partition, index))
}

/// `cafc search` — now a thin wrapper over [`cafc::SearchPipeline`]: the
/// cluster-level matches still come from the explorer's directory view,
/// but page ranking goes through the inverted index (BM25 by default;
/// `--rank tfidf` reproduces the original cosine ranking).
pub fn search(args: &Args) -> Result<(), String> {
    let query = args.positional().join(" ");
    if query.trim().is_empty() {
        return Err("search expects a query, e.g. `cafc search --input DIR cheap flights`".into());
    }
    let policy = args.get_threads()?;
    let obs = build_obs(args, policy);
    let (prepared, partition, search_index) = build_search_index(args, policy, &obs)?;
    let index = ClusterIndex::from_graph(
        &prepared.corpus,
        &partition,
        &prepared.web.graph,
        &prepared.targets,
        6,
    );

    println!("clusters matching {query:?}:");
    for hit in index.search(&query).into_iter().take(3) {
        let summary = &index.summaries()[hit.cluster];
        println!(
            "  {:.3}  {} ({} databases)",
            hit.score,
            summary.label,
            summary.entries.len()
        );
    }
    let outcome = search_index.search(&query);
    println!(
        "databases matching {query:?} ({} ranking; scanned {} postings in {} of {} clusters):",
        args.get("rank").unwrap_or("bm25"),
        outcome.stats.postings_scanned,
        outcome.stats.clusters_visited,
        search_index.num_clusters(),
    );
    for hit in &outcome.hits {
        if let Some(entry) = index.entry(hit.doc) {
            println!("  {:.3}  {}  {}", hit.score, entry.title, entry.url);
        }
    }
    emit_obs(args, &obs)?;
    Ok(())
}

/// `cafc serve` — cluster, index, and answer queries over HTTP until a
/// `/shutdown` request arrives.
pub fn serve(args: &Args) -> Result<(), String> {
    let policy = args.get_threads()?;
    // The daemon always records metrics: /metrics is part of its API.
    let obs = Obs::enabled();
    obs.gauge("exec.threads", policy.threads() as f64);
    let port = args.get_u16("port", 7700)?;
    let options = ServeOptions::new()
        .with_workers(args.get_count_usize("workers", 4)?)
        .with_backlog(args.get_count_usize("backlog", 64)?);
    let (_, _, index) = build_search_index(args, policy, &obs)?;
    let server = Server::bind(&format!("127.0.0.1:{port}"), index, obs, options)
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    println!(
        "serving on http://{}/ — GET /search?q=…&k=…, /metrics, /healthz; /shutdown to stop",
        server.addr()
    );
    let accepted = server.run().map_err(|e| format!("serving: {e}"))?;
    println!("served {accepted} connections");
    Ok(())
}

/// `cafc daemon` — the full streaming loop: synthesize a seeded crawl,
/// warm-start clusters on its first pages, then stream the remainder
/// through hardened ingestion and nearest-centroid assignment while
/// answering queries over HTTP from a hot-swapped index. The assignment
/// log is a pure function of `(seed, flags)`: two same-seed runs write
/// byte-identical files.
pub fn daemon(args: &Args) -> Result<(), String> {
    let policy = args.get_threads()?;
    // The daemon always records metrics: /metrics is part of its API.
    let obs = Obs::enabled();
    obs.gauge("exec.threads", policy.threads() as f64);
    let retrieval = search_config(args)?;
    let features = feature_config(args)?;
    let port = args.get_u16("port", 7700)?;
    let pages = args.get_usize("pages", 128)?;
    let seed = args.get_u64("seed", 3)?;
    let k = args.get_usize("k", 6)?;
    let warmup = args.get_count_usize("warmup", 32)?;
    let refresh_every = args.get_count_usize("refresh-every", 16)?;
    let repair_every = args.get_count_usize("repair-every", 32)?;
    let drift_threshold = args.get_positive_f64("drift-threshold", 0.25)?;
    let interval_ms = args.get_u64("interval-ms", 0)?;
    let options = ServeOptions::new()
        .with_workers(args.get_count_usize("workers", 4)?)
        .with_backlog(args.get_count_usize("backlog", 64)?);

    // The synthetic crawl: every form page's HTML, in generation order.
    let web = generate_web(&corpus_config(pages, seed));
    let form_pages: Vec<(String, String)> = web
        .form_pages
        .iter()
        .map(|record| {
            (
                web.graph.url(record.page).to_string(),
                web.graph.html(record.page).unwrap_or_default().to_string(),
            )
        })
        .collect();
    let warmup = warmup.min(form_pages.len());
    if k == 0 || k > warmup {
        return Err(format!(
            "--k {k} out of range for a warm-up of {warmup} pages"
        ));
    }

    // Warm start: batch-build and cluster the first pages conventionally,
    // so streaming begins against meaningful centroids.
    let model_opts = ModelOptions::default();
    let corpus = FormPageCorpus::from_html(
        form_pages[..warmup].iter().map(|(_, html)| html.as_str()),
        &model_opts,
        policy,
        &Obs::disabled(),
    );
    let partition = {
        let space = FormPageSpace::new(&corpus, features);
        let mut rng = StdRng::seed_from_u64(seed);
        cafc_c(&space, k, &KMeansOptions::default(), &mut rng, policy, &obs).partition
    };
    let stream_config = StreamConfig::new()
        .with_feature(features)
        .with_opts(model_opts)
        .with_repair_interval(repair_every)
        .with_drift_threshold(drift_threshold)
        .with_policy(policy);
    let mut stream = StreamCorpus::new(corpus, &partition, stream_config, obs.clone());

    let pipeline = SearchPipeline::builder()
        .config(retrieval)
        .exec(policy)
        .obs(obs.clone())
        .build();
    let shared = SharedIndex::new(pipeline.index(stream.corpus(), Some(&stream.partition())));
    let server = Server::bind_shared(
        &format!("127.0.0.1:{port}"),
        shared.clone(),
        obs.clone(),
        options,
    )
    .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    println!(
        "serving on http://{}/ — GET /search?q=…&k=…, /metrics, /healthz; /shutdown to stop",
        server.addr()
    );
    println!(
        "streaming {} pages after a {warmup}-page warm-up (seed {seed})",
        form_pages.len() - warmup
    );
    let runner = std::thread::spawn(move || server.run());

    // Stream the rest of the crawl. The HTTP workers answer from the last
    // published snapshot throughout; every refresh boundary swaps in an
    // index that includes the pages streamed since the previous one.
    let mut log = format!(
        "# cafc daemon seed={seed} pages={pages} warmup={warmup} k={k} \
         repair={repair_every} refresh={refresh_every}\n"
    );
    let mut pending = 0usize;
    let mut refreshes = 0u64;
    for (url, html) in &form_pages[warmup..] {
        let arrival = stream.ingest_html(html);
        let status = match &arrival.outcome {
            cafc::PageOutcome::Ok => "ok",
            cafc::PageOutcome::Degraded { .. } => "degraded",
            cafc::PageOutcome::Quarantined { .. } => "quarantined",
        };
        let cluster = arrival
            .cluster
            .map_or_else(|| "-".to_string(), |c| c.to_string());
        log.push_str(&format!(
            "{}\t{url}\t{status}\t{cluster}\n",
            stream.streamed()
        ));
        if let (Some(drift), Some(moved)) = (arrival.drift, arrival.moved) {
            log.push_str(&format!(
                "#repair\tdrift={drift:.6}\tmoved={moved}\treclustered={}\n",
                arrival.reclustered
            ));
        }
        if arrival.page.is_some() {
            pending += 1;
        }
        if pending >= refresh_every {
            shared.replace(pipeline.index(stream.corpus(), Some(&stream.partition())));
            obs.incr("stream.index_refreshes");
            refreshes += 1;
            pending = 0;
            log.push_str(&format!("#refresh\tcorpus={}\n", stream.corpus().len()));
        }
        if interval_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    if pending > 0 {
        shared.replace(pipeline.index(stream.corpus(), Some(&stream.partition())));
        obs.incr("stream.index_refreshes");
        refreshes += 1;
        log.push_str(&format!("#refresh\tcorpus={}\n", stream.corpus().len()));
    }
    if let Some(path) = args.get("assignments") {
        std::fs::write(path, &log).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "streamed {} pages ({} kept in {} clusters, {refreshes} index refreshes); \
         serving until /shutdown",
        stream.streamed(),
        stream.corpus().len(),
        stream.partition().num_clusters(),
    );
    let accepted = runner
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serving: {e}"))?;
    println!("served {accepted} connections");
    Ok(())
}

/// `cafc loadgen` — replay a seeded open-loop query stream against the
/// index and report throughput, tail latency and routed-vs-full quality.
pub fn loadgen(args: &Args) -> Result<(), String> {
    let policy = args.get_threads()?;
    let obs = build_obs(args, policy);
    // Validate every loadgen flag before paying for corpus + clustering.
    let retrieval = search_config(args)?;
    let config = LoadgenConfig::new()
        .with_seed(args.get_u64("seed", 1)?)
        .with_rate(args.get_positive_f64("rate", 200.0)?)
        .with_duration_ms(args.get_count_u64("duration-ms", 1_000)?)
        .with_k(args.get_count_usize("limit", 10)?)
        .with_vocab(args.get_count_usize("vocab", 256)?)
        .with_workers(args.get_count_usize("workers", 4)?);
    let prepared = prepare(args.require("input")?, policy, &obs)?;
    let partition = run_clustering(&prepared, args, policy, &obs)?;
    let build_start = std::time::Instant::now();
    let index = SearchPipeline::builder()
        .config(retrieval)
        .exec(policy)
        .obs(obs.clone())
        .build()
        .index(&prepared.corpus, Some(&partition));
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let report = loadgen::run(&index, &config, &obs, build_ms);

    println!(
        "loadgen: {} queries at {} qps offered ({:.0} achieved) over {} ms",
        report.queries, report.offered_qps, report.achieved_qps, config.duration_ms
    );
    println!(
        "latency: p50 {:.0} µs  p99 {:.0} µs  p999 {:.0} µs",
        report.p50_us, report.p99_us, report.p999_us
    );
    println!(
        "quality: recall@10 {:.4} vs brute force; {} routed postings vs {} full ({:.1}% scanned)",
        report.recall_at_10,
        report.routed_postings,
        report.full_postings,
        if report.full_postings > 0 {
            100.0 * report.routed_postings as f64 / report.full_postings as f64
        } else {
            100.0
        }
    );
    println!(
        "index: {} docs, {} postings, built in {:.1} ms ({:.0} pages/sec)",
        report.index_docs, report.index_postings, report.index_build_ms, report.pages_per_sec
    );
    println!(
        "stream {:016x}  results {:016x}  (seed {})",
        report.stream_hash, report.results_hash, report.seed
    );
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.render_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("digest") {
        std::fs::write(path, report.render_digest()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    emit_obs(args, &obs)?;
    Ok(())
}

/// `cafc eval` — score a clusters.json against manifest labels.
pub fn eval(args: &Args) -> Result<(), String> {
    let input = args.require("input")?;
    let prepared = prepare(input, args.get_threads()?, &Obs::disabled())?;
    let clusters_path = args.require("clusters")?;
    let json = std::fs::read_to_string(clusters_path)
        .map_err(|e| format!("reading {clusters_path}: {e}"))?;

    let doc = json::parse(&json).map_err(|e| format!("parsing {clusters_path}: {e}"))?;
    let cluster_arrays = doc
        .get("clusters")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{clusters_path} has no top-level \"clusters\" array"))?;

    // Map URLs back to item indices.
    let url_to_item: std::collections::HashMap<String, usize> = prepared
        .targets
        .iter()
        .enumerate()
        .map(|(i, &p)| (prepared.web.graph.url(p).to_string(), i))
        .collect();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut skipped = 0usize;
    for (i, entry) in cluster_arrays.iter().enumerate() {
        let urls = entry
            .as_array()
            .ok_or_else(|| format!("cluster {i} in {clusters_path} is not an array"))?;
        let mut members = Vec::new();
        for url in urls {
            let url = url.as_str().ok_or_else(|| {
                format!("cluster {i} in {clusters_path} contains a non-string entry")
            })?;
            match url_to_item.get(url) {
                Some(&item) => members.push(item),
                None => {
                    // A clusters file from another corpus (or a stale one)
                    // should degrade the score, not abort the evaluation.
                    skipped += 1;
                    eprintln!("warning: skipping unknown URL {url:?} (not a form page in {input})");
                }
            }
        }
        clusters.push(members);
    }
    if skipped > 0 {
        eprintln!("warning: {skipped} URL(s) in {clusters_path} were not in the corpus");
    }

    // Reject malformed clusterings (duplicate or impossible assignments)
    // before any metric silently double-counts them, then normalize away
    // empty clusters exactly as the writer does.
    cafc_eval::validate_clusters(&clusters, prepared.targets.len())
        .map_err(|e| format!("{clusters_path}: invalid clustering: {e}"))?;
    let clusters = cafc_eval::drop_empty_clusters(clusters);

    let labels = prepared.web.form_page_labels();
    if labels.iter().all(|l| l == "unknown") {
        return Err("manifest has no gold labels to evaluate against".into());
    }
    print_quality(&clusters, &labels);
    Ok(())
}

/// Clustering quality of one crawl's survivors.
struct SurvivorQuality {
    entropy: f64,
    f_measure: f64,
    clusters: usize,
}

/// Cluster a crawl's searchable-form survivors with CAFC-CH and score
/// against the corpus's gold domain labels. `None` when too few pages
/// survived to cluster at all.
fn cluster_survivors(
    web: &SyntheticWeb,
    survivors: &[PageId],
    k: usize,
    seed: u64,
    policy: ExecPolicy,
    obs: &Obs,
) -> Option<SurvivorQuality> {
    if survivors.len() < 2 {
        return None;
    }
    let k = k.clamp(1, survivors.len());
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        survivors,
        &ModelOptions::default(),
        false,
        policy,
        obs,
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(seed);
    let config = CafcChConfig::paper_default(k).with_hub(HubClusterOptions {
        min_cardinality: 4,
        ..Default::default()
    });
    let result = cafc_ch(
        &web.graph, survivors, &space, &config, &mut rng, policy, obs,
    );
    let labels: Vec<&str> = survivors
        .iter()
        .map(|p| {
            web.form_pages
                .iter()
                .find(|r| r.page == *p)
                .map(|r| r.domain.name())
                .unwrap_or("unknown")
        })
        .collect();
    let clusters = result.outcome.partition.clusters();
    Some(SurvivorQuality {
        entropy: cafc_eval::entropy(clusters, &labels, cafc_eval::EntropyBase::Two),
        f_measure: cafc_eval::f_measure(clusters, &labels),
        clusters: clusters.iter().filter(|c| !c.is_empty()).count(),
    })
}

fn run_faulty(
    web: &SyntheticWeb,
    fault: &FaultConfig,
    config: &ResilientConfig,
    obs: &Obs,
) -> ResilientCrawlOutcome {
    let mut fetcher = ChaosFetcher::over_graph(&web.graph, *fault);
    crawl_resilient(&web.graph, &mut fetcher, web.portal, config, obs)
}

/// `cafc crawl` — crawl a synthetic corpus under injected faults, cluster
/// the surviving databases, and report how much quality degraded relative
/// to a fault-free crawl of the same web.
pub fn crawl(args: &Args) -> Result<(), String> {
    let policy = args.get_threads()?;
    let obs = build_obs(args, policy);
    let corpus_seed = args.get_u64("corpus-seed", 99)?;
    let pages = args.get_usize("pages", 0)?;
    let corpus_cfg = if pages == 0 {
        CorpusConfig::small(corpus_seed)
    } else {
        corpus_config(pages, corpus_seed)
    };
    let web = generate_web(&corpus_cfg);

    let fault = FaultConfig {
        transient_rate: args.get_rate("fault-rate", 0.2)?,
        permanent_rate: args.get_rate("permanent-rate", 0.0)?,
        truncate_rate: args.get_rate("truncate-rate", 0.0)?,
        redirect_rate: args.get_rate("redirect-rate", 0.0)?,
        seed: args.get_u64("seed", 7)?,
        ..FaultConfig::default()
    };
    let limits = CrawlConfig {
        max_pages: args.get_usize("max-pages", CrawlConfig::default().max_pages)?,
        max_depth: args.get_usize("max-depth", CrawlConfig::default().max_depth)?,
    };
    let resilient = ResilientConfig {
        crawl: limits,
        retry: RetryPolicy {
            max_retries: args.get_u32("max-retries", RetryPolicy::default().max_retries)?,
            ..RetryPolicy::default()
        },
        breaker: BreakerConfig {
            failure_threshold: args.get_u32(
                "breaker-threshold",
                BreakerConfig::default().failure_threshold,
            )?,
            cooldown_ms: args
                .get_u64("breaker-cooldown-ms", BreakerConfig::default().cooldown_ms)?,
            ..BreakerConfig::default()
        },
        ..ResilientConfig::default()
    };
    let k = args.get_usize("k", 8)?;
    let ckpt = checkpoint_opts(args)?;
    if ckpt.is_some() && args.has("sweep") {
        return Err(
            "--checkpoint-dir does not combine with --sweep: the sweep runs six crawls \
             over a single checkpoint stage"
                .into(),
        );
    }

    // The fault-free crawl of the same web is the baseline everything is
    // measured against.
    let clean = crawl_bfs(&web.graph, web.portal, &limits);
    let baseline = clean.searchable_form_pages.len().max(1);
    println!(
        "corpus: {} form pages over {} hub pages (corpus seed {})",
        web.form_pages.len(),
        web.hubs.len(),
        corpus_seed,
    );
    println!(
        "baseline (no faults): visited {} pages, {} searchable-form pages",
        clean.visited.len(),
        clean.searchable_form_pages.len(),
    );
    // The baseline runs uninstrumented so the metrics describe only the
    // faulty crawl being examined.
    let clean_quality = cluster_survivors(
        &web,
        &clean.searchable_form_pages,
        k,
        fault.seed,
        policy,
        &Obs::disabled(),
    );
    if let Some(q) = &clean_quality {
        println!(
            "baseline quality:     entropy {:.3}  F {:.3}  ({} clusters)",
            q.entropy, q.f_measure, q.clusters
        );
    }

    if args.has("sweep") {
        let mut rows = Vec::new();
        for step in 0..=5u32 {
            let rate = f64::from(step) / 10.0;
            let cfg = FaultConfig {
                transient_rate: rate,
                ..fault
            };
            let outcome = run_faulty(&web, &cfg, &resilient, &obs);
            let survivors = &outcome.pages.searchable_form_pages;
            let quality = cluster_survivors(&web, survivors, k, fault.seed, policy, &obs);
            // Too few survivors to cluster leaves the metrics undefined;
            // say so explicitly rather than printing NaN columns.
            let (entropy, f_measure) = match &quality {
                Some(q) => (format!("{:.3}", q.entropy), format!("{:.3}", q.f_measure)),
                None => {
                    eprintln!(
                        "warning: fault rate {rate:.1}: {} survivor(s) — too few to \
                         cluster, metrics undefined",
                        survivors.len()
                    );
                    ("—".to_owned(), "—".to_owned())
                }
            };
            rows.push(vec![
                format!("{rate:.1}"),
                format!("{:.1}%", 100.0 * survivors.len() as f64 / baseline as f64),
                entropy,
                f_measure,
                outcome.stats.attempts.to_string(),
                outcome.stats.retries.to_string(),
                outcome.stats.abandoned.to_string(),
            ]);
        }
        println!();
        print!(
            "{}",
            render_kv_table(
                &[
                    "fault-rate",
                    "recovered",
                    "entropy",
                    "F-measure",
                    "attempts",
                    "retries",
                    "abandoned",
                ],
                &rows,
            )
        );
        emit_obs(args, &obs)?;
        return Ok(());
    }

    println!();
    let outcome = match &ckpt {
        None => run_faulty(&web, &fault, &resilient, &obs),
        Some(opts) => {
            if opts.resume {
                println!("resuming from checkpoint dir {}", opts.dir.display());
            } else {
                println!("checkpointing to {}", opts.dir.display());
            }
            let mut store = open_store(opts, &obs)?;
            let mut fetcher = ChaosFetcher::over_graph(&web.graph, fault);
            crawl_resumable(
                &web.graph,
                &mut fetcher,
                web.portal,
                &resilient,
                &obs,
                &mut store,
                opts.resume,
            )
            .map_err(|e| format!("checkpointed crawl: {e}"))?
        }
    };
    let survivors = &outcome.pages.searchable_form_pages;
    println!("{}", outcome.stats);
    if !outcome.stats.is_accounted() {
        return Err("crawl accounting identity violated — this is a bug".into());
    }
    println!(
        "faulty crawl (transient {:.0}%): visited {} pages, {} searchable-form pages \
         ({:.1}% of baseline recovered)",
        fault.transient_rate * 100.0,
        outcome.pages.visited.len(),
        survivors.len(),
        100.0 * survivors.len() as f64 / baseline as f64,
    );
    match (
        clean_quality,
        cluster_survivors(&web, survivors, k, fault.seed, policy, &obs),
    ) {
        (Some(clean_q), Some(faulty_q)) => {
            println!(
                "faulty quality:       entropy {:.3}  F {:.3}  ({} clusters)",
                faulty_q.entropy, faulty_q.f_measure, faulty_q.clusters
            );
            println!(
                "degradation:          entropy {:+.3}  F {:+.3}",
                faulty_q.entropy - clean_q.entropy,
                faulty_q.f_measure - clean_q.f_measure,
            );
        }
        (_, None) => println!("too few survivors to cluster — no quality to report"),
        (None, Some(_)) => {}
    }
    emit_obs(args, &obs)?;
    Ok(())
}

/// Cluster an ingested (possibly partial) corpus with seeded k-means and
/// score it against the gold labels of the pages that were kept. `None`
/// when too few pages survived ingestion to cluster.
fn cluster_ingested(
    corpus: &FormPageCorpus,
    report: &IngestReport,
    labels: &[&str],
    k: usize,
    seed: u64,
    policy: ExecPolicy,
    obs: &Obs,
) -> Option<SurvivorQuality> {
    if corpus.len() < 2 {
        return None;
    }
    let kept_labels: Vec<&str> = report
        .kept
        .iter()
        .map(|&i| labels.get(i).copied().unwrap_or("unknown"))
        .collect();
    let k = k.clamp(1, corpus.len());
    let space = FormPageSpace::new(corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(seed);
    let seeds = random_singleton_seeds(&space, k, &mut rng);
    let outcome = kmeans(&space, &seeds, &KMeansOptions::default(), policy, obs);
    let clusters = outcome.partition.clusters();
    Some(SurvivorQuality {
        entropy: cafc_eval::entropy(clusters, &kept_labels, cafc_eval::EntropyBase::Two),
        f_measure: cafc_eval::f_measure(clusters, &kept_labels),
        clusters: clusters.iter().filter(|c| !c.is_empty()).count(),
    })
}

/// `cafc torture` — mutate a synthetic corpus with seeded adversarial HTML
/// and push every page through the hardened ingestion pipeline, reporting
/// per-outcome counts (ok / degraded / quarantined), degradation reasons,
/// and clustering-quality deltas versus the clean corpus. The run must
/// complete without a panic for any mutation mix — that is the contract
/// under test.
pub fn torture(args: &Args) -> Result<(), String> {
    let policy = args.get_threads()?;
    let obs = build_obs(args, policy);
    let corpus_seed = args.get_u64("corpus-seed", 99)?;
    let seed = args.get_u64("seed", 7)?;
    let pages = args.get_usize("pages", 0)?;
    let k = args.get_usize("k", 8)?;
    let per_page = args.get_usize("mutations-per-page", 2)?;
    let menu = Mutation::parse_list(args.get("mutations").unwrap_or("all"))?;

    let corpus_cfg = if pages == 0 {
        CorpusConfig::small(corpus_seed)
    } else {
        corpus_config(pages, corpus_seed)
    };
    let web = generate_web(&corpus_cfg);
    let targets = web.form_page_ids();
    let labels: Vec<&str> = web.form_pages.iter().map(|r| r.domain.name()).collect();
    let htmls: Vec<&str> = targets
        .iter()
        .map(|p| web.graph.html(*p).unwrap_or(""))
        .collect();

    let menu_names: Vec<&str> = menu.iter().map(|m| m.label()).collect();
    println!(
        "torture: {} form pages (corpus seed {corpus_seed}), {} mutation(s)/page from \
         [{}], mutation seed {seed}",
        targets.len(),
        per_page,
        menu_names.join(", "),
    );

    let mutated: Vec<String> = htmls
        .iter()
        .enumerate()
        .map(|(i, html)| mutate_page(html, &menu, per_page, &mut page_rng(seed, i)))
        .collect();

    let limits = IngestLimits::default();
    let opts = ModelOptions::default();
    // Only the mutated run is instrumented: the metrics describe the
    // torture ingestion, not the clean baseline it is compared against.
    let (clean_corpus, clean_report) =
        FormPageCorpus::from_shards([&htmls], &opts, &limits, policy, &Obs::disabled());
    let (torture_corpus, report) =
        FormPageCorpus::from_shards([&mutated], &opts, &limits, policy, &obs);

    println!();
    print!(
        "{}",
        render_kv_table(
            &["outcome", "pages"],
            &[
                vec!["ok".to_owned(), report.ok().to_string()],
                vec!["degraded".to_owned(), report.degraded().to_string()],
                vec!["quarantined".to_owned(), report.quarantined().to_string()],
                vec!["total".to_owned(), report.total().to_string()],
            ],
        )
    );
    if !report.is_accounted() {
        return Err("ingest accounting identity violated — this is a bug".into());
    }
    println!("accounting: ok + degraded + quarantined == total");

    let reasons = report.reason_counts();
    if reasons.iter().any(|(_, n)| *n > 0) {
        println!();
        println!("degradation reasons (pages affected):");
        for (reason, n) in reasons {
            if n > 0 {
                println!("  {:<24} {n:>5}", reason.label());
            }
        }
    }

    println!();
    let clean_q = cluster_ingested(
        &clean_corpus,
        &clean_report,
        &labels,
        k,
        seed,
        policy,
        &Obs::disabled(),
    );
    let torture_q = cluster_ingested(&torture_corpus, &report, &labels, k, seed, policy, &obs);
    match (clean_q, torture_q) {
        (Some(c), Some(t)) => {
            println!(
                "clean quality:    entropy {:.3}  F {:.3}  ({} clusters, {} pages)",
                c.entropy,
                c.f_measure,
                c.clusters,
                clean_corpus.len(),
            );
            println!(
                "torture quality:  entropy {:.3}  F {:.3}  ({} clusters, {} survivors)",
                t.entropy,
                t.f_measure,
                t.clusters,
                torture_corpus.len(),
            );
            println!(
                "degradation:      entropy {:+.3}  F {:+.3}",
                t.entropy - c.entropy,
                t.f_measure - c.f_measure,
            );
        }
        (_, None) => println!(
            "too few survivors to cluster ({} kept) — no quality to report",
            torture_corpus.len()
        ),
        (None, Some(_)) => {}
    }
    emit_obs(args, &obs)?;
    Ok(())
}

/// One timed end-to-end run (model construction + CAFC-CH) under `policy`.
fn timed_run(
    web: &SyntheticWeb,
    targets: &[PageId],
    k: usize,
    seed: u64,
    policy: ExecPolicy,
    obs: &Obs,
) -> (std::time::Duration, Partition) {
    let start = std::time::Instant::now();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        targets,
        &ModelOptions::default(),
        false,
        policy,
        obs,
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let mut rng = StdRng::seed_from_u64(seed);
    let out = cafc_ch(
        &web.graph,
        targets,
        &space,
        &CafcChConfig::paper_default(k),
        &mut rng,
        policy,
        obs,
    );
    (start.elapsed(), out.outcome.partition)
}

/// The `--json`/`--digest` batch-bench mode: one seeded sharded-corpus →
/// k-means run through `cafc::run_bench`, reported as the `BENCH_<n>.json`
/// stable schema (full report) and/or the seed-determined digest the CI
/// smoke job diffs.
fn bench_batch(args: &Args) -> Result<(), String> {
    let pages = args.get_usize("pages", 1_000)?;
    let shard_pages = args.get_count_usize("shard-pages", 1_024)?;
    let seed = args.get_u64("seed", 0)?;
    let k = args.get_usize("k", 8)?;
    let hac_sample = args.get_usize("hac-sample", 200)?;
    let max_corpus_bytes = args.get_usize("max-corpus-bytes", usize::MAX)?;
    let policy = args.get_threads()?;
    let config = BenchConfig::new()
        .with_pages(pages)
        .with_shard_pages(shard_pages)
        .with_seed(seed)
        .with_k(k)
        .with_hac_sample(hac_sample)
        .with_max_corpus_bytes(max_corpus_bytes)
        .with_threads(policy.threads());
    let corpus_cfg = ShardedCorpusConfig::new()
        .with_total_form_pages(pages)
        .with_shard_pages(shard_pages)
        .with_seed(seed);
    let num_shards = corpus_cfg.num_shards();
    let report = cafc_run_bench(&config, |s| {
        if s >= num_shards {
            None
        } else {
            Some(generate_shard(&corpus_cfg, s))
        }
    });
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.render_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("digest") {
        std::fs::write(path, report.render_digest()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "batch bench: {} pages, seed {seed}, k {k}, {} thread(s) — {:.1} ms total",
        report.pages, report.threads, report.total_wall_ms
    );
    for s in &report.stages {
        println!(
            "  {:<10} {:>10.1} ms  {:>12.0} pages/s  ({} items)",
            s.name, s.wall_ms, s.pages_per_sec, s.items
        );
    }
    println!(
        "  kept {} / degraded {} / quarantined {}; {} terms; assignment {:016x}",
        report.pages_ok,
        report.pages_degraded,
        report.pages_quarantined,
        report.dict_terms,
        report.assignment_hash
    );
    Ok(())
}

/// `cafc bench` — two modes. With `--json`/`--digest`: one seeded
/// sharded-corpus batch run (gen → ingest → vectorize → sparse k-means →
/// HAC-on-sample) written as the stable `BENCH_<n>.json` schema. Without:
/// serial vs parallel wall-clock for the full pipeline (vectorization +
/// CAFC-CH) at several corpus sizes. The policies must produce
/// byte-identical partitions — the determinism contract of the execution
/// layer — or the benchmark aborts.
pub fn bench(args: &Args) -> Result<(), String> {
    if args.get("json").is_some() || args.get("digest").is_some() {
        return bench_batch(args);
    }
    let seed = args.get_u64("seed", 3)?;
    let k = args.get_usize("k", 8)?;
    let parallel = args.get_threads()?;
    // Only the parallel leg is instrumented: the serial leg is the timing
    // baseline, and metrics like `ingest.chunk_us` should describe the
    // policy under examination.
    let obs = build_obs(args, parallel);
    let sizes: Vec<usize> = match args.get("sizes") {
        None => vec![120, 240, 480, 960],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--sizes expects comma-separated numbers, got {s:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    if sizes.is_empty() {
        return Err("--sizes expects at least one corpus size".into());
    }

    let threads_label = match parallel {
        ExecPolicy::Parallel { threads } => format!("{threads} thread(s)"),
        _ => format!("auto ({} thread(s))", parallel.threads()),
    };
    println!("bench: serial vs parallel [{threads_label}], k = {k}, seed {seed}");
    let mut rows = Vec::new();
    for &pages in &sizes {
        let web = generate_web(&corpus_config(pages, seed));
        let targets = web.form_page_ids();
        let (serial_t, serial_p) = timed_run(
            &web,
            &targets,
            k,
            seed,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let (parallel_t, parallel_p) = timed_run(&web, &targets, k, seed, parallel, &obs);
        let identical = serial_p == parallel_p;
        rows.push(vec![
            targets.len().to_string(),
            format!("{:.1}", serial_t.as_secs_f64() * 1e3),
            format!("{:.1}", parallel_t.as_secs_f64() * 1e3),
            format!(
                "{:.2}x",
                serial_t.as_secs_f64() / parallel_t.as_secs_f64().max(1e-9)
            ),
            (if identical { "yes" } else { "NO" }).to_owned(),
        ]);
        if !identical {
            return Err(format!(
                "policies diverged at {pages} pages — determinism contract violated, this is a bug"
            ));
        }
    }
    println!();
    print!(
        "{}",
        render_kv_table(
            &["pages", "serial_ms", "parallel_ms", "speedup", "identical"],
            &rows,
        )
    );
    emit_obs(args, &obs)?;
    Ok(())
}

/// The number of distinct oracle failures in a replay/report, rendered
/// for humans: one line per failing entry.
fn render_fuzz_failures(failing: &[(String, Vec<cafc_fuzz::OracleFailure>)]) -> String {
    failing
        .iter()
        .flat_map(|(name, failures)| {
            failures
                .iter()
                .map(move |f| format!("  {name}: {} — {}", f.oracle.label(), f.detail))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

pub fn fuzz(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 0xCAFC)?;
    let corpus_dir = args.get("corpus").unwrap_or("fuzz/corpus").to_owned();
    let regressions_dir = args
        .get("regressions")
        .unwrap_or("fuzz/regressions")
        .to_owned();

    // Replay mode: re-execute a stored directory through the oracle
    // battery and stop. An empty or missing directory is an error — a
    // replay that silently checks nothing must not report green.
    if let Some(dir) = args.get("replay") {
        let entries = cafc_fuzz::load_dir(Path::new(dir))
            .map_err(|e| format!("--replay {dir}: cannot read directory: {e}"))?;
        if entries.is_empty() {
            return Err(format!("--replay {dir}: no .html entries to replay"));
        }
        let failing = cafc_fuzz::replay(&entries, seed);
        if failing.is_empty() {
            println!(
                "fuzz replay: {} entries from {dir}: all green",
                entries.len()
            );
            return Ok(());
        }
        return Err(format!(
            "fuzz replay: {} of {} entries failed:\n{}",
            failing.len(),
            entries.len(),
            render_fuzz_failures(&failing),
        ));
    }

    // Seed-writing mode: persist the built-in seed set (pathological table
    // + base page + fixed-seed torture variants) to the corpus directory.
    if args.has("write-seeds") {
        let max_input_len = args.get_count_usize("max-input-len", 64 * 1024)?;
        let seeds = cafc_fuzz::builtin_seeds();
        let count = seeds.len();
        for input in &seeds {
            // Store exactly what the engine would execute under this cap.
            let capped = cafc_fuzz::truncate_to(input, max_input_len);
            cafc_fuzz::write_entry(Path::new(&corpus_dir), &capped)
                .map_err(|e| format!("writing seed to {corpus_dir}: {e}"))?;
        }
        println!("fuzz: wrote {count} built-in seeds to {corpus_dir}");
        return Ok(());
    }

    let budget_iters = args.get_count_u64("budget-iters", 500)?;
    let budget_ms = match args.get("budget-ms") {
        None => None,
        Some(_) => Some(args.get_count_u64("budget-ms", 1)?),
    };
    let max_input_len = args.get_count_usize("max-input-len", 64 * 1024)?;
    let cfg = cafc_fuzz::FuzzConfig::new()
        .with_seed(seed)
        .with_budget_iters(budget_iters)
        .with_budget_ms(budget_ms)
        .with_max_input_len(max_input_len);

    // Stored corpus entries join the built-in seeds; a missing corpus
    // directory just means "first run".
    let extra: Vec<String> = match cafc_fuzz::load_dir(Path::new(&corpus_dir)) {
        Ok(entries) => entries.into_iter().map(|(_, contents)| contents).collect(),
        Err(_) => Vec::new(),
    };

    // A/B mode: the coverage-guidance ablation at the same budget.
    if args.has("ab") {
        let (guided, unguided) = cafc_fuzz::ab_compare(&cfg, extra);
        println!("fuzz A/B: seed {seed}, {budget_iters} iterations");
        let row = |label: &str, r: &cafc_fuzz::FuzzReport| {
            vec![
                label.to_owned(),
                r.unique_edges.to_string(),
                r.corpus_size.to_string(),
                r.added.len().to_string(),
                r.executions.to_string(),
            ]
        };
        print!(
            "{}",
            render_kv_table(
                &["mode", "unique-edges", "corpus", "added", "executions"],
                &[row("guided:", &guided), row("unguided:", &unguided)],
            )
        );
        return Ok(());
    }

    let report = cafc_fuzz::run(&cfg, extra);

    // Persist coverage-novel inputs and minimized failures.
    for input in &report.added {
        cafc_fuzz::write_entry(Path::new(&corpus_dir), input)
            .map_err(|e| format!("writing corpus entry to {corpus_dir}: {e}"))?;
    }
    for failure in &report.failures {
        cafc_fuzz::write_regression(
            Path::new(&regressions_dir),
            &failure.minimized,
            failure.oracle.label(),
            &failure.detail,
            seed,
            failure.iteration.unwrap_or(0),
        )
        .map_err(|e| format!("writing regression to {regressions_dir}: {e}"))?;
    }

    // The deterministic run summary: a pure function of (seed, seeds,
    // budget-iters) when no wall-clock budget is set.
    println!(
        "fuzz: seed {seed} iterations {} executions {} corpus {} added {} \
         unique-edges {} coverage-hash {:016x} failures {}",
        report.iterations,
        report.executions,
        report.corpus_size,
        report.added.len(),
        report.unique_edges,
        report.coverage_hash,
        report.failures.len(),
    );
    if report.failures.is_empty() {
        Ok(())
    } else {
        let failing: Vec<(String, Vec<cafc_fuzz::OracleFailure>)> = report
            .failures
            .iter()
            .map(|f| {
                (
                    cafc_fuzz::entry_name(&f.minimized),
                    vec![cafc_fuzz::OracleFailure {
                        oracle: f.oracle,
                        detail: f.detail.clone(),
                    }],
                )
            })
            .collect();
        Err(format!(
            "fuzz: {} oracle failure(s), minimized witnesses written to {regressions_dir}:\n{}",
            report.failures.len(),
            render_fuzz_failures(&failing),
        ))
    }
}

/// One pipeline stage under `crash-test`: runs the whole stage against
/// the given store (fresh or resuming) and returns a digest of its
/// complete outcome. Digests are `Debug` renderings of every output
/// field, so "equal digests" means bit-identical results.
type StageRun<'a> = Box<dyn Fn(&mut Store, bool) -> Result<String, StoreError> + 'a>;

/// `cafc crash-test` — sweep every pipeline stage (crawl, ingest,
/// k-means, HAC) against every injected I/O fault kind: run each stage
/// with a fault planted at each of the first `--points` mutating store
/// operations, then resume on the real filesystem and require the result
/// to be bit-identical to an uninterrupted baseline. Error faults crash
/// the run mid-flight; silent faults (short writes, bit flips) complete
/// and leave corruption for the resume to detect and discard.
pub fn crash_test(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 7)?;
    let points = args.get_count_u64("points", 6)?;
    let policy = args.get_threads()?;
    let obs = build_obs(args, policy);

    // Small deterministic inputs shared by every stage, all derived from
    // `--seed` so a CI failure is replayable from the printed seed alone.
    let web = generate_web(&CorpusConfig::small(seed));
    let targets = web.form_page_ids();
    let corpus = FormPageCorpus::from_graph(
        &web.graph,
        &targets,
        &ModelOptions::default(),
        false,
        policy,
        &Obs::disabled(),
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::combined());
    let k = 6usize.clamp(1, targets.len());
    let seeds = random_singleton_seeds(&space, k, &mut StdRng::seed_from_u64(seed));
    let htmls: Vec<String> = targets
        .iter()
        .map(|p| web.graph.html(*p).unwrap_or("").to_owned())
        .collect();
    let fault_cfg = FaultConfig {
        transient_rate: 0.2,
        permanent_rate: 0.05,
        truncate_rate: 0.05,
        seed,
        ..FaultConfig::default()
    };
    let crawl_cfg = ResilientConfig::default();
    let kmeans_opts = KMeansOptions::default();
    let hac_opts = HacOptions {
        target_clusters: k,
        linkage: Linkage::Average,
    };
    let ingest_opts = ModelOptions::default();
    let limits = IngestLimits::default();

    let stages: Vec<(&str, StageRun)> = vec![
        (
            "crawl",
            Box::new(|store: &mut Store, resume: bool| {
                let mut fetcher = ChaosFetcher::over_graph(&web.graph, fault_cfg);
                crawl_resumable(
                    &web.graph,
                    &mut fetcher,
                    web.portal,
                    &crawl_cfg,
                    &Obs::disabled(),
                    store,
                    resume,
                )
                .map(|o| format!("{o:?}"))
            }),
        ),
        (
            "ingest",
            Box::new(|store: &mut Store, resume: bool| {
                FormPageCorpus::from_html_ingest_resumable(
                    htmls.iter().map(String::as_str),
                    &ingest_opts,
                    &limits,
                    policy,
                    &Obs::disabled(),
                    store,
                    resume,
                )
                .map(|(c, r)| {
                    // TermDict's Debug renders a hash map (unstable order);
                    // digest the id-order iterator and the vectors instead.
                    let dict: Vec<(u32, &str)> =
                        c.dict.iter().map(|(id, term)| (id.0, term)).collect();
                    format!("{dict:?} {:?} {:?} {r:?}", c.pc, c.fc)
                })
            }),
        ),
        (
            "kmeans",
            Box::new(|store: &mut Store, resume: bool| {
                kmeans_resumable(
                    &space,
                    &seeds,
                    &kmeans_opts,
                    policy,
                    &Obs::disabled(),
                    store,
                    resume,
                )
                .map(|o| format!("{:?} {} {}", o.partition, o.iterations, o.converged))
            }),
        ),
        (
            "hac",
            Box::new(|store: &mut Store, resume: bool| {
                hac_resumable(
                    &space,
                    &[],
                    &hac_opts,
                    policy,
                    &Obs::disabled(),
                    store,
                    resume,
                )
                .map(|p| format!("{p:?}"))
            }),
        ),
    ];

    // A deliberately small cadence so even these short runs cross several
    // snapshot boundaries.
    let store_cfg = StoreConfig::new().with_checkpoint_every(3);
    let base = std::env::temp_dir().join(format!("cafc-crash-test-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    println!("crash-test: seed {seed}, {points} injection point(s) per stage × fault kind");
    let mut rows = Vec::new();
    let mut diverged = 0usize;
    for (name, run) in &stages {
        let dir = base.join(format!("{name}-baseline"));
        let mut store =
            Store::open(&dir, store_cfg, obs.clone()).map_err(|e| format!("{name}: {e}"))?;
        let baseline = run(&mut store, false).map_err(|e| format!("{name} baseline: {e}"))?;
        drop(store);

        for kind in FaultKind::ALL {
            let mut crashed = 0u64;
            let mut completed = 0u64;
            let mut mismatched = 0u64;
            for p in 0..points {
                let dir = base.join(format!("{name}-{}-{p}", kind.label()));
                let _ = std::fs::remove_dir_all(&dir);
                let chaos = ChaosFs::new(StdFs, FaultPlan::AtOp { op: p, kind });
                // The faulted leg: either it completes (silent faults, or
                // the fault landed past the last store op) — then its
                // in-memory result must already match the baseline — or it
                // "crashes" with a typed error mid-run.
                match Store::open_with_vfs(Box::new(chaos), &dir, store_cfg, obs.clone()) {
                    Ok(mut store) => match run(&mut store, false) {
                        Ok(digest) => {
                            completed += 1;
                            if digest != baseline {
                                mismatched += 1;
                            }
                        }
                        Err(_crash) => crashed += 1,
                    },
                    Err(_crash) => crashed += 1,
                }
                // Recovery: reopen whatever survived on the real
                // filesystem and resume. This must always succeed and must
                // reproduce the uninterrupted result bit-identically.
                let mut store = Store::open(&dir, store_cfg, obs.clone())
                    .map_err(|e| format!("{name}/{}: reopen after crash: {e}", kind.label()))?;
                match run(&mut store, true) {
                    Ok(digest) if digest == baseline => {}
                    Ok(_) => mismatched += 1,
                    Err(e) => {
                        return Err(format!(
                            "{name}/{} point {p}: resume failed: {e}",
                            kind.label()
                        ))
                    }
                }
            }
            if mismatched > 0 {
                diverged += 1;
            }
            rows.push(vec![
                (*name).to_owned(),
                kind.label().to_owned(),
                points.to_string(),
                crashed.to_string(),
                completed.to_string(),
                (if mismatched == 0 { "yes" } else { "NO" }).to_owned(),
            ]);
        }
    }
    print!(
        "{}",
        render_kv_table(
            &[
                "stage",
                "fault",
                "points",
                "crashed",
                "completed",
                "identical"
            ],
            &rows,
        )
    );
    let _ = std::fs::remove_dir_all(&base);
    emit_obs(args, &obs)?;
    if diverged > 0 {
        return Err(format!(
            "crash-test: {diverged} stage/fault combination(s) diverged from the \
             uninterrupted baseline (seed {seed})"
        ));
    }
    println!("crash-test: every crash point recovered bit-identically");
    Ok(())
}
