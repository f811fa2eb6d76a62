//! Differential oracles over the core pipeline: pairs of code paths that
//! are contractually equivalent, pinned against each other on *generated*
//! corpora via `cafc_check::check_equiv`. Any disagreement is shrunk to a
//! minimal witness and reported with a replayable `CAFC_CHECK_SEED`.

use cafc::{
    cafc_c, DegradedReason, FeatureConfig, FormPageCorpus, FormPageSpace, IngestError,
    IngestLimits, IngestReport, KMeansOptions, ModelOptions, PageOutcome, TfScheme,
};
use cafc_check::corpus::clean_html_corpus;
use cafc_check::gen::{from_slice, pairs, usizes, Gen};
use cafc_check::{check, check_equiv, require, require_eq, CheckConfig};
use cafc_cluster::Partition;
use cafc_corpus::{generate, mutate_page, page_rng, CorpusConfig, Mutation};
use cafc_exec::ExecPolicy;
use cafc_html::{strip_control_chars, Document, Node, NodeId, TextLocation};
use cafc_obs::Obs;
use cafc_text::{TermDict, TermId};
use cafc_vsm::{CountsBuilder, DocumentFrequencies, SparseVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A generated corpus plus an independent clustering seed.
fn corpus_and_seed() -> Gen<(Vec<String>, usize)> {
    pairs(&clean_html_corpus(3, 6), &usizes(0, 9_999))
}

/// Cases run whole k-means clusterings; keep the case count modest so the
/// suite stays in test-blink territory.
fn cfg() -> CheckConfig {
    let base = CheckConfig::new();
    let cases = base.cases.min(24);
    base.with_cases(cases)
}

/// CAFC-C at k = 2 over raw HTML: `from_html`, then `FormPageSpace`, then
/// `cafc_c`.
fn cluster_pages(pages: &[String], seed: u64, exec: ExecPolicy, obs: Obs) -> Partition {
    let corpus = FormPageCorpus::from_html(
        pages.iter().map(String::as_str),
        &ModelOptions::default(),
        exec,
        &obs,
    );
    let space = FormPageSpace::new(&corpus, FeatureConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    cafc_c(&space, 2, &KMeansOptions::default(), &mut rng, exec, &obs).partition
}

/// Execution policy changes wall-clock only: `Serial` and `Parallel { 3 }`
/// produce bit-identical partitions.
#[test]
fn serial_matches_parallel() {
    check_equiv(
        "ExecPolicy::Serial == ExecPolicy::Parallel{3}",
        &cfg(),
        &corpus_and_seed(),
        |(pages, seed)| cluster_pages(pages, *seed as u64, ExecPolicy::Serial, Obs::disabled()),
        |(pages, seed)| {
            cluster_pages(
                pages,
                *seed as u64,
                ExecPolicy::Parallel { threads: 3 },
                Obs::disabled(),
            )
        },
    );
}

/// Observability is read-only: an enabled `Obs` handle never changes the
/// clustering.
#[test]
fn metrics_on_matches_metrics_off() {
    check_equiv(
        "Obs::enabled == Obs::disabled",
        &cfg(),
        &corpus_and_seed(),
        |(pages, seed)| cluster_pages(pages, *seed as u64, ExecPolicy::Serial, Obs::disabled()),
        |(pages, seed)| cluster_pages(pages, *seed as u64, ExecPolicy::Serial, Obs::enabled()),
    );
}

fn mutated(pages: &[String], seed: u64) -> Vec<String> {
    pages
        .iter()
        .enumerate()
        .map(|(i, html)| mutate_page(html, &Mutation::ALL, 2, &mut page_rng(seed, i)))
        .collect()
}

/// Tight enough that mutated pages actually hit the degraded and
/// quarantined outcomes, not just `Ok`.
fn tight_limits() -> IngestLimits {
    IngestLimits::new()
        .with_hard_max_bytes(64 * 1024)
        .with_soft_max_bytes(8 * 1024)
        .with_max_terms(2_000)
}

/// Clean generated corpora ingest losslessly: nothing is quarantined
/// (titleless or form-empty pages may be kept as `Degraded`, but every
/// page survives into the corpus) and accounting balances.
#[test]
fn clean_ingestion_accounts_for_every_page() {
    check!(cfg(), clean_html_corpus(1, 8), |pages: &Vec<String>| {
        let (corpus, report) = FormPageCorpus::from_shards(
            [&pages],
            &ModelOptions::default(),
            &IngestLimits::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        require!(report.is_accounted(), "accounting identity broken");
        require_eq!(report.quarantined(), 0);
        require_eq!(report.ok() + report.degraded(), report.total());
        require_eq!(corpus.len(), pages.len());
        Ok(())
    });
}

/// Adversarially mutated corpora still balance the books:
/// `ok + degraded + quarantined == total` and the built corpus holds
/// exactly the kept pages — no input silently dropped or double-counted.
#[test]
fn mutated_ingestion_accounts_for_every_page() {
    let cases = pairs(&clean_html_corpus(1, 5), &usizes(0, 9_999));
    check!(cfg().with_cases(cfg().cases.min(12)), cases, |(
        pages,
        seed,
    )| {
        let hostile = mutated(pages, *seed as u64);
        let (corpus, report) = FormPageCorpus::from_shards(
            [&hostile],
            &ModelOptions::default(),
            &tight_limits(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        require!(report.is_accounted(), "accounting identity broken");
        require_eq!(report.total(), pages.len());
        require_eq!(corpus.len(), report.ok() + report.degraded());
        require_eq!(corpus.len(), report.kept.len());
        Ok(())
    });
}

/// Ingestion accounting is execution-policy invariant: the outcome
/// sequence and kept-mapping are identical under `Serial` and
/// `Parallel { 3 }`, even on hostile input.
#[test]
fn ingestion_accounting_is_exec_invariant() {
    let cases = pairs(&clean_html_corpus(1, 5), &usizes(0, 9_999));
    let tally = |pages: &[String], seed: u64, policy: ExecPolicy| {
        let hostile = mutated(pages, seed);
        let (corpus, report) = FormPageCorpus::from_shards(
            [&hostile],
            &ModelOptions::default(),
            &tight_limits(),
            policy,
            &Obs::disabled(),
        );
        (
            report.ok(),
            report.degraded(),
            report.quarantined(),
            report.kept.clone(),
            corpus.len(),
        )
    };
    check_equiv(
        "ingest accounting: Serial == Parallel{3}",
        &cfg().with_cases(cfg().cases.min(12)),
        &cases,
        |(pages, seed)| tally(pages, *seed as u64, ExecPolicy::Serial),
        |(pages, seed)| tally(pages, *seed as u64, ExecPolicy::Parallel { threads: 3 }),
    );
}

/// The text runs of a parsed page by the pre-order DOM walk `located_text`
/// used before the location rules moved into `LocatedSink`: each element's
/// context flows down to its children. Whitespace is left as parsed, since
/// analysis splits on it anyway.
fn reference_runs(doc: &Document) -> Vec<(String, TextLocation)> {
    #[derive(Clone, Copy, Default)]
    struct Ctx {
        title: bool,
        heading: bool,
        anchor: bool,
        form: bool,
        option: bool,
    }
    let location = |c: Ctx| match (c.form, c.option) {
        (true, true) => TextLocation::FormOption,
        (true, false) => TextLocation::FormText,
        _ if c.title => TextLocation::Title,
        _ if c.heading => TextLocation::Heading,
        _ if c.anchor => TextLocation::Anchor,
        _ => TextLocation::Body,
    };
    let mut out = Vec::new();
    let mut push = |text: &str, loc| {
        if !text.trim().is_empty() {
            out.push((text.trim().to_owned(), loc));
        }
    };
    let mut pending: Vec<(NodeId, Ctx)> = doc
        .roots()
        .iter()
        .rev()
        .map(|&r| (r, Ctx::default()))
        .collect();
    while let Some((id, mut ctx)) = pending.pop() {
        let name = match doc.node(id) {
            Node::Text(t) => {
                push(t, location(ctx));
                continue;
            }
            Node::Comment(_) => continue,
            Node::Element { name, .. } => name.as_str(),
        };
        match name {
            "script" | "style" | "noscript" => continue,
            "title" => ctx.title = true,
            "h1" | "h2" | "h3" | "h4" | "h5" | "h6" => ctx.heading = true,
            "a" => ctx.anchor = true,
            "form" => ctx.form = true,
            "option" => ctx.option = true,
            "input" if ctx.form => {
                let ty = doc.attr(id, "type").map(str::to_ascii_lowercase);
                if !matches!(ty.as_deref(), Some("hidden" | "password")) {
                    if let Some(v) = doc.attr(id, "value") {
                        push(v, TextLocation::FormValue);
                    }
                }
            }
            "img" => {
                if let Some(alt) = doc.attr(id, "alt") {
                    push(alt, location(ctx));
                }
            }
            _ => {}
        }
        pending.extend(doc.children(id).iter().rev().map(|&c| (c, ctx)));
    }
    out
}

/// Hardened ingestion as it ran before parsing went straight into
/// analysis: sanitize, build the `Document`, walk it, analyse each run
/// under the page's term budget into per-term `HashMap` counts, then take
/// DF over the kept pages and weigh. One dictionary in input order, which
/// is the order the chunk merge reproduces.
fn reference_ingest(
    pages: &[String],
    opts: &ModelOptions,
    limits: &IngestLimits,
) -> (FormPageCorpus, IngestReport) {
    type Counts = HashMap<TermId, f64>;
    let mut dict = TermDict::new();
    let mut report = IngestReport::default();
    let mut kept: Vec<(Counts, Counts)> = Vec::new();
    let mut used_bytes = 0usize;
    for (index, html) in pages.iter().enumerate() {
        if html.len() > limits.hard_max_bytes {
            report.outcomes.push(PageOutcome::Quarantined {
                error: IngestError::TooLarge {
                    bytes: html.len(),
                    limit: limits.hard_max_bytes,
                },
            });
            continue;
        }
        let mut reasons = Vec::new();
        let mut cut = html.len().min(limits.soft_max_bytes);
        while !html.is_char_boundary(cut) {
            cut -= 1;
        }
        if cut < html.len() {
            reasons.push(DegradedReason::InputTruncated);
        }
        let (clean, stripped) = strip_control_chars(&html[..cut]);
        if stripped {
            reasons.push(DegradedReason::ControlCharsStripped);
        }
        let (doc, stats) = Document::parse_with_stats(&clean);
        if stats.depth_capped {
            reasons.push(DegradedReason::DepthCapped);
        }
        if stats.nodes_capped {
            reasons.push(DegradedReason::InputTruncated);
        }
        let (mut pc, mut fc) = (Counts::new(), Counts::new());
        let mut used = 0usize;
        let mut terms = Vec::new();
        for (text, loc) in reference_runs(&doc) {
            terms.clear();
            let hit = opts.analyzer.analyze_into_budget(
                &text,
                &mut dict,
                &mut terms,
                limits.max_terms - used,
            );
            used += terms.len();
            let w = opts.weights.weight(loc);
            for &t in &terms {
                if w.is_finite() {
                    *pc.entry(t).or_insert(0.0) += w;
                    if loc.is_form() {
                        *fc.entry(t).or_insert(0.0) += w;
                    }
                }
            }
            if hit {
                reasons.push(DegradedReason::TermBudgetExceeded);
                break;
            }
        }
        if pc.is_empty() {
            report.outcomes.push(PageOutcome::Quarantined {
                error: IngestError::EmptyDocument,
            });
            continue;
        }
        if doc.title().is_none() {
            reasons.push(DegradedReason::MissingTitle);
        }
        if fc.is_empty() {
            reasons.push(DegradedReason::NoFormContent);
        }
        let needed = (pc.len() + fc.len()) * 16;
        if used_bytes.saturating_add(needed) > limits.max_corpus_bytes {
            report.outcomes.push(PageOutcome::Quarantined {
                error: IngestError::BudgetExhausted {
                    needed,
                    budget: limits.max_corpus_bytes,
                },
            });
            continue;
        }
        used_bytes += needed;
        reasons.sort_unstable();
        reasons.dedup();
        report.outcomes.push(if reasons.is_empty() {
            PageOutcome::Ok
        } else {
            PageOutcome::Degraded { reasons }
        });
        report.kept.push(index);
        kept.push((pc, fc));
    }
    let entries = |c: &Counts| c.iter().map(|(&t, &w)| (t, w)).collect::<Vec<_>>();
    let (mut pc_df, mut fc_df) = (DocumentFrequencies::new(), DocumentFrequencies::new());
    let add = |df: &mut DocumentFrequencies, c: &Counts| {
        let mut doc = CountsBuilder::new();
        doc.add_all(c.keys().copied(), 1.0);
        df.add_counts(&doc);
    };
    for (pc, fc) in &kept {
        add(&mut pc_df, pc);
        add(&mut fc_df, fc);
    }
    let weigh = |c: &Counts, df: &DocumentFrequencies| {
        let tf = SparseVector::from_entries(entries(c));
        let idf = |t| opts.idf.apply(df.num_docs(), df.doc_freq(t));
        assert_eq!(opts.tf, TfScheme::Raw, "the reference weighs raw TF only");
        SparseVector::from_entries(tf.entries().iter().map(|&(t, w)| (t, w * idf(t))).collect())
    };
    let corpus = FormPageCorpus {
        pc: kept.iter().map(|(pc, _)| weigh(pc, &pc_df)).collect(),
        pc_tf: kept
            .iter()
            .map(|(pc, _)| SparseVector::from_entries(entries(pc)))
            .collect(),
        fc: kept.iter().map(|(_, fc)| weigh(fc, &fc_df)).collect(),
        anchor: vec![SparseVector::empty(); kept.len()],
        dict,
        pc_df,
        fc_df,
    };
    (corpus, report)
}

/// Every vector, DF entry and dictionary term, with weights as bits.
fn corpus_bits(c: &FormPageCorpus) -> Vec<String> {
    let vectors = [&c.pc, &c.pc_tf, &c.fc, &c.anchor];
    let mut out: Vec<String> = c.dict.iter().map(|(_, t)| t.to_owned()).collect();
    for (space, vs) in vectors.iter().enumerate() {
        for v in vs.iter() {
            let bits: Vec<_> = v
                .entries()
                .iter()
                .map(|&(t, w)| (t.0, w.to_bits()))
                .collect();
            out.push(format!("{space}: {bits:?} {}", v.norm().to_bits()));
        }
    }
    for df in [&c.pc_df, &c.fc_df] {
        out.push(format!(
            "{} {:?}",
            df.num_docs(),
            df.iter().collect::<Vec<_>>()
        ));
    }
    out
}

/// Parsing straight into analysis ingests exactly what the DOM path did:
/// `from_shards`'s corpus and report equal the reference above, bit
/// for bit, on clean pages and torture pages (every `Mutation`, two per
/// page) under term budgets down to 3 terms and a tight corpus budget.
#[test]
fn ingest_matches_dom_reference() {
    let budgets = from_slice(&[3usize, 7, 40, 2_000, 200_000]);
    let cases = pairs(
        &pairs(&clean_html_corpus(1, 5), &usizes(0, 9_999)),
        &pairs(&budgets, &from_slice(&[4_096usize, usize::MAX])),
    );
    check!(cfg(), cases, |(
        (pages, seed),
        (max_terms, corpus_bytes),
    )| {
        let mut all = pages.clone();
        all.extend(mutated(pages, *seed as u64));
        let limits = tight_limits()
            .with_max_terms(*max_terms)
            .with_max_corpus_bytes(*corpus_bytes)
            .with_shard_pages(3);
        let opts = ModelOptions::default();
        let (corpus, report) = FormPageCorpus::from_shards(
            [&all],
            &opts,
            &limits,
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let (expected, expected_report) = reference_ingest(&all, &opts, &limits);
        require_eq!(report, expected_report);
        require!(
            corpus_bits(&corpus) == corpus_bits(&expected),
            "corpus differs from the DOM reference"
        );
        Ok(())
    });
}

// ---------------------------------------------------------------------
// The raw page loop (`from_html`) against the hardened one (`from_shards`)
// ---------------------------------------------------------------------

/// Hardened ingestion with every limit lifted.
fn unlimited() -> IngestLimits {
    IngestLimits::new()
        .with_hard_max_bytes(usize::MAX)
        .with_soft_max_bytes(usize::MAX)
        .with_max_terms(usize::MAX)
        .with_max_corpus_bytes(usize::MAX)
}

fn raw(pages: &[&str]) -> FormPageCorpus {
    let opts = ModelOptions::default();
    FormPageCorpus::from_html(
        pages.iter().copied(),
        &opts,
        ExecPolicy::Serial,
        &Obs::disabled(),
    )
}

fn hardened(pages: &[&str]) -> (FormPageCorpus, IngestReport) {
    let opts = ModelOptions::default();
    FormPageCorpus::from_shards(
        [pages],
        &opts,
        &unlimited(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    )
}

/// On clean pages the two loops agree bit for bit once every limit is
/// lifted: the dictionary, `pc`, `pc_tf`, `fc` and both DF tables. Pinned
/// on the 80 form pages of `CorpusConfig::small(7)` and on generated
/// corpora.
#[test]
fn from_html_matches_unlimited_from_shards_on_clean_pages() {
    let web = generate(&CorpusConfig::small(7));
    let pages: Vec<&str> = web
        .form_page_ids()
        .iter()
        .map(|&p| web.graph.html(p).unwrap_or(""))
        .collect();
    assert_eq!(pages.len(), 80);
    let (corpus, report) = hardened(&pages);
    assert_eq!(report.kept.len(), pages.len(), "no page quarantined");
    assert_eq!(corpus_bits(&corpus), corpus_bits(&raw(&pages)));

    check!(cfg(), clean_html_corpus(1, 8), |pages: &Vec<String>| {
        let pages: Vec<&str> = pages.iter().map(String::as_str).collect();
        let (corpus, report) = hardened(&pages);
        require_eq!(report.kept.len(), pages.len());
        require!(
            corpus_bits(&corpus) == corpus_bits(&raw(&pages)),
            "from_html and unlimited from_shards differ on clean pages"
        );
        Ok(())
    });
}

/// The terms a one-page corpus interned, in id order.
fn terms(corpus: &FormPageCorpus) -> Vec<String> {
    corpus.dict.iter().map(|(_, t)| t.to_owned()).collect()
}

/// First divergence: the hardened loop strips control characters before
/// parsing, which joins the words on either side. The raw loop's tokenizer
/// splits on them instead.
#[test]
fn control_characters_split_raw_words_but_join_hardened_ones() {
    let page = ["<p>Air\u{1}fare deals</p>"];
    assert_eq!(terms(&raw(&page)), ["air", "fare", "deal"]);
    let (corpus, report) = hardened(&page);
    assert_eq!(terms(&corpus), ["airfar", "deal"]);
    assert_eq!(
        report.outcomes,
        [PageOutcome::Degraded {
            reasons: vec![
                DegradedReason::ControlCharsStripped,
                DegradedReason::MissingTitle,
                DegradedReason::NoFormContent,
            ]
        }]
    );
}

/// Second divergence: a page with no analyzable text is kept by the raw
/// loop, with empty vectors, and quarantined by the hardened one.
#[test]
fn a_page_without_text_is_kept_raw_but_quarantined_hardened() {
    for page in ["", "<form><input name=q></form>", "<p>the of and</p>"] {
        let corpus = raw(&[page]);
        assert_eq!(corpus.len(), 1, "{page:?}");
        assert_eq!(corpus.pc_tf[0].nnz(), 0, "{page:?}");
        let (corpus, report) = hardened(&[page]);
        assert!(corpus.is_empty(), "{page:?}");
        assert_eq!(
            report.outcomes,
            [PageOutcome::Quarantined {
                error: IngestError::EmptyDocument
            }],
            "{page:?}"
        );
    }
}
