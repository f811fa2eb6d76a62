//! Differential oracles over the core pipeline: pairs of code paths that
//! are contractually equivalent, pinned against each other on *generated*
//! corpora via `cafc_check::check_equiv`. Any disagreement is shrunk to a
//! minimal witness and reported with a replayable `CAFC_CHECK_SEED`.

use cafc::{
    cafc_c, DegradedReason, FeatureConfig, FormPageCorpus, FormPageSpace, IngestError,
    IngestLimits, IngestReport, KMeansOptions, ModelOptions, PageOutcome, StreamConfig,
    StreamCorpus, TfScheme,
};
use cafc_check::corpus::clean_html_corpus;
use cafc_check::gen::{from_slice, pairs, usizes, Gen};
use cafc_check::{check, check_equiv, require, require_eq, CheckConfig};
use cafc_cluster::Partition;
use cafc_corpus::{generate, mutate_page, page_rng, CorpusConfig, Mutation};
use cafc_exec::ExecPolicy;
use cafc_html::{strip_control_chars, Document, Node, NodeId, TextLocation};
use cafc_obs::Obs;
use cafc_text::{Analyzer, TermDict, TermId};
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
            let hit =
                Analyzer.analyze_into_budget(&text, &mut dict, &mut terms, limits.max_terms - used);
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
// `from_html`, which keeps every page at its index, against `from_shards`,
// which keeps only the pages the page pass does not quarantine
// ---------------------------------------------------------------------

/// Hardened ingestion with every limit lifted.
fn unlimited() -> IngestLimits {
    IngestLimits::new()
        .with_hard_max_bytes(usize::MAX)
        .with_soft_max_bytes(usize::MAX)
        .with_max_terms(usize::MAX)
        .with_max_corpus_bytes(usize::MAX)
}

fn every_page(pages: &[&str]) -> FormPageCorpus {
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

/// `from_html` over `pages` against unlimited `from_shards`, returning how
/// many pages the latter quarantined. With none quarantined the two
/// corpora are bit-identical: the dictionary, `pc`, `pc_tf`, `fc` and both
/// DF tables. Otherwise `from_html` keeps empty vectors at each
/// quarantined page's index, and the same dictionary and `pc_tf` at every
/// other; `pc` and `fc` differ, because its IDF counts every page.
fn keeps_every_page(pages: &[&str]) -> Result<usize, String> {
    let (kept, report) = hardened(pages);
    let all = every_page(pages);
    let quarantined = report.quarantined();
    if quarantined == 0 {
        require!(
            corpus_bits(&kept) == corpus_bits(&all),
            "from_html and unlimited from_shards differ with no page quarantined"
        );
        return Ok(quarantined);
    }
    require_eq!(all.len(), pages.len());
    require_eq!(terms(&all), terms(&kept));
    let mut kept_pages = report.kept.iter().enumerate().peekable();
    for (i, outcome) in report.outcomes.iter().enumerate() {
        match kept_pages.next_if(|&(_, &input)| input == i) {
            Some((corpus_index, _)) => {
                require!(
                    all.pc_tf[i] == kept.pc_tf[corpus_index],
                    "pc_tf of page {i} differs"
                );
            }
            None => {
                require!(!outcome.is_kept(), "page {i}: {outcome:?}");
                for (space, v) in [&all.pc, &all.pc_tf, &all.fc].into_iter().enumerate() {
                    require!(v[i].nnz() == 0, "page {i} has terms in space {space}");
                }
            }
        }
    }
    Ok(quarantined)
}

/// `from_html` keeps every page at its input index and otherwise builds
/// what unlimited `from_shards` builds (see [`keeps_every_page`]). Pinned
/// on the 80 form pages of `CorpusConfig::small(7)`, on their mutated
/// variants (every `Mutation`, two per page), on those with three pages
/// without text added, and on generated corpora.
#[test]
fn from_html_keeps_every_page_of_unlimited_from_shards() {
    let web = generate(&CorpusConfig::small(7));
    let clean: Vec<String> = web
        .form_page_ids()
        .iter()
        .map(|&p| web.graph.html(p).unwrap_or("").to_owned())
        .collect();
    assert_eq!(clean.len(), 80);
    let refs: Vec<&str> = clean.iter().map(String::as_str).collect();
    assert_eq!(keeps_every_page(&refs), Ok(0));
    let mutated = mutated(&clean, 5);
    let mut refs: Vec<&str> = mutated.iter().map(String::as_str).collect();
    assert_eq!(keeps_every_page(&refs), Ok(0));
    // Pages with no analyzable text first in, inside and last in a
    // 16-page unit of the page pass.
    for (at, page) in [
        (0, ""),
        (20, "<form><input name=q></form>"),
        (47, "the of and"),
    ] {
        refs.insert(at, page);
    }
    assert_eq!(keeps_every_page(&refs), Ok(3));

    check!(cfg(), clean_html_corpus(1, 8), |pages: &Vec<String>| {
        let pages: Vec<&str> = pages.iter().map(String::as_str).collect();
        keeps_every_page(&pages)?;
        Ok(())
    });
}

/// The terms a corpus interned, in id order.
fn terms(corpus: &FormPageCorpus) -> Vec<String> {
    corpus.dict.iter().map(|(_, t)| t.to_owned()).collect()
}

/// Every page pass strips control characters before parsing, which joins
/// the words on either side: `from_html`, `from_shards` and a stream
/// arrival.
#[test]
fn control_characters_join_words_in_every_page_pass() {
    let page = ["<p>Air\u{1}fare deals</p>"];
    let outcome = PageOutcome::Degraded {
        reasons: vec![
            DegradedReason::ControlCharsStripped,
            DegradedReason::MissingTitle,
            DegradedReason::NoFormContent,
        ],
    };
    assert_eq!(terms(&every_page(&page)), ["airfar", "deal"]);
    let (corpus, report) = hardened(&page);
    assert_eq!(terms(&corpus), ["airfar", "deal"]);
    assert_eq!(report.outcomes, std::slice::from_ref(&outcome));
    let mut stream = StreamCorpus::new(
        every_page(&[]),
        &Partition::new(Vec::new(), 0),
        StreamConfig::new().with_limits(unlimited()),
        Obs::disabled(),
    );
    assert_eq!(stream.ingest_html(page[0]).outcome, outcome);
    assert_eq!(terms(stream.corpus()), ["airfar", "deal"]);
}

/// A page with no analyzable text: `from_html` keeps it at its index with
/// empty vectors, and `from_shards` quarantines it.
#[test]
fn a_page_without_text_is_kept_raw_but_quarantined_hardened() {
    for page in ["", "<form><input name=q></form>", "<p>the of and</p>"] {
        let corpus = every_page(&[page]);
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

// ---------------------------------------------------------------------
// Stream arrivals against the batch page loop
// ---------------------------------------------------------------------

/// One page for each thing the hardened checks look at.
fn hostile_pages() -> Vec<String> {
    vec![
        // Clean.
        "<title>Cheap flights</title><p>airfare deals travel</p>\
         <form>Departure <input name=d></form>"
            .to_owned(),
        // Control characters inside a word.
        "<title>Fares</title><p>Air\u{1}fare deals</p><form>Origin <input name=o></form>"
            .to_owned(),
        // Over the soft limit, with the form past the cut.
        format!(
            "<title>Hotels</title><p>hotel rooms</p>{}<form>Check-in <input name=c></form>",
            "<b></b>".repeat(400)
        ),
        // Over the hard limit.
        format!("<title>Cars</title><p>{}</p>", "zygote sedan ".repeat(500)),
        // All markup.
        "<div><span></span><br><img src=x.gif></div><form><input name=q></form>".to_owned(),
        // No form.
        "<title>Books</title><p>novels authors isbn</p>".to_owned(),
        // No title.
        "<p>jobs careers salary</p><form>Keywords <input name=k></form>".to_owned(),
        // Past the term budget, so the form text is never analysed.
        format!(
            "<title>Music</title><p>{}</p><form>Artist <input name=a></form>",
            "album song artist ".repeat(60)
        ),
    ]
}

/// `html` in `size`-byte pieces, each cut moved forward to a char boundary.
fn chunks(html: &str, size: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < html.len() {
        let mut end = (start + size).min(html.len());
        while !html.is_char_boundary(end) {
            end += 1;
        }
        out.push(&html[start..end]);
        start = end;
    }
    out
}

/// A stream that starts from an empty corpus and partition ends where one
/// batch of the same pages does under the same limits: the same outcome
/// per page, the same dictionary in id order and the same raw `pc_tf` for
/// the kept pages, whether each page arrives whole or in 7- or 256-byte
/// chunks.
#[test]
fn stream_arrivals_match_batch_ingest() {
    use DegradedReason::*;
    let pages = hostile_pages();
    let opts = ModelOptions::default();
    let limits = IngestLimits::new()
        .with_soft_max_bytes(2_000)
        .with_hard_max_bytes(6_000)
        .with_max_terms(150);
    let (batch, report) = FormPageCorpus::from_shards(
        [&pages],
        &opts,
        &limits,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    let degraded = |reasons: &[DegradedReason]| PageOutcome::Degraded {
        reasons: reasons.to_vec(),
    };
    let quarantined = |error| PageOutcome::Quarantined { error };
    assert_eq!(
        report.outcomes,
        [
            PageOutcome::Ok,
            degraded(&[ControlCharsStripped]),
            degraded(&[InputTruncated, NoFormContent]),
            quarantined(IngestError::TooLarge {
                bytes: pages[3].len(),
                limit: 6_000
            }),
            quarantined(IngestError::EmptyDocument),
            degraded(&[NoFormContent]),
            degraded(&[MissingTitle]),
            degraded(&[TermBudgetExceeded, NoFormContent]),
        ]
    );

    for size in [None, Some(7), Some(256)] {
        let empty = every_page(&[]);
        let config = StreamConfig::new().with_opts(opts).with_limits(limits);
        let mut stream = StreamCorpus::new(
            empty,
            &Partition::new(Vec::new(), 0),
            config,
            Obs::disabled(),
        );
        let outcomes: Vec<PageOutcome> = pages
            .iter()
            .map(|html| match size {
                None => stream.ingest_html(html).outcome,
                Some(size) => stream.ingest_chunks(chunks(html, size)).outcome,
            })
            .collect();
        assert_eq!(outcomes, report.outcomes, "chunks of {size:?}");
        assert_eq!(terms(stream.corpus()), terms(&batch), "chunks of {size:?}");
        assert_eq!(stream.corpus().pc_tf, batch.pc_tf, "chunks of {size:?}");
    }
}
