//! The oracle catalog: what "correct" means for one fuzzed input.
//!
//! Every execution runs the full battery — panic freedom plus the
//! differential and invariant oracles — because each one is cheap relative
//! to the parse itself. A failure carries the oracle that tripped and a
//! human-readable detail; the engine shrinks the input against the same
//! oracle before persisting it.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use cafc::{ExecPolicy, FormPageCorpus, IngestLimits, ModelOptions, Obs};
use cafc_check::Seed;
use cafc_html::coverage::{Coverage, CoverageMap};
use cafc_html::{
    located_text, parse, parse_chunked, parse_into, strip_control_chars, Document, LocatedSink,
    LocatedText, Node, NodeId, StreamingParser, TextLocation, Tokenizer,
};

/// Which oracle rejected the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// The parser panicked.
    PanicFreedom,
    /// `parse` and `parse_with_coverage` disagreed on the document.
    StatsEquivalence,
    /// `strip_control_chars` was not idempotent.
    SanitizeIdempotence,
    /// The tokenizer's position left the input byte range or went
    /// backwards.
    TokenSpans,
    /// `parse(whole)` and `parse(chunks)` disagreed.
    ChunkEquivalence,
    /// The ingestion report failed its accounting identity.
    IngestAccounting,
    /// The located-text sink (whole, chunked, or replayed over the tree)
    /// disagreed with the reference DOM walk on the runs or the title.
    LocatedText,
}

impl OracleKind {
    /// Stable lowercase label for reports and recipe files.
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::PanicFreedom => "panic-freedom",
            OracleKind::StatsEquivalence => "stats-equivalence",
            OracleKind::SanitizeIdempotence => "sanitize-idempotence",
            OracleKind::TokenSpans => "token-spans",
            OracleKind::ChunkEquivalence => "chunk-equivalence",
            OracleKind::IngestAccounting => "ingest-accounting",
            OracleKind::LocatedText => "located-text",
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// The oracle that tripped.
    pub oracle: OracleKind,
    /// What it observed.
    pub detail: String,
}

/// The result of executing one input through the instrumented parse and
/// the oracle battery.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Coverage recorded by the instrumented parse (present even when the
    /// parse panicked — whatever was recorded up to the panic stands).
    pub coverage: CoverageMap,
    /// Every oracle violation, in catalog order.
    pub failures: Vec<OracleFailure>,
}

impl Execution {
    /// Whether any oracle rejected the input.
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }
}

thread_local! {
    /// True while this thread is intentionally feeding hostile input to
    /// `catch_unwind`; the quiet panic hook suppresses output for it.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

/// Install (once per process) a panic hook that stays silent for panics
/// the fuzzer catches on purpose and delegates to the previous hook for
/// everything else.
pub fn install_quiet_panic_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Render a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Run `f` with panics silenced and caught.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    CAPTURING.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

/// Floor `i` to a char boundary of `s`.
pub(crate) fn floor_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Deterministic split points for the chunk-feeding oracle: up to four
/// char-boundary offsets derived from (`split_seed`, input content).
fn split_points(input: &str, split_seed: u64) -> Vec<usize> {
    if input.len() < 2 {
        return Vec::new();
    }
    let mut rng = Seed::new(split_seed)
        .derive(cafc_html::coverage::fnv1a(input.as_bytes()))
        .rng();
    let mut points: Vec<usize> = (0..4)
        .map(|_| floor_boundary(input, rng.range_usize(1, input.len())))
        .filter(|&p| p > 0 && p < input.len())
        .collect();
    points.sort_unstable();
    points.dedup();
    points
}

/// Split `input` at `points` (ascending byte offsets on char boundaries).
fn chunks_at<'a>(input: &'a str, points: &[usize]) -> Vec<&'a str> {
    let mut chunks = Vec::with_capacity(points.len() + 1);
    let mut start = 0;
    for &p in points {
        chunks.push(&input[start..p]);
        start = p;
    }
    chunks.push(&input[start..]);
    chunks
}

/// The reference located-text walk: a pre-order walk of the parsed tree
/// carrying each element's context down to its children. It is the
/// definition `cafc_html::located_text` had before the rules moved into
/// `LocatedSink`, kept here so the sink is checked against an independent
/// statement of the same rules.
fn reference_located_text(doc: &Document) -> Vec<LocatedText> {
    #[derive(Clone, Copy, Default)]
    struct Ctx {
        in_title: bool,
        in_heading: bool,
        in_anchor: bool,
        in_form: bool,
        in_option: bool,
    }
    fn location(ctx: Ctx) -> TextLocation {
        if ctx.in_form {
            if ctx.in_option {
                TextLocation::FormOption
            } else {
                TextLocation::FormText
            }
        } else if ctx.in_title {
            TextLocation::Title
        } else if ctx.in_heading {
            TextLocation::Heading
        } else if ctx.in_anchor {
            TextLocation::Anchor
        } else {
            TextLocation::Body
        }
    }
    fn push(out: &mut Vec<LocatedText>, text: &str, location: TextLocation) {
        let text = text.trim();
        if !text.is_empty() {
            out.push(LocatedText {
                text: normalize_ws(text),
                location,
            });
        }
    }
    let mut out = Vec::new();
    let mut pending: Vec<(NodeId, Ctx)> = doc
        .roots()
        .iter()
        .rev()
        .map(|&r| (r, Ctx::default()))
        .collect();
    while let Some((id, ctx)) = pending.pop() {
        match doc.node(id) {
            Node::Text(t) => push(&mut out, t, location(ctx)),
            Node::Comment(_) => {}
            Node::Element { name, .. } => {
                let mut ctx = ctx;
                match name.as_str() {
                    "script" | "style" | "noscript" => continue,
                    "title" => ctx.in_title = true,
                    "h1" | "h2" | "h3" | "h4" | "h5" | "h6" => ctx.in_heading = true,
                    "a" => ctx.in_anchor = true,
                    "form" => ctx.in_form = true,
                    "option" => ctx.in_option = true,
                    "input" if ctx.in_form => {
                        let ty = doc.attr(id, "type").map(str::to_ascii_lowercase);
                        let visible = !matches!(ty.as_deref(), Some("hidden") | Some("password"));
                        if let (true, Some(v)) = (visible, doc.attr(id, "value")) {
                            push(&mut out, v, TextLocation::FormValue);
                        }
                    }
                    "img" => {
                        if let Some(alt) = doc.attr(id, "alt") {
                            push(&mut out, alt, location(ctx));
                        }
                    }
                    _ => {}
                }
                pending.extend(doc.children(id).iter().rev().map(|&c| (c, ctx)));
            }
        }
    }
    out
}

/// Collapse whitespace runs to one space and trim.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Runs and title presence as a [`LocatedSink`] sees them, parsing
/// `chunks` whole (one chunk) or through a [`StreamingParser`].
fn sink_located_text(chunks: &[&str]) -> (Vec<LocatedText>, bool) {
    let mut runs = Vec::new();
    let emit = |text: &str, location| {
        runs.push(LocatedText {
            text: normalize_ws(text),
            location,
        })
    };
    let has_title = if let [whole] = chunks {
        parse_into(whole, LocatedSink::new(emit)).0.has_title()
    } else {
        let mut parser = StreamingParser::with_sink(LocatedSink::new(emit));
        for chunk in chunks {
            parser.push_chunk(chunk);
        }
        parser.finish_sink().0.has_title()
    };
    (runs, has_title)
}

/// Execute `input` through the instrumented parse and every oracle.
/// Deterministic: the result depends only on (`input`, `split_seed`).
pub fn execute(input: &str, split_seed: u64) -> Execution {
    let mut failures = Vec::new();
    let cov = Coverage::enabled();

    // Oracle 1: panic freedom (the instrumented parse itself).
    let parsed: Option<(Document, _)> = match guarded(|| Document::parse_with_coverage(input, &cov))
    {
        Ok(pair) => Some(pair),
        Err(msg) => {
            failures.push(OracleFailure {
                oracle: OracleKind::PanicFreedom,
                detail: format!("parse panicked: {msg}"),
            });
            None
        }
    };
    let coverage = cov.snapshot().unwrap_or_default();

    if let Some((instrumented_doc, _stats)) = &parsed {
        // Oracle 2: parse ≡ parse_with_stats ≡ parse_with_coverage.
        // `parse` delegates to `parse_with_stats` with a disabled handle,
        // so this equality pins both that delegation and that recording
        // coverage never perturbs the tree.
        match guarded(|| parse(input)) {
            Ok(plain_doc) => {
                if plain_doc != *instrumented_doc {
                    failures.push(OracleFailure {
                        oracle: OracleKind::StatsEquivalence,
                        detail: "parse and parse_with_coverage built different trees".to_owned(),
                    });
                }
            }
            Err(msg) => failures.push(OracleFailure {
                oracle: OracleKind::PanicFreedom,
                detail: format!("plain parse panicked: {msg}"),
            }),
        }

        // Oracle 5: chunked delivery is equivalent to whole delivery.
        let points = split_points(input, split_seed);
        if !points.is_empty() {
            match guarded(|| parse_chunked(&chunks_at(input, &points))) {
                Ok(chunked_doc) => {
                    // Compare against the *plain* parse path via the
                    // instrumented doc (equal by oracle 2 when healthy).
                    if chunked_doc != *instrumented_doc {
                        failures.push(OracleFailure {
                            oracle: OracleKind::ChunkEquivalence,
                            detail: format!(
                                "parse(chunks at {points:?}) differs from parse(whole)"
                            ),
                        });
                    }
                }
                Err(msg) => failures.push(OracleFailure {
                    oracle: OracleKind::PanicFreedom,
                    detail: format!("chunked parse panicked: {msg}"),
                }),
            }
        }
    }

    // Oracle 3: sanitize idempotence.
    match guarded(|| {
        let once = strip_control_chars(input).0.into_owned();
        let (twice, changed_again) = strip_control_chars(&once);
        let twice = twice.into_owned();
        (once, twice, changed_again)
    }) {
        Ok((once, twice, changed_again)) => {
            if changed_again || once != twice {
                failures.push(OracleFailure {
                    oracle: OracleKind::SanitizeIdempotence,
                    detail: "strip_control_chars(strip_control_chars(x)) != strip_control_chars(x)"
                        .to_owned(),
                });
            }
        }
        Err(msg) => failures.push(OracleFailure {
            oracle: OracleKind::PanicFreedom,
            detail: format!("sanitize panicked: {msg}"),
        }),
    }

    // Oracle 4: tokenizer position stays within [0, len] and never goes
    // backwards across yielded tokens.
    match guarded(|| {
        let mut tok = Tokenizer::new(input);
        let mut prev = tok.pos();
        while tok.next().is_some() {
            let pos = tok.pos();
            if pos < prev || pos > input.len() {
                return Some((prev, pos));
            }
            prev = pos;
        }
        None
    }) {
        Ok(Some((prev, pos))) => failures.push(OracleFailure {
            oracle: OracleKind::TokenSpans,
            detail: format!(
                "tokenizer pos went {prev} -> {pos} (input len {})",
                input.len()
            ),
        }),
        Ok(None) => {}
        Err(msg) => failures.push(OracleFailure {
            oracle: OracleKind::PanicFreedom,
            detail: format!("tokenizer panicked: {msg}"),
        }),
    }

    // Oracle 6: the hardened ingestion layer accounts for every page.
    match guarded(|| {
        let (corpus, report) = FormPageCorpus::from_shards(
            [[input]],
            &ModelOptions::default(),
            &IngestLimits::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        (corpus.len(), report)
    }) {
        Ok((kept_pages, report)) => {
            if !report.is_accounted() {
                failures.push(OracleFailure {
                    oracle: OracleKind::IngestAccounting,
                    detail: "IngestReport::is_accounted() is false".to_owned(),
                });
            } else if report.kept.len() != kept_pages || report.total() != 1 {
                failures.push(OracleFailure {
                    oracle: OracleKind::IngestAccounting,
                    detail: format!(
                        "kept {} / corpus {} / total {} for a single input page",
                        report.kept.len(),
                        kept_pages,
                        report.total()
                    ),
                });
            }
        }
        Err(msg) => failures.push(OracleFailure {
            oracle: OracleKind::PanicFreedom,
            detail: format!("ingest panicked: {msg}"),
        }),
    }

    // Oracle 7: the located-text sink agrees with the reference DOM walk
    // over `parse(x)` — its runs and its title rule — parsing the whole
    // input, replaying the tree (`located_text`), and streaming the
    // input split at the chunk oracle's points.
    match guarded(|| {
        let doc = parse(input);
        let expected = (reference_located_text(&doc), doc.title().is_some());
        if located_text(&doc) != expected.0 {
            return Some("located_text(&parse(x))".to_owned());
        }
        if sink_located_text(&[input]) != expected {
            return Some("the sink over the whole input".to_owned());
        }
        let points = split_points(input, split_seed);
        if !points.is_empty() && sink_located_text(&chunks_at(input, &points)) != expected {
            return Some(format!("the sink over chunks at {points:?}"));
        }
        None
    }) {
        Ok(Some(path)) => failures.push(OracleFailure {
            oracle: OracleKind::LocatedText,
            detail: format!("{path} differs from the reference walk over parse(x)"),
        }),
        Ok(None) => {}
        Err(msg) => failures.push(OracleFailure {
            oracle: OracleKind::PanicFreedom,
            detail: format!("located-text sink panicked: {msg}"),
        }),
    }

    Execution { coverage, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_input_passes_all_oracles() {
        let exec = execute(
            "<html><body><form action=\"/s\"><input name=q></form></body></html>",
            1,
        );
        assert!(!exec.failed(), "failures: {:?}", exec.failures);
        assert!(exec.coverage.edge_count() > 0);
    }

    #[test]
    fn pathological_inputs_pass_all_oracles() {
        for seed in crate::seeds::builtin_seeds() {
            let exec = execute(&seed, 7);
            assert!(!exec.failed(), "input {seed:?} failed: {:?}", exec.failures);
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let a = execute("<div><p>x</p></div>", 99);
        let b = execute("<div><p>x</p></div>", 99);
        assert_eq!(a.coverage.bitmap_hash(), b.coverage.bitmap_hash());
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn split_points_are_char_boundary_safe() {
        let input = "aé漢💣<p>x</p>";
        for seed in 0..32 {
            let points = split_points(input, seed);
            for &p in &points {
                assert!(input.is_char_boundary(p));
            }
            let chunks = chunks_at(input, &points);
            assert_eq!(chunks.concat(), input);
        }
    }

    #[test]
    fn located_text_oracle_checks_title_and_runs() {
        let input = "<noscript><title> </title><b>no</b></noscript><title>Late</title>\
                     <form>Find <input type=Hidden value=x><input value=\"Go  now\">\
                     <option>Ohio</option><script>var s;</script></form><p><img alt=pic>";
        let doc = parse(input);
        let (runs, has_title) = sink_located_text(&[input]);
        assert!(!has_title, "the first <title> decides, and it is blank");
        assert_eq!(has_title, doc.title().is_some());
        assert_eq!(runs, reference_located_text(&doc));
        let split = input.len() / 2;
        assert_eq!(
            sink_located_text(&[&input[..split], &input[split..]]),
            (runs, has_title)
        );
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let err = guarded(|| -> () { std::panic::panic_any("boom") });
        assert_eq!(err.err().as_deref(), Some("boom"));
    }
}
