//! Table-driven pathological-input tests for the HTML substrate: the
//! entity decoder and tokenizer must absorb hostile fragments — truncated
//! entities, out-of-range code points, CDATA-like junk, unterminated tags —
//! without panicking and with documented passthrough behavior — and in
//! time linear in their size, raw-text bodies and held streaming tokens
//! included.

use cafc_html::{located_text, parse, StreamingParser, Token, Tokenizer};
use std::time::{Duration, Instant};

#[test]
fn entity_decoding_pathological_table() {
    // (input, expected decode output). Unknown and malformed entities pass
    // through verbatim — the browser behavior that keeps `?a=1&b=2` intact.
    let cases: &[(&str, &str)] = &[
        // Unterminated at EOF (mid-entity cut, the TruncateMidEntity shape).
        ("&amp", "&amp"),
        ("&#12", "&#12"),
        ("&#x1F4A", "&#x1F4A"),
        ("&quo", "&quo"),
        // Lone and bare ampersands.
        ("&", "&"),
        ("a & b", "a & b"),
        ("&;", "&;"),
        ("&&&", "&&&"),
        // Numeric references beyond the Unicode range.
        ("&#xFFFFFFFF;", "&#xFFFFFFFF;"),
        ("&#x110000;", "&#x110000;"),
        ("&#99999999;", "&#99999999;"),
        // NUL and C1 controls map to the replacement character.
        ("&#0;", "\u{fffd}"),
        ("&#x85;", "\u{fffd}"),
        // Unknown named entity passes through.
        ("&bogus;", "&bogus;"),
        // Over-long candidate (>32 chars) is not an entity.
        (
            "&aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa;",
            "&aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa;",
        ),
        // Sanity: the happy path still decodes around the hostile ones.
        ("&amp;&bogus;&lt;", "&&bogus;<"),
    ];
    for (input, expected) in cases {
        assert_eq!(
            cafc_html::entities::decode(input),
            *expected,
            "decode({input:?})"
        );
    }
}

#[test]
fn tokenizer_survives_pathological_fragments() {
    // None of these may panic; tokens must cover the input's visible text.
    let cases: &[&str] = &[
        "<",
        "<!",
        "</",
        "</>",
        "< >",
        "<3 apples for <5 dollars",
        "<input",                  // unterminated tag at EOF
        "<input name=\"q",         // EOF inside a quoted value
        "<a href=",                // EOF after '='
        "<![CDATA[ junk ]]>",      // CDATA-like junk
        "<!%$#@>",                 // bogus markup declaration
        "<script>var a = '<div>'", // unterminated raw-text element
        "<title>half a title",     // unterminated raw-text at EOF
        "<p/><p////>",             // slash soup
        "text &#x1F4A",            // mid-entity EOF inside text
        "\u{0}\u{1}<p>\u{7f}</p>", // control chars around markup
    ];
    for input in cases {
        let tokens = Tokenizer::run(input);
        // No token may carry an empty text payload (the tokenizer's own
        // contract), panic-free tokenization is the main assertion.
        for t in &tokens {
            if let Token::Text(s) = t {
                assert!(!s.is_empty(), "empty text token for {input:?}");
            }
        }
    }
}

#[test]
fn cdata_like_junk_does_not_leak_into_text() {
    let doc = parse("<p>before</p><![CDATA[ junk ]]><p>after</p>");
    let text: String = located_text(&doc)
        .into_iter()
        .map(|lt| lt.text)
        .collect::<Vec<_>>()
        .join(" ");
    assert!(text.contains("before") && text.contains("after"));
}

#[test]
fn parser_survives_pathological_documents() {
    // End-to-end: parse + text extraction on the tokenizer table plus a few
    // document-scale horrors.
    let mut cases: Vec<String> = vec![
        "<form><form><form><input name=a".to_owned(),
        "</div></div></div>".to_owned(),
        format!("<div title=\"{}\">deep breath</div>", "x".repeat(100_000)),
        format!("{}payload", "<div>".repeat(2000)),
        "&#xFFFFFFFF;".repeat(500),
    ];
    cases.push(String::new());
    for html in &cases {
        let doc = parse(html);
        let _ = located_text(&doc); // must not panic
    }
}

#[test]
fn truncated_real_page_keeps_prefix_text() {
    let page = "<html><title>Jobs</title><body><p>search postings</p><form><inp";
    let doc = parse(page);
    let all: String = located_text(&doc)
        .into_iter()
        .map(|lt| lt.text)
        .collect::<Vec<_>>()
        .join(" ");
    assert!(all.contains("Jobs"));
    assert!(all.contains("search postings"));
}

/// Time `f` once.
fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// `time(16n) / time(n)`: about 16 for a linear pass, about 256 for a
/// quadratic one, so a bound of 48 leaves a 3x margin either side. Each
/// size's fastest of five runs, the sizes taking turns, so a slow spell of
/// a busy host inflates both or neither.
fn growth(n: usize, run: impl Fn(usize)) -> f64 {
    let (mut small, mut large) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        small = small.min(timed(|| run(n)));
        large = large.min(timed(|| run(16 * n)));
    }
    large.as_secs_f64() / small.as_secs_f64().max(1e-9)
}

#[test]
fn raw_text_elements_lex_in_linear_time() {
    // Each raw-text element used to lowercase a copy of the whole rest of
    // the input, so n of them cost O(n²).
    let page = |n: usize| "<TextArea>x</textAREA>".repeat(n);
    let three = page(3);
    let tokens = Tokenizer::run(&three);
    let one = [
        Token::StartTag {
            name: "textarea".into(),
            attrs: vec![],
            self_closing: false,
        },
        Token::Text("x".into()),
        Token::EndTag {
            name: "textarea".into(),
        },
    ];
    assert_eq!(tokens, [one.clone(), one.clone(), one].concat());
    for name in ["script", "style", "title", "xmp"] {
        let html = format!("<{name}>a</b></{name}x><{name}>");
        let tokens = Tokenizer::run(&html);
        assert_eq!(tokens[1], Token::Text("a</b>".into()), "{name}");
        assert_eq!(tokens.len(), 4, "{name}: {tokens:?}");
    }
    let ratio = growth(1_000, |n| {
        let html = page(n);
        assert_eq!(Tokenizer::new(&html).count(), 3 * n);
    });
    assert!(ratio < 48.0, "16x the elements took {ratio:.1}x the time");
}

#[test]
fn streaming_a_held_token_in_small_pushes_is_linear() {
    // A token still open at the end of the buffer is held and lexed again
    // on the next push; re-lexing it from its start on every 256-byte push
    // made each of these O(n²).
    let shapes: [fn(usize) -> String; 4] = [
        |n| format!("<p>a<!--{}-->b</p>", "c".repeat(n)),
        |n| format!("<p>{}</p>", "word ".repeat(n / 5)),
        |n| format!("<a title=\"{}\">b</a>", "t".repeat(n)),
        |n| format!("<p>a</p><script>{}", "s".repeat(n)),
    ];
    for shape in shapes {
        let html = shape(1000);
        let mut parser = StreamingParser::new();
        for chunk in html.as_bytes().chunks(256) {
            parser.push_bytes(chunk);
        }
        assert_eq!(parser.finish(), parse(&html));
    }
    let ratio = growth(32 * 1024, |n| {
        for shape in shapes {
            let html = shape(n);
            let mut parser = StreamingParser::new();
            for chunk in html.as_bytes().chunks(256) {
                parser.push_bytes(chunk);
            }
            assert!(!parser.finish().nodes().is_empty());
        }
    });
    assert!(ratio < 48.0, "16x the input took {ratio:.1}x the time");
}
