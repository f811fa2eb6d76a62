//! Push-based incremental HTML parsing.
//!
//! [`StreamingParser`] accepts a document in arbitrary chunks —
//! [`push_chunk`](StreamingParser::push_chunk) for `&str` pieces,
//! [`push_bytes`](StreamingParser::push_bytes) for raw bytes that may split
//! UTF-8 sequences — and produces a [`Document`] bit-identical to
//! [`Document::parse`] over the concatenated input. That equivalence is the
//! contract PR 6's fuzz oracle pinned (`parse_chunked(chunks) ==
//! parse(chunks.concat())`) and the property suites replay across random
//! split points.
//!
//! ## How resumption works
//!
//! The tokenizer's grammar is EOF-sensitive: an unterminated `<!--`, a tag
//! missing its `>`, or a lone `</` at end of input all lex differently than
//! they would with more bytes behind them. A naive "lex what you have"
//! strategy would therefore commit tokens that a longer input contradicts.
//! Instead the parser buffers the unconsumed tail and, on every push,
//! re-lexes it with a fresh [`Tokenizer`] whose raw-text state was restored
//! from the previous drain. Each lexed token is either
//!
//! * **committed** — fed to the incremental tree builder, its bytes dropped
//!   from the buffer, the tokenizer's raw-text state persisted — or
//! * **held** — discarded along with any state changes, ending the drain.
//!
//! A token is held whenever it ends within one byte of the buffer's end:
//! every EOF-dependent branch consumes input to the very end, and the one
//! branch that does not (a stray `</` lexing as `Text("<")` with a single
//! byte left) still lands inside that margin. Holding is always safe — held
//! bytes are simply re-lexed with more context on the next push — so the
//! rule over-holds (e.g. a text run touching the buffer end waits for the
//! next chunk rather than splitting into two text nodes) and never
//! under-holds. [`finish`](StreamingParser::finish) runs one final drain
//! with the EOF interpretation enabled, where nothing is held.
//!
//! Between pushes the parser retains only the held tail: partial tags,
//! entities, text runs, and — the one unbounded case — the body of a
//! raw-text element (`<script>`…) whose close tag has not arrived, which
//! cannot be emitted early because the token model represents it as a
//! single text run.
//!
//! A drain that commits nothing re-lexed a held token from its start. So
//! after such a drain the parser does not lex again until the buffer has
//! at least doubled: a comment, text run or `<script>` body that arrives
//! in many small pushes is then lexed O(log n) times, not once per push.
//! Committing later is always safe by the over-hold argument above, so
//! the retry rule never changes the output; `finish` always drains.
//!
//! The tree builder reports to any [`TreeSink`]: the default [`DocSink`]
//! builds the [`Document`], and a sink that only reads the events (the
//! located-text sink of [`crate::extract`]) gets the same events in the
//! same order as a whole-input [`parse_into`](crate::dom::parse_into).

use crate::coverage::Coverage;
use crate::dom::{DocSink, Document, ParseStats, TreeBuilder, TreeSink};
use crate::tokenizer::{Token, Tokenizer};

/// An incremental HTML parser: push chunks, then [`finish`] into a
/// [`Document`] identical to parsing the whole input at once (or, over
/// another [`TreeSink`], [`finish_sink`] into that sink).
///
/// ```
/// use cafc_html::StreamingParser;
///
/// let mut parser = StreamingParser::new();
/// parser.push_chunk("<p>hel");
/// parser.push_chunk("lo <b>wor");
/// parser.push_chunk("ld</b></p>");
/// assert_eq!(parser.finish(), cafc_html::parse("<p>hello <b>world</b></p>"));
/// ```
///
/// [`finish`]: StreamingParser::finish
/// [`finish_sink`]: StreamingParser::finish_sink
pub struct StreamingParser<S = DocSink> {
    /// Decoded-but-uncommitted input: the held tail of the document.
    buf: String,
    /// 0–3 trailing bytes of an incomplete UTF-8 sequence from
    /// [`push_bytes`](StreamingParser::push_bytes).
    utf8_tail: Vec<u8>,
    /// Raw-text element the committed prefix left open, if any.
    raw_text_until: Option<&'static str>,
    /// Buffer length below which a push does not lex: twice the length
    /// at the last drain that committed nothing.
    retry_at: usize,
    builder: TreeBuilder<S>,
}

impl StreamingParser {
    /// An empty parser that builds a [`Document`].
    pub fn new() -> StreamingParser {
        StreamingParser::with_sink(DocSink::default())
    }

    /// End of input: resolve the held tail under EOF semantics and return
    /// the document.
    pub fn finish(self) -> Document {
        self.finish_with_stats().0
    }

    /// Like [`finish`](StreamingParser::finish), also reporting which
    /// structural caps were hit.
    pub fn finish_with_stats(self) -> (Document, ParseStats) {
        let (sink, stats) = self.finish_sink();
        (sink.into_document(), stats)
    }
}

impl<S: TreeSink> StreamingParser<S> {
    /// An empty parser reporting to `sink`.
    ///
    /// Coverage instrumentation stays disabled internally: held tokens are
    /// re-lexed on later pushes, which would double-count tokenizer
    /// transitions; the fuzz oracles compare the *outputs*, which are
    /// unaffected.
    pub fn with_sink(sink: S) -> StreamingParser<S> {
        StreamingParser {
            buf: String::new(),
            utf8_tail: Vec::new(),
            raw_text_until: None,
            retry_at: 0,
            builder: TreeBuilder::new(sink, Coverage::disabled()),
        }
    }

    /// Feed the next chunk of the document.
    pub fn push_chunk(&mut self, chunk: &str) {
        if self.utf8_tail.is_empty() {
            self.buf.push_str(chunk);
            self.drain(false);
        } else {
            // A byte push left a dangling UTF-8 prefix; route this chunk
            // through the byte path so the tail resolves consistently.
            self.push_bytes(chunk.as_bytes());
        }
    }

    /// Feed raw bytes, which may end mid-way through a UTF-8 sequence.
    ///
    /// Invalid sequences decode to U+FFFD exactly as
    /// [`String::from_utf8_lossy`] would over the concatenated byte stream,
    /// so `push_bytes` over any split of `bytes` is equivalent to
    /// `push_chunk(&String::from_utf8_lossy(bytes))` over the whole.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        let mut data = std::mem::take(&mut self.utf8_tail);
        data.extend_from_slice(bytes);
        let mut rest: &[u8] = &data;
        loop {
            match std::str::from_utf8(rest) {
                Ok(valid) => {
                    self.buf.push_str(valid);
                    break;
                }
                Err(err) => {
                    let (valid, bad) = rest.split_at(err.valid_up_to());
                    if let Ok(valid) = std::str::from_utf8(valid) {
                        self.buf.push_str(valid);
                    }
                    match err.error_len() {
                        // Incomplete trailing sequence: keep it for the
                        // next push to complete.
                        None => {
                            self.utf8_tail = bad.to_vec();
                            break;
                        }
                        // Invalid bytes: one replacement char per maximal
                        // invalid subsequence, per from_utf8_lossy.
                        Some(n) => {
                            self.buf.push('\u{FFFD}');
                            rest = &bad[n..];
                        }
                    }
                }
            }
        }
        self.drain(false);
    }

    /// Bytes currently buffered awaiting more input (held tail plus any
    /// incomplete UTF-8 sequence).
    pub fn buffered(&self) -> usize {
        self.buf.len() + self.utf8_tail.len()
    }

    /// End of input: resolve the held tail under EOF semantics and return
    /// the sink with the caps hit while parsing.
    pub fn finish_sink(mut self) -> (S, ParseStats) {
        if !self.utf8_tail.is_empty() {
            // The stream ended inside a UTF-8 sequence: one replacement
            // char, as from_utf8_lossy emits for a truncated tail.
            self.utf8_tail.clear();
            self.buf.push('\u{FFFD}');
        }
        self.drain(true);
        self.builder.finish()
    }

    /// Lex the buffered tail, committing every token that cannot be
    /// contradicted by future input (all of them when `at_eof`).
    fn drain(&mut self, at_eof: bool) {
        if !at_eof && self.buf.len() < self.retry_at {
            return;
        }
        let mut committed = 0usize;
        let mut committed_raw = self.raw_text_until;
        {
            let mut lexer = Tokenizer::new(&self.buf);
            lexer.raw_text_until = self.raw_text_until;
            loop {
                let before = lexer.pos();
                let Some(token) = lexer.next_token() else {
                    break;
                };
                let end = lexer.pos();
                // Hold anything ending within a byte of the buffer end: the
                // EOF-dependent lexes all consume to the end, and the stray
                // `</` case stops one byte short of it.
                if !at_eof && self.buf.len() - end <= 1 {
                    break;
                }
                if let Token::Text(t) = &token {
                    if t.is_empty() {
                        // Mirror the Iterator impl: skip empty text, with
                        // its safety bump against non-advancing lexes.
                        if end == before {
                            lexer.bump(1);
                        }
                        committed = lexer.pos();
                        committed_raw = lexer.raw_text_until;
                        continue;
                    }
                }
                self.builder.feed(token);
                committed = end;
                committed_raw = lexer.raw_text_until;
            }
        }
        self.raw_text_until = committed_raw;
        self.retry_at = if committed == 0 {
            self.buf.len().saturating_mul(2)
        } else {
            0
        };
        self.buf.drain(..committed);
    }
}

impl Default for StreamingParser {
    fn default() -> Self {
        StreamingParser::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Parse `input` streamed one `step`-byte (char-boundary-snapped) chunk
    /// at a time and assert equivalence with the whole-input parse.
    fn assert_streamed(input: &str, step: usize) {
        let mut parser = StreamingParser::new();
        let mut start = 0;
        while start < input.len() {
            let mut end = (start + step).min(input.len());
            while !input.is_char_boundary(end) {
                end += 1;
            }
            parser.push_chunk(&input[start..end]);
            start = end;
        }
        assert_eq!(
            parser.finish(),
            parse(input),
            "streamed parse diverged (step {step}): {input:?}"
        );
    }

    const SAMPLES: &[&str] = &[
        "",
        "plain text, no markup",
        "<p>hello <b>world</b></p>",
        "<ul><li>a<li>b<li>c</ul>",
        "<div><span>a</div><p>b</p>",
        r#"<form action="/search" method=POST><input type=text name=kw></form>"#,
        r#"<a title="A &amp; B">x &lt; y</a>"#,
        "<script>if (a < b) { document.write(\"</p>\"); }</script>after",
        "<textarea><b>not bold</b></textarea>",
        "<script>var unterminated = 1;",
        "a<!-- comment -->b",
        "a<!-- unterminated",
        "<!DOCTYPE html><p>x</p>",
        "1 < 2 and 3 > 2",
        "</p stray><b>x</b></div>",
        "<input type=text",
        "text ending in <",
        "text ending in </",
        "<",
        "</",
        "<>",
        "< >",
        "<a b=\"",
        "<a b='x",
        "<!",
        "<!-",
        "&",
        "&#",
        "&#;",
        "caf\u{e9} r\u{e9}sum\u{e9} \u{2603} <b>\u{1f600}</b>",
    ];

    #[test]
    fn every_split_matches_whole_parse() {
        for input in SAMPLES {
            for step in 1..=8 {
                assert_streamed(input, step);
            }
            assert_streamed(input, 64);
        }
    }

    #[test]
    fn single_push_matches_whole_parse() {
        for input in SAMPLES {
            let mut parser = StreamingParser::new();
            parser.push_chunk(input);
            assert_eq!(parser.finish(), parse(input), "single push: {input:?}");
        }
    }

    #[test]
    fn byte_pushes_split_utf8_sequences() {
        let input = "caf\u{e9} \u{2603} <b>\u{1f600}</b> fin";
        for step in 1..=5 {
            let mut parser = StreamingParser::new();
            for chunk in input.as_bytes().chunks(step) {
                parser.push_bytes(chunk);
            }
            assert_eq!(parser.finish(), parse(input), "byte step {step}");
        }
    }

    #[test]
    fn invalid_bytes_match_lossy_decoding() {
        let bytes: &[u8] = b"<p>a\xff\xfeb</p><i>\xf0\x9f tail</i>";
        let expected = parse(&String::from_utf8_lossy(bytes));
        for step in 1..=6 {
            let mut parser = StreamingParser::new();
            for chunk in bytes.chunks(step) {
                parser.push_bytes(chunk);
            }
            assert_eq!(parser.finish(), expected, "byte step {step}");
        }
    }

    #[test]
    fn truncated_utf8_tail_becomes_replacement_char() {
        let mut parser = StreamingParser::new();
        parser.push_bytes(b"<p>x\xf0\x9f");
        assert_eq!(parser.finish(), parse("<p>x\u{fffd}"));
    }

    #[test]
    fn str_chunk_after_dangling_byte_tail() {
        // A str push while a byte tail dangles must not reorder the two.
        let mut parser = StreamingParser::new();
        parser.push_bytes(b"<p>a\xc3");
        parser.push_chunk("<i>b</i>");
        // The dangling \xc3 cannot be completed by the next chunk's ASCII
        // lead byte, so it decodes to U+FFFD in place.
        assert_eq!(parser.finish(), parse("<p>a\u{fffd}<i>b</i>"));
    }

    #[test]
    fn buffered_drops_after_commit() {
        let mut parser = StreamingParser::new();
        parser.push_chunk("<p>hello</p><i>");
        // Everything except the trailing unterminated tag is committed.
        assert!(parser.buffered() <= "<i>".len());
    }

    #[test]
    fn raw_text_state_survives_chunk_boundaries() {
        let mut parser = StreamingParser::new();
        parser.push_chunk("<script>if (a <");
        parser.push_chunk(" b) {}</scr");
        parser.push_chunk("ipt>done");
        assert_eq!(parser.finish(), parse("<script>if (a < b) {}</script>done"));
    }

    #[test]
    fn finish_with_stats_reports_caps() {
        let html = "<div>".repeat(5000) + "payload" + &"</div>".repeat(5000);
        let mut parser = StreamingParser::new();
        for chunk in html.as_bytes().chunks(97) {
            parser.push_bytes(chunk);
        }
        let (doc, stats) = parser.finish_with_stats();
        let (expected_doc, expected_stats) = Document::parse_with_stats(&html);
        assert!(stats.depth_capped);
        assert_eq!(stats, expected_stats);
        assert_eq!(doc, expected_doc);
    }
}
