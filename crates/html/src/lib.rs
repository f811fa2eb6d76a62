//! # cafc-html
//!
//! A small, dependency-free HTML processing library built for the CAFC
//! (Context-Aware Form Clustering) system. It provides exactly what the
//! form-page model of Barbosa, Freire & Silva (ICDE 2007) needs from HTML:
//!
//! * a forgiving [`tokenizer`] that turns real-world HTML into a token
//!   stream (start/end tags, attributes, text, comments, doctypes), with
//!   entity decoding and raw-text handling for `<script>`/`<style>`;
//! * a [`dom`] tree builder that recovers from unbalanced markup the way
//!   browsers roughly do (void elements, implicit closes, stray end tags)
//!   and reports to a [`TreeSink`]: a [`Document`], or a sink that never
//!   builds a tree;
//! * a [`form`] extractor that pulls `<form>` elements with their fields,
//!   option values and submission metadata — the *FC* feature space;
//! * a located-text [`extract`] sink that emits every text run together
//!   with *where* it occurred (title, body, inside a form, inside an
//!   `<option>`, anchor text) as it is parsed — the raw material for the
//!   location-aware TF-IDF weights of the *PC* and *FC* feature spaces.
//!
//! The parser is intentionally not a full HTML5 implementation: it is a
//! robust approximation tuned for text and form extraction, which is all the
//! clustering pipeline observes. It never panics on malformed input.
//!
//! ## Quick example
//!
//! ```
//! let html = r#"<html><head><title>Find a Job</title></head>
//! <body><h1>Search Jobs</h1>
//! <form action="/search" method="get">
//!   Keywords: <input type="text" name="kw">
//!   <select name="state"><option>Utah</option><option>Ohio</option></select>
//!   <input type="submit" value="Go">
//! </form></body></html>"#;
//!
//! let doc = cafc_html::parse(html);
//! assert_eq!(doc.title().as_deref(), Some("Find a Job"));
//! let forms = cafc_html::extract_forms(&doc);
//! assert_eq!(forms.len(), 1);
//! assert_eq!(forms[0].visible_field_count(), 2); // text + select (submit excluded)
//! ```

#![warn(missing_docs)]

pub mod coverage;
pub mod dom;
pub mod entities;
pub mod extract;
pub mod form;
pub mod sanitize;
pub mod stream;
pub mod tokenizer;

pub use coverage::{Coverage, CoverageMap, CoveragePoint};
pub use dom::{parse_into, DocSink, Document, Node, NodeId, ParseStats, TreeSink};
pub use extract::{located_text, LocatedSink, LocatedText, TextLocation};
pub use form::{extract_forms, Form, FormField, FormFieldKind, FormMethod};
pub use sanitize::strip_control_chars;
pub use stream::StreamingParser;
pub use tokenizer::{Attribute, Token, Tokenizer};

/// Parse an HTML document into a DOM tree.
///
/// This is the main entry point of the crate. Parsing is infallible: any
/// byte sequence produces *some* tree (malformed constructs degrade into
/// text or are skipped), mirroring the paper's requirement that form pages
/// "designed primarily for human consumption" are processed fully
/// automatically.
pub fn parse(html: &str) -> Document {
    dom::Document::parse(html)
}

/// Parse an HTML document delivered in chunks.
///
/// A thin wrapper over [`StreamingParser`]: each chunk is pushed as it
/// arrives and only the unconsumed tail (partial tags, entities, raw-text
/// runs) is buffered between pushes — the input is never reassembled. The
/// contract pinned by the `cafc-fuzz` chunked≡whole oracle since PR 6
/// still holds, now over the real incremental implementation:
/// `parse_chunked(chunks) == parse(chunks.concat())` for every split of
/// every input.
pub fn parse_chunked<S: AsRef<str>>(chunks: &[S]) -> Document {
    let mut parser = StreamingParser::new();
    for chunk in chunks {
        parser.push_chunk(chunk.as_ref());
    }
    parser.finish()
}

/// The syntactic atoms of this parser's grammar, for fuzzing dictionaries.
///
/// Extracted from the state machine itself: markup delimiters the
/// tokenizer dispatches on, the raw-text and void element names, the
/// implicit-close tag pairs, and entity forms (every named entity plus the
/// numeric prefixes). Sorted and deduplicated, so the output is stable as
/// long as the grammar is — a property the fuzz engine's dictionary tests
/// pin.
pub fn syntax_dictionary() -> Vec<String> {
    let mut atoms: Vec<String> = Vec::new();
    // Markup delimiters and quoting forms the tokenizer branches on.
    for s in [
        "<",
        ">",
        "</",
        "/>",
        "<!--",
        "-->",
        "<!",
        "<?",
        "<!DOCTYPE html>",
        "=",
        "=\"",
        "='",
        "\"",
        "'",
        "/",
        " ",
    ] {
        atoms.push(s.to_owned());
    }
    // Element vocabulary: raw-text, void, and implicit-close names.
    for name in tokenizer::RAW_TEXT_ELEMENTS {
        atoms.push(format!("<{name}>"));
        atoms.push(format!("</{name}>"));
    }
    for name in dom::VOID_ELEMENTS {
        atoms.push(format!("<{name}>"));
    }
    for (incoming, closes) in dom::IMPLICIT_CLOSE {
        atoms.push(format!("<{incoming}>"));
        atoms.push(format!("<{closes}>"));
    }
    // Entity forms: numeric prefixes and every named entity.
    for s in ["&", "&#", "&#x", "&#65;", "&#x41;", "&#0;", "&#x110000;"] {
        atoms.push(s.to_owned());
    }
    for (name, _) in entities::NAMED {
        atoms.push(format!("&{name};"));
        // Missing-semicolon form: passes through undecoded, a distinct path.
        atoms.push(format!("&{name}"));
    }
    atoms.sort();
    atoms.dedup();
    atoms
}

#[cfg(test)]
mod tests {
    #[test]
    fn end_to_end_smoke() {
        let doc = super::parse("<p>hello <b>world</b></p>");
        let text: Vec<_> = super::located_text(&doc);
        let joined: String = text
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        assert!(joined.contains("hello"));
        assert!(joined.contains("world"));
    }
}
