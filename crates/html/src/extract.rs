//! Located text extraction — the raw material for location-aware TF-IDF.
//!
//! The form-page model weights a term by *where* it occurs (Equation 1's
//! `LOC_i` factor): option values inside forms are down-weighted because
//! they reflect database *contents* rather than schema; title terms are
//! up-weighted because, like search engines, the paper treats document
//! titles as strong topic indicators. [`LocatedSink`] tags every text run
//! with its [`TextLocation`] as the tree builder reports it, so ingestion
//! needs no tree; [`located_text`] replays a parsed [`Document`] through
//! the same sink, so the location rules live in one place.

use crate::dom::{normalize_ws, Document, Node, NodeId, TreeSink};
use crate::tokenizer::Attribute;

/// Where a text run occurred in the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TextLocation {
    /// Inside `<title>`.
    Title,
    /// Inside a heading element (`<h1>`–`<h6>`).
    Heading,
    /// Anchor text of a link (outside any form).
    Anchor,
    /// Ordinary body text outside any form.
    Body,
    /// Free text between `<form>` tags (labels, captions) excluding options.
    FormText,
    /// Text inside an `<option>` element of a form.
    FormOption,
    /// Visible attribute text of form fields (button values, prefills).
    FormValue,
}

impl TextLocation {
    /// True for locations that belong to the *form content* (FC) space.
    pub fn is_form(self) -> bool {
        matches!(
            self,
            TextLocation::FormText | TextLocation::FormOption | TextLocation::FormValue
        )
    }

    /// All locations, for exhaustive iteration in tests and weighting tables.
    pub const ALL: [TextLocation; 7] = [
        TextLocation::Title,
        TextLocation::Heading,
        TextLocation::Anchor,
        TextLocation::Body,
        TextLocation::FormText,
        TextLocation::FormOption,
        TextLocation::FormValue,
    ];
}

/// A text run and where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedText {
    /// The text (entity-decoded, trimmed, non-empty).
    pub text: String,
    /// Its location class.
    pub location: TextLocation,
}

/// The context an open element gives everything inside it.
#[derive(Debug, Clone, Copy, Default)]
struct Ctx {
    /// Inside `script`, `style` or `noscript`: nothing is emitted.
    skip: bool,
    in_title: bool,
    in_heading: bool,
    in_anchor: bool,
    in_form: bool,
    in_option: bool,
}

impl Ctx {
    fn location(self) -> TextLocation {
        if self.in_form {
            if self.in_option {
                TextLocation::FormOption
            } else {
                TextLocation::FormText
            }
        } else if self.in_title {
            TextLocation::Title
        } else if self.in_heading {
            TextLocation::Heading
        } else if self.in_anchor {
            TextLocation::Anchor
        } else {
            TextLocation::Body
        }
    }
}

/// The first `<title>` element's state, for [`LocatedSink::has_title`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TitleState {
    /// No `<title>` element yet.
    Unseen,
    /// The first `<title>` is open at this depth of the open stack.
    Open(usize),
    /// The first `<title>` is closed (or never opened).
    Done,
}

/// A [`TreeSink`] that hands each visible text run to `emit` with its
/// [`TextLocation`], as the run is parsed.
///
/// The rules, applied to the context of the open elements:
/// * form beats title, heading, anchor and body; `<option>` inside a form
///   is [`TextLocation::FormOption`];
/// * `script`, `style` and `noscript` subtrees emit nothing;
/// * inside a form, the `value` of an `input` whose `type` is not
///   `hidden` or `password` (ASCII case-insensitive) is
///   [`TextLocation::FormValue`];
/// * an `img`'s `alt` text takes the location of its context.
///
/// Runs reach `emit` trimmed and non-empty, but with inner whitespace as
/// parsed: [`located_text`] normalizes it, and text analysis splits on
/// every non-alphanumeric character, where whitespace runs make no
/// difference.
pub struct LocatedSink<F> {
    emit: F,
    /// Context of each open element, innermost last.
    stack: Vec<Ctx>,
    title: TitleState,
    title_text: bool,
}

impl<F: FnMut(&str, TextLocation)> LocatedSink<F> {
    /// A sink handing runs to `emit`.
    pub fn new(emit: F) -> LocatedSink<F> {
        LocatedSink {
            emit,
            stack: Vec::new(),
            title: TitleState::Unseen,
            title_text: false,
        }
    }

    /// Whether the page has a title, by [`Document::title`]'s rule: the
    /// *first* `<title>` element decides, and it has a title when some text
    /// appended while it was open has a non-whitespace character. A first
    /// title that never opened (self-closing, or past the depth cap) leaves
    /// the page without one, whatever later titles hold.
    pub fn has_title(&self) -> bool {
        self.title_text
    }

    fn ctx(&self) -> Ctx {
        self.stack.last().copied().unwrap_or_default()
    }

    fn emit_run(&mut self, text: &str, location: TextLocation) {
        let text = text.trim();
        if !text.is_empty() {
            (self.emit)(text, location);
        }
    }
}

/// The first attribute value named `name`.
fn attr<'s>(attrs: &'s [Attribute<'_>], name: &str) -> Option<&'s str> {
    attrs
        .iter()
        .find(|a| a.name == name)
        .map(|a| a.value.as_ref())
}

impl<F: FnMut(&str, TextLocation)> TreeSink for LocatedSink<F> {
    fn element(&mut self, name: &str, attrs: &[Attribute<'_>], open: bool) {
        if name == "title" && self.title == TitleState::Unseen {
            self.title = if open {
                TitleState::Open(self.stack.len())
            } else {
                TitleState::Done
            };
        }
        let mut ctx = self.ctx();
        if !ctx.skip {
            match name {
                "script" | "style" | "noscript" => ctx.skip = true,
                "title" => ctx.in_title = true,
                "h1" | "h2" | "h3" | "h4" | "h5" | "h6" => ctx.in_heading = true,
                "a" => ctx.in_anchor = true,
                "form" => ctx.in_form = true,
                "option" => ctx.in_option = true,
                "input" if ctx.in_form => {
                    // Visible value text of buttons and prefilled inputs.
                    let hidden = attr(attrs, "type").is_some_and(|ty| {
                        ty.eq_ignore_ascii_case("hidden") || ty.eq_ignore_ascii_case("password")
                    });
                    if let (false, Some(value)) = (hidden, attr(attrs, "value")) {
                        self.emit_run(value, TextLocation::FormValue);
                    }
                }
                "img" => {
                    // alt text is visible text in every location class.
                    if let Some(alt) = attr(attrs, "alt") {
                        self.emit_run(alt, ctx.location());
                    }
                }
                _ => {}
            }
        }
        if open {
            self.stack.push(ctx);
        }
    }

    fn close(&mut self, n: usize) {
        let depth = self.stack.len().saturating_sub(n);
        self.stack.truncate(depth);
        if let TitleState::Open(at) = self.title {
            if depth <= at {
                self.title = TitleState::Done;
            }
        }
    }

    fn text(&mut self, text: &str) {
        if matches!(self.title, TitleState::Open(_)) && !self.title_text {
            self.title_text = text.chars().any(|c| !c.is_whitespace());
        }
        let ctx = self.ctx();
        if !ctx.skip {
            self.emit_run(text, ctx.location());
        }
    }

    fn comment(&mut self, _: &str) {}
}

/// Extract every visible text run of the document with its location,
/// whitespace-normalized, by the rules of [`LocatedSink`].
///
/// The replay carries an explicit stack — not the call stack — so document
/// depth (already capped by the parser) can never overflow it.
pub fn located_text(doc: &Document) -> Vec<LocatedText> {
    let mut out = Vec::new();
    let mut sink = LocatedSink::new(|text: &str, location| {
        out.push(LocatedText {
            text: normalize_ws(text),
            location,
        })
    });
    replay(doc, &mut sink);
    out
}

/// Feed `doc` to `sink` as the tree builder would have: every element
/// opens, and closes after its children.
fn replay<S: TreeSink>(doc: &Document, sink: &mut S) {
    // `None` closes the innermost open element.
    let mut pending: Vec<Option<NodeId>> = doc.roots().iter().rev().map(|&r| Some(r)).collect();
    while let Some(item) = pending.pop() {
        let Some(id) = item else {
            sink.close(1);
            continue;
        };
        match doc.node(id) {
            Node::Text(t) => sink.text(t),
            Node::Comment(c) => sink.comment(c),
            Node::Element {
                name,
                attrs,
                children,
            } => {
                sink.element(name, attrs, true);
                pending.push(None);
                pending.extend(children.iter().rev().map(|&c| Some(c)));
            }
        }
    }
}

/// Convenience: all text of the given location classes joined with spaces.
pub fn text_in_locations(doc: &Document, locations: &[TextLocation]) -> String {
    located_text(doc)
        .into_iter()
        .filter(|lt| locations.contains(&lt.location))
        .map(|lt| lt.text)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn extract(html: &str) -> Vec<LocatedText> {
        located_text(&parse(html))
    }

    fn lt(text: &str, location: TextLocation) -> LocatedText {
        LocatedText {
            text: text.into(),
            location,
        }
    }

    #[test]
    fn title_heading_body() {
        let got = extract("<title>Books</title><h1>Store</h1><p>welcome</p>");
        assert_eq!(
            got,
            vec![
                lt("Books", TextLocation::Title),
                lt("Store", TextLocation::Heading),
                lt("welcome", TextLocation::Body),
            ]
        );
    }

    #[test]
    fn anchor_text() {
        let got = extract(r#"<a href="/x">cheap flights</a>"#);
        assert_eq!(got, vec![lt("cheap flights", TextLocation::Anchor)]);
    }

    #[test]
    fn form_text_vs_option() {
        let got = extract("<form>Destination <select><option>Paris</option></select></form>");
        assert_eq!(
            got,
            vec![
                lt("Destination", TextLocation::FormText),
                lt("Paris", TextLocation::FormOption),
            ]
        );
    }

    #[test]
    fn form_overrides_anchor_and_heading() {
        let got = extract("<form><h2>Search</h2><a href=x>advanced</a></form>");
        assert_eq!(
            got,
            vec![
                lt("Search", TextLocation::FormText),
                lt("advanced", TextLocation::FormText)
            ]
        );
    }

    #[test]
    fn button_value_is_form_value() {
        let got = extract(r#"<form><input type=submit value="Find Flights"></form>"#);
        assert_eq!(got, vec![lt("Find Flights", TextLocation::FormValue)]);
    }

    #[test]
    fn hidden_and_password_values_invisible() {
        let got = extract(
            r#"<form><input type=hidden value=secret><input type=password value=pw></form>"#,
        );
        assert!(got.is_empty());
    }

    #[test]
    fn script_and_style_skipped() {
        let got = extract("<script>skip me</script><style>.x{}</style><p>keep</p>");
        assert_eq!(got, vec![lt("keep", TextLocation::Body)]);
    }

    #[test]
    fn img_alt_text() {
        let got = extract(r#"<p><img src=x.gif alt="rental cars"></p>"#);
        assert_eq!(got, vec![lt("rental cars", TextLocation::Body)]);
    }

    #[test]
    fn text_outside_form_is_body() {
        // Figure 1(c) in the paper: label outside the FORM tags.
        let got = extract("<b>Search Jobs</b><form><input name=q></form>");
        assert_eq!(got, vec![lt("Search Jobs", TextLocation::Body)]);
    }

    #[test]
    fn text_in_locations_helper() {
        let doc = parse("<title>A</title><p>B</p><form>C</form>");
        assert_eq!(
            text_in_locations(&doc, &[TextLocation::Title, TextLocation::Body]),
            "A B"
        );
        assert_eq!(text_in_locations(&doc, &[TextLocation::FormText]), "C");
    }

    #[test]
    fn whitespace_normalized() {
        let got = extract("<p>a\n\n   b</p>");
        assert_eq!(got, vec![lt("a b", TextLocation::Body)]);
    }

    #[test]
    fn is_form_predicate() {
        assert!(TextLocation::FormText.is_form());
        assert!(TextLocation::FormOption.is_form());
        assert!(TextLocation::FormValue.is_form());
        assert!(!TextLocation::Body.is_form());
        assert!(!TextLocation::Title.is_form());
    }
}
