//! A forgiving HTML tokenizer.
//!
//! Converts raw HTML into a stream of [`Token`]s. The grammar accepted is a
//! superset of what well-formed pages use and degrades gracefully on the
//! malformed markup that dominates real form pages: unclosed tags, bare
//! attributes, unquoted values, stray `<` in text, case-mixed tag names.
//!
//! Tokens borrow from the input: a name is copied only when it needs
//! lowercasing, a value or text run only when it contains an entity.
//!
//! Raw-text elements (`<script>`, `<style>`, `<textarea>`, `<title>`,
//! `<xmp>`) are handled per the HTML parsing rules: their content is
//! consumed verbatim until the matching end tag, so JavaScript containing
//! `<` or `"</div>"` strings cannot corrupt the token stream.

use crate::coverage::{Coverage, CoveragePoint};
use crate::entities::decode;
use std::borrow::Cow;

/// A single HTML attribute, with its value entity-decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name, lowercased.
    pub name: Cow<'a, str>,
    /// Attribute value; empty string for bare attributes like `checked`.
    pub value: Cow<'a, str>,
}

impl Attribute<'_> {
    /// A copy that owns its strings.
    pub(crate) fn into_owned(self) -> Attribute<'static> {
        Attribute {
            name: Cow::Owned(self.name.into_owned()),
            value: Cow::Owned(self.value.into_owned()),
        }
    }
}

/// One lexical token of the HTML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<name attr=value ...>`; `self_closing` is true for `<br/>` forms.
    StartTag {
        /// Tag name, lowercased.
        name: Cow<'a, str>,
        /// Attributes in document order; duplicates preserved.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Tag name, lowercased.
        name: Cow<'a, str>,
    },
    /// A run of character data, entity-decoded. Never empty.
    Text(Cow<'a, str>),
    /// `<!-- ... -->` contents (not decoded).
    Comment(&'a str),
    /// `<!DOCTYPE ...>` body.
    Doctype(&'a str),
}

/// Elements whose content is raw text: no tags are recognized inside until
/// the matching close tag.
pub(crate) const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style", "textarea", "title", "xmp"];

/// Streaming tokenizer over an HTML string.
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// When set, we are inside a raw-text element of this name. The
    /// streaming parser snapshots and restores this field across chunk
    /// boundaries, so a `<script>` opened in one chunk keeps raw-text
    /// semantics in the next.
    pub(crate) raw_text_until: Option<&'static str>,
    /// Coverage sink; disabled (a single branch per record) by default.
    cov: Coverage,
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer over `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer::with_coverage(input, Coverage::disabled())
    }

    /// Create a tokenizer that reports state transitions to `cov`.
    pub fn with_coverage(input: &'a str, cov: Coverage) -> Self {
        Tokenizer {
            input,
            pos: 0,
            raw_text_until: None,
            cov,
        }
    }

    /// Current byte offset into the input. Monotonically non-decreasing
    /// and never past `input.len()` — an invariant the fuzz oracles pin.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Tokenize the whole input into a vector.
    pub fn run(input: &'a str) -> Vec<Token<'a>> {
        Tokenizer::new(input).collect()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    pub(crate) fn bump(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.input.len());
    }

    /// Scan raw text until `</name` (ASCII case-insensitive), comparing in
    /// place at each `</` so the scan is linear in the text it passes.
    fn next_raw_text(&mut self, name: &'static str) -> Option<Token<'a>> {
        let rest = self.rest();
        let bytes = rest.as_bytes();
        let needle_len = 2 + name.len();
        let mut from = 0;
        let close = loop {
            let Some(i) = rest[from..].find("</").map(|i| from + i) else {
                break None;
            };
            if bytes
                .get(i + 2..i + needle_len)
                .is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()))
            {
                break Some(i);
            }
            from = i + 2;
        };
        match close {
            Some(0) => {
                // Immediately at the end tag: consume `</name ...>`.
                self.cov.record(CoveragePoint::RawTextClose);
                self.raw_text_until = None;
                let after = &rest[needle_len..];
                let close = after.find('>').map(|i| i + 1).unwrap_or(after.len());
                self.bump(needle_len + close);
                Some(Token::EndTag {
                    name: Cow::Borrowed(name),
                })
            }
            Some(idx) => {
                self.bump(idx);
                self.cov.record(CoveragePoint::Text);
                Some(Token::Text(decode(&rest[..idx])))
            }
            None => {
                // Unterminated raw text: everything remaining is content.
                self.cov.record(CoveragePoint::RawTextUnterminated);
                self.raw_text_until = None;
                self.bump(rest.len());
                if rest.is_empty() {
                    None
                } else {
                    Some(Token::Text(decode(rest)))
                }
            }
        }
    }

    pub(crate) fn next_token(&mut self) -> Option<Token<'a>> {
        if let Some(name) = self.raw_text_until {
            return self.next_raw_text(name);
        }
        let rest = self.rest();
        if rest.is_empty() {
            return None;
        }
        if let Some(after_lt) = rest.strip_prefix('<') {
            if let Some(comment) = after_lt.strip_prefix("!--") {
                // Comment: scan for -->
                let (body, consumed) = match comment.find("-->") {
                    Some(i) => {
                        self.cov.record(CoveragePoint::Comment);
                        (&comment[..i], 4 + i + 3)
                    }
                    None => {
                        self.cov.record(CoveragePoint::CommentUnterminated);
                        (comment, rest.len())
                    }
                };
                self.bump(consumed);
                return Some(Token::Comment(body));
            }
            if after_lt.starts_with('!') || after_lt.starts_with('?') {
                // Doctype / processing instruction: scan for '>'.
                self.cov.record(CoveragePoint::Doctype);
                let (body, consumed) = match after_lt.find('>') {
                    Some(i) => (&after_lt[1..i], 1 + i + 1),
                    None => (&after_lt[1..], rest.len()),
                };
                self.bump(consumed);
                return Some(Token::Doctype(body.trim()));
            }
            if let Some(after_slash) = after_lt.strip_prefix('/') {
                // End tag.
                if after_slash
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic())
                {
                    let name_end = tag_name_end(after_slash);
                    let name = lowercase(&after_slash[..name_end]);
                    let after_name = &after_slash[name_end..];
                    let consumed = 2
                        + name_end
                        + after_name
                            .find('>')
                            .map(|i| i + 1)
                            .unwrap_or(after_name.len());
                    self.bump(consumed);
                    self.cov.record(CoveragePoint::EndTag);
                    self.cov
                        .record(CoveragePoint::TagName(CoveragePoint::tag_bucket(&name)));
                    return Some(Token::EndTag { name });
                }
                // `</` not followed by a letter: literal text.
                self.cov.record(CoveragePoint::StrayEndTag);
                self.bump(1);
                return Some(Token::Text(Cow::Borrowed("<")));
            }
            if after_lt
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
            {
                return Some(self.scan_start_tag(after_lt));
            }
            // Stray '<': treat as text.
            self.cov.record(CoveragePoint::StrayLt);
            self.bump(1);
            return Some(Token::Text(Cow::Borrowed("<")));
        }
        // Character data until the next '<'.
        self.cov.record(CoveragePoint::Text);
        let end = rest.find('<').unwrap_or(rest.len());
        let text = &rest[..end];
        self.bump(end);
        Some(Token::Text(decode(text)))
    }

    /// Parse a start tag beginning right after `<`; `after_lt` starts at the
    /// first name character.
    fn scan_start_tag(&mut self, after_lt: &'a str) -> Token<'a> {
        let name_end = tag_name_end(after_lt);
        let name = lowercase(&after_lt[..name_end]);
        self.cov.record(CoveragePoint::StartTag);
        self.cov
            .record(CoveragePoint::TagName(CoveragePoint::tag_bucket(&name)));
        let mut s = &after_lt[name_end..];
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            s = s.trim_start();
            if s.is_empty() {
                // Unterminated tag: consume everything.
                self.cov.record(CoveragePoint::TagUnterminatedEof);
                self.bump(self.rest().len());
                break;
            }
            if let Some(r) = s.strip_prefix("/>") {
                self.cov.record(CoveragePoint::SelfClosing);
                self_closing = true;
                let consumed = self.rest().len() - r.len();
                self.bump(consumed);
                break;
            }
            if let Some(r) = s.strip_prefix('>') {
                let consumed = self.rest().len() - r.len();
                self.bump(consumed);
                break;
            }
            if let Some(r) = s.strip_prefix('/') {
                // Stray slash not followed by '>': skip it.
                self.cov.record(CoveragePoint::StraySlash);
                s = r;
                continue;
            }
            // Attribute name.
            let name_len = s
                .char_indices()
                .find(|(_, c)| c.is_whitespace() || matches!(c, '=' | '>' | '/'))
                .map(|(i, _)| i)
                .unwrap_or(s.len());
            if name_len == 0 {
                // Unexpected char (e.g. a quote); skip one char to make progress.
                self.cov.record(CoveragePoint::TagJunkSkipped);
                let mut it = s.chars();
                it.next();
                s = it.as_str();
                continue;
            }
            let attr_name = lowercase(&s[..name_len]);
            self.cov
                .record(CoveragePoint::AttrName(CoveragePoint::attr_bucket(
                    &attr_name,
                )));
            s = s[name_len..].trim_start();
            let mut value = Cow::Borrowed("");
            if let Some(r) = s.strip_prefix('=') {
                let r = r.trim_start();
                if let Some(q) = r.strip_prefix('"') {
                    self.cov.record(CoveragePoint::AttrDoubleQuoted);
                    let end = q.find('"').unwrap_or(q.len());
                    value = decode(&q[..end]);
                    s = &q[(end + 1).min(q.len())..];
                } else if let Some(q) = r.strip_prefix('\'') {
                    self.cov.record(CoveragePoint::AttrSingleQuoted);
                    let end = q.find('\'').unwrap_or(q.len());
                    value = decode(&q[..end]);
                    s = &q[(end + 1).min(q.len())..];
                } else {
                    self.cov.record(CoveragePoint::AttrUnquoted);
                    let end = r
                        .char_indices()
                        .find(|(_, c)| c.is_whitespace() || *c == '>')
                        .map(|(i, _)| i)
                        .unwrap_or(r.len());
                    value = decode(&r[..end]);
                    s = &r[end..];
                }
            } else {
                self.cov.record(CoveragePoint::AttrBare);
            }
            attrs.push(Attribute {
                name: attr_name,
                value,
            });
        }
        if !self_closing {
            if let Some(&raw) = RAW_TEXT_ELEMENTS.iter().find(|&&raw| raw == name) {
                self.cov.record(CoveragePoint::RawTextEnter);
                self.raw_text_until = Some(raw);
            }
        }
        Token::StartTag {
            name,
            attrs,
            self_closing,
        }
    }
}

/// `s` lowercased, copied only when it has an ASCII uppercase letter.
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Index of the first character after the tag name.
fn tag_name_end(s: &str) -> usize {
    s.char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '-' || *c == ':'))
        .map(|(i, _)| i)
        .unwrap_or(s.len())
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        loop {
            let before = self.pos;
            let tok = self.next_token()?;
            // Suppress pure-whitespace text tokens only if empty after decode;
            // whitespace is significant for word separation, so keep it.
            if let Token::Text(t) = &tok {
                if t.is_empty() {
                    if self.pos == before {
                        // Safety net against non-advancing loops.
                        self.bump(1);
                    }
                    continue;
                }
            }
            debug_assert!(self.pos > before || self.pos == self.input.len());
            return Some(tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        Tokenizer::run(s)
    }

    fn start(name: &str) -> Token<'_> {
        Token::StartTag {
            name: name.into(),
            attrs: vec![],
            self_closing: false,
        }
    }

    #[test]
    fn simple_tags_and_text() {
        assert_eq!(
            toks("<p>hi</p>"),
            vec![
                start("p"),
                Token::Text("hi".into()),
                Token::EndTag { name: "p".into() }
            ]
        );
    }

    #[test]
    fn tag_names_lowercased() {
        assert_eq!(
            toks("<DIV></DiV>"),
            vec![start("div"), Token::EndTag { name: "div".into() }]
        );
    }

    #[test]
    fn attributes_quoted_unquoted_bare() {
        let t = toks(r#"<input type="text" name='kw' size=20 required>"#);
        match &t[0] {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                assert_eq!(name, "input");
                assert!(!self_closing);
                assert_eq!(
                    attrs,
                    &vec![
                        Attribute {
                            name: "type".into(),
                            value: "text".into()
                        },
                        Attribute {
                            name: "name".into(),
                            value: "kw".into()
                        },
                        Attribute {
                            name: "size".into(),
                            value: "20".into()
                        },
                        Attribute {
                            name: "required".into(),
                            value: "".into()
                        },
                    ]
                );
            }
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn self_closing() {
        let t = toks("<br/><hr />");
        assert!(matches!(
            &t[0],
            Token::StartTag {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(
            &t[1],
            Token::StartTag {
                self_closing: true,
                ..
            }
        ));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let t = toks(r#"<a title="A &amp; B">x &lt; y</a>"#);
        match &t[0] {
            Token::StartTag { attrs, .. } => assert_eq!(attrs[0].value, "A & B"),
            _ => panic!(),
        }
        assert_eq!(t[1], Token::Text("x < y".into()));
    }

    #[test]
    fn comments() {
        let t = toks("a<!-- note -->b");
        assert_eq!(
            t,
            vec![
                Token::Text("a".into()),
                Token::Comment(" note "),
                Token::Text("b".into())
            ]
        );
    }

    #[test]
    fn unterminated_comment_consumes_rest() {
        let t = toks("a<!-- oops");
        assert_eq!(t, vec![Token::Text("a".into()), Token::Comment(" oops")]);
    }

    #[test]
    fn doctype() {
        let t = toks("<!DOCTYPE html><p>x</p>");
        assert_eq!(t[0], Token::Doctype("DOCTYPE html"));
    }

    #[test]
    fn script_raw_text() {
        let t = toks(r#"<script>if (a < b) { document.write("</p>"); }</script>after"#);
        // Raw-text mode only terminates on `</script`, so the embedded
        // "</p>" string stays inside a single text token.
        assert_eq!(
            t,
            vec![
                start("script"),
                Token::Text(r#"if (a < b) { document.write("</p>"); }"#.into()),
                Token::EndTag {
                    name: "script".into()
                },
                Token::Text("after".into()),
            ]
        );
    }

    #[test]
    fn script_with_less_than_survives() {
        let t = toks("<script>for(i=0;i<10;i++){}</script>ok");
        assert!(t.contains(&Token::Text("for(i=0;i<10;i++){}".into())));
        assert!(t.contains(&Token::Text("ok".into())));
    }

    #[test]
    fn unterminated_script() {
        let t = toks("<script>var x = 1;");
        assert_eq!(t, vec![start("script"), Token::Text("var x = 1;".into())]);
    }

    #[test]
    fn textarea_content_is_raw() {
        let t = toks("<textarea><b>not bold</b></textarea>");
        assert_eq!(
            t,
            vec![
                start("textarea"),
                Token::Text("<b>not bold</b>".into()),
                Token::EndTag {
                    name: "textarea".into()
                },
            ]
        );
    }

    #[test]
    fn stray_lt_is_text() {
        let t = toks("1 < 2 and 3 > 2");
        let joined: String = t
            .iter()
            .map(|t| match t {
                Token::Text(s) => s.to_string(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(joined, "1 < 2 and 3 > 2");
    }

    #[test]
    fn end_tag_with_junk() {
        let t = toks("</p attr=1>");
        assert_eq!(t, vec![Token::EndTag { name: "p".into() }]);
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let t = toks("<input type=text");
        assert_eq!(t.len(), 1);
        assert!(matches!(&t[0], Token::StartTag { name, .. } if name == "input"));
    }

    #[test]
    fn empty_input() {
        assert!(toks("").is_empty());
    }

    #[test]
    fn only_whitespace_text_is_kept() {
        let t = toks("a  b");
        assert_eq!(t, vec![Token::Text("a  b".into())]);
    }

    #[test]
    fn attr_value_with_gt_in_quotes() {
        let t = toks(r#"<a href="x>y">t</a>"#);
        match &t[0] {
            Token::StartTag { attrs, .. } => assert_eq!(attrs[0].value, "x>y"),
            _ => panic!(),
        }
    }

    #[test]
    fn never_panics_on_garbage() {
        for s in [
            "<", "</", "<>", "< >", "<a b=\"", "<a b='x", "<!", "<!-", "&", "&#", "&#;",
        ] {
            let _ = toks(s);
        }
    }
}
