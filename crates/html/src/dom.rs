//! DOM tree construction from the token stream.
//!
//! The builder is a pragmatic approximation of the HTML tree-construction
//! algorithm: it handles void elements, self-closing syntax, the common
//! implicit-close pairs (`<li>`, `<option>`, `<p>`, table rows/cells) and
//! silently drops stray end tags. It keeps only the names of the open
//! elements and reports what it builds to a [`TreeSink`]. [`DocSink`]
//! turns those events into a [`Document`]: an arena of [`Node`]s addressed
//! by [`NodeId`], which keeps the tree `Copy`-indexable and cheap to
//! traverse. Other sinks consume the events without building a tree.

use crate::coverage::{Coverage, CoveragePoint};
use crate::tokenizer::{Attribute, Token, Tokenizer};

/// Index of a node in a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element with lowercased name, attributes and child nodes.
    Element {
        /// Lowercased tag name.
        name: String,
        /// Attributes in source order.
        attrs: Vec<Attribute<'static>>,
        /// Children in document order.
        children: Vec<NodeId>,
    },
    /// A text run (entity-decoded).
    Text(String),
    /// A comment (excluded from all text extraction).
    Comment(String),
}

impl Node {
    /// The element name, or `None` for text/comments.
    pub fn element_name(&self) -> Option<&str> {
        match self {
            Node::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Text content if this is a text node.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// Elements that never have children.
pub(crate) const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Returns true if `name` is a void element.
pub fn is_void(name: &str) -> bool {
    VOID_ELEMENTS.contains(&name)
}

/// `(incoming, closes)` pairs: seeing `incoming` while `closes` is the open
/// element implicitly closes it.
pub(crate) const IMPLICIT_CLOSE: &[(&str, &str)] = &[
    ("li", "li"),
    ("option", "option"),
    ("optgroup", "option"),
    ("optgroup", "optgroup"),
    ("p", "p"),
    ("tr", "tr"),
    ("tr", "td"),
    ("tr", "th"),
    ("td", "td"),
    ("td", "th"),
    ("th", "th"),
    ("th", "td"),
    ("dd", "dd"),
    ("dd", "dt"),
    ("dt", "dt"),
    ("dt", "dd"),
];

/// Maximum open-element depth. Start tags past this depth still create
/// nodes, but as siblings under the element at the cap rather than ever
/// deeper children — so entity-bomb nesting cannot overflow the stack of
/// any downstream recursive consumer, while no content is lost.
pub const MAX_DEPTH: usize = 512;

/// Maximum nodes per document — the [`NodeId`] u32 address space. Tokens
/// past the cap are dropped (a page this size is a parser attack, not
/// content).
const MAX_NODES: usize = u32::MAX as usize;

/// What the parser had to do to keep a hostile document tractable.
/// Produced by [`Document::parse_with_stats`]; the ingestion layer maps
/// these onto degradation reasons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Open-element nesting hit [`MAX_DEPTH`]; deeper elements were
    /// reparented to the capped depth.
    pub depth_capped: bool,
    /// The node arena hit its u32 capacity; later tokens were dropped.
    pub nodes_capped: bool,
}

/// A parsed HTML document: an arena of nodes plus the top-level roots.
///
/// Equality is structural (same arena contents and roots) — the fuzz
/// oracles use it to compare parses of the same input along different
/// paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
}

impl Document {
    /// Parse `html` into a tree. Infallible.
    pub fn parse(html: &str) -> Document {
        Document::parse_with_stats(html).0
    }

    /// Parse `html`, also reporting which structural caps were hit.
    /// Infallible on any byte sequence.
    pub fn parse_with_stats(html: &str) -> (Document, ParseStats) {
        Document::parse_with_coverage(html, &Coverage::disabled())
    }

    /// Parse `html`, reporting tokenizer and tree-builder state transitions
    /// to `cov`. With a disabled handle this is exactly
    /// [`Document::parse_with_stats`]; coverage recording never changes the
    /// parse result.
    pub fn parse_with_coverage(html: &str, cov: &Coverage) -> (Document, ParseStats) {
        let (sink, stats) = build(html, DocSink::default(), cov);
        (sink.doc, stats)
    }

    /// All nodes, by arena index.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Top-level nodes in document order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Children of a node (empty for text/comments).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match self.node(id) {
            Node::Element { children, .. } => children,
            _ => &[],
        }
    }

    /// Depth-first pre-order traversal of the whole document.
    pub fn walk(&self) -> Walk<'_> {
        let mut pending: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        pending.shrink_to_fit();
        Walk { doc: self, pending }
    }

    /// Depth-first pre-order traversal rooted at `id` (inclusive).
    pub fn walk_from(&self, id: NodeId) -> Walk<'_> {
        Walk {
            doc: self,
            pending: vec![id],
        }
    }

    /// All elements with the given (lowercase) name, in document order.
    pub fn elements_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = NodeId> + 'a {
        self.walk()
            .filter(move |&id| self.node(id).element_name() == Some(name))
    }

    /// The first attribute value with this name on an element node.
    pub fn attr(&self, id: NodeId, attr_name: &str) -> Option<&str> {
        match self.node(id) {
            Node::Element { attrs, .. } => attrs
                .iter()
                .find(|a| a.name == attr_name)
                .map(|a| a.value.as_ref()),
            _ => None,
        }
    }

    /// Concatenated descendant text of `id`, whitespace-normalized.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut parts = Vec::new();
        for n in self.walk_from(id) {
            if let Some(t) = self.node(n).as_text() {
                parts.push(t.trim());
            }
        }
        let joined = parts.join(" ");
        normalize_ws(&joined)
    }

    /// The `<title>` text, if present.
    pub fn title(&self) -> Option<String> {
        self.elements_named("title")
            .next()
            .map(|id| self.text_content(id))
            .filter(|t| !t.is_empty())
    }
}

/// Parse `html` into `sink` in one pass, with no tree in between;
/// [`Document::parse_with_stats`] is this with a [`DocSink`].
pub fn parse_into<S: TreeSink>(html: &str, sink: S) -> (S, ParseStats) {
    build(html, sink, &Coverage::disabled())
}

/// [`parse_into`], reporting tokenizer and tree-builder transitions to
/// `cov`.
fn build<S: TreeSink>(html: &str, sink: S, cov: &Coverage) -> (S, ParseStats) {
    let mut builder = TreeBuilder::new(sink, cov.clone());
    for token in Tokenizer::with_coverage(html, cov.clone()) {
        builder.feed(token);
        if builder.stats.nodes_capped {
            break;
        }
    }
    builder.finish()
}

/// What the tree builder reports, in document order. Every node the
/// builder creates becomes the last child of the innermost open element,
/// or a new root when none is open.
pub trait TreeSink {
    /// An element was created; `open` when it became the innermost open
    /// element (false for void, self-closing and depth-capped elements,
    /// which never get children).
    fn element(&mut self, name: &str, attrs: &[Attribute<'_>], open: bool);
    /// The `n` innermost open elements were closed.
    fn close(&mut self, n: usize);
    /// A text run (entity-decoded, never empty) was appended.
    fn text(&mut self, text: &str);
    /// A comment was appended.
    fn comment(&mut self, text: &str);
}

/// The [`TreeSink`] that builds a [`Document`].
#[derive(Debug, Default)]
pub struct DocSink {
    doc: Document,
    /// Open element ids, innermost last.
    stack: Vec<NodeId>,
}

impl DocSink {
    /// The document built so far.
    pub(crate) fn into_document(self) -> Document {
        self.doc
    }

    fn append(&mut self, node: Node) -> NodeId {
        // The tree builder stops before the arena can outgrow u32.
        let id = NodeId(self.doc.nodes.len() as u32);
        self.doc.nodes.push(node);
        match self.stack.last() {
            // The stack holds element ids only; anything else would mean
            // arena corruption, which parenting to the root survives.
            Some(&parent) => match &mut self.doc.nodes[parent.index()] {
                Node::Element { children, .. } => children.push(id),
                _ => self.doc.roots.push(id),
            },
            None => self.doc.roots.push(id),
        }
        id
    }
}

impl TreeSink for DocSink {
    fn element(&mut self, name: &str, attrs: &[Attribute<'_>], open: bool) {
        let id = self.append(Node::Element {
            name: name.to_owned(),
            attrs: attrs.iter().map(|a| a.clone().into_owned()).collect(),
            children: Vec::new(),
        });
        if open {
            self.stack.push(id);
        }
    }

    fn close(&mut self, n: usize) {
        self.stack.truncate(self.stack.len().saturating_sub(n));
    }

    fn text(&mut self, text: &str) {
        self.append(Node::Text(text.to_owned()));
    }

    fn comment(&mut self, text: &str) {
        self.append(Node::Comment(text.to_owned()));
    }
}

/// Incremental tree construction: one token at a time, so whole-document
/// parsing and `StreamingParser` share this exact code path, which is what
/// makes `parse_chunked(chunks) == parse(chunks.concat())` a structural
/// property instead of a test hope. The rules (implicit closes, void
/// elements, [`MAX_DEPTH`], the node cap, stray end tags) run over the
/// open element names alone; the sink sees only their outcome.
pub(crate) struct TreeBuilder<S> {
    sink: S,
    stats: ParseStats,
    /// Names of the open elements, innermost last.
    open: Vec<String>,
    /// Nodes created so far, against the node cap.
    nodes: usize,
    cov: Coverage,
}

impl<S: TreeSink> TreeBuilder<S> {
    /// An empty builder reporting to `sink`, and tree transitions to `cov`.
    pub(crate) fn new(sink: S, cov: Coverage) -> TreeBuilder<S> {
        TreeBuilder {
            sink,
            stats: ParseStats::default(),
            open: Vec::new(),
            nodes: 0,
            cov,
        }
    }

    /// Apply one token to the tree under construction.
    pub(crate) fn feed(&mut self, token: Token<'_>) {
        if self.stats.nodes_capped {
            return;
        }
        if self.nodes >= MAX_NODES {
            self.cov.record(CoveragePoint::TreeNodesCapped);
            self.stats.nodes_capped = true;
            return;
        }
        match token {
            Token::Doctype(_) => {
                self.cov.record(CoveragePoint::TreeDoctypeDropped);
            }
            Token::Comment(c) => {
                self.cov.record(CoveragePoint::TreeComment);
                self.nodes += 1;
                self.sink.comment(c);
            }
            Token::Text(t) => {
                self.cov.record(CoveragePoint::TreeText);
                self.nodes += 1;
                self.sink.text(&t);
            }
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                // Implicit closes (e.g. <option> closes an open <option>).
                let depth = self.open.len();
                while let Some(top) = self.open.last() {
                    if IMPLICIT_CLOSE
                        .iter()
                        .any(|(inc, closes)| *inc == name && closes == top)
                    {
                        self.cov.record(CoveragePoint::TreeImplicitClose);
                        self.open.pop();
                    } else {
                        break;
                    }
                }
                if self.open.len() < depth {
                    self.sink.close(depth - self.open.len());
                }
                if self.open.is_empty() {
                    self.cov.record(CoveragePoint::TreeRootAppend);
                }
                self.nodes += 1;
                let mut open = false;
                if !self_closing && !is_void(&name) {
                    if self.open.len() < MAX_DEPTH {
                        self.open.push(name.to_string());
                        open = true;
                    } else {
                        self.cov.record(CoveragePoint::TreeDepthCapped);
                        self.stats.depth_capped = true;
                    }
                } else {
                    self.cov.record(CoveragePoint::TreeVoid);
                }
                self.sink.element(&name, &attrs, open);
            }
            Token::EndTag { name } => {
                // Find the matching open element; ignore stray end tags.
                if let Some(pos) = self.open.iter().rposition(|open| *open == name) {
                    self.cov.record(CoveragePoint::TreeEndMatched);
                    let closed = self.open.len() - pos;
                    self.open.truncate(pos);
                    self.sink.close(closed);
                } else {
                    self.cov.record(CoveragePoint::TreeStrayEndDropped);
                }
            }
        }
    }

    /// The sink and the caps hit while building.
    pub(crate) fn finish(self) -> (S, ParseStats) {
        (self.sink, self.stats)
    }
}

/// Collapse runs of whitespace into single spaces and trim.
pub(crate) fn normalize_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            out.push(c);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Pre-order DFS iterator over node ids.
pub struct Walk<'a> {
    doc: &'a Document,
    pending: Vec<NodeId>,
}

impl<'a> Iterator for Walk<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.pending.pop()?;
        let children = self.doc.children(id);
        self.pending.extend(children.iter().rev().copied());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_tree() {
        let doc = Document::parse("<div><p>a</p><p>b</p></div>");
        let div = doc.elements_named("div").next().expect("div exists");
        assert_eq!(doc.children(div).len(), 2);
        assert_eq!(doc.text_content(div), "a b");
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = Document::parse("<p><input name=a>text</p>");
        let input = doc.elements_named("input").next().expect("input exists");
        assert!(doc.children(input).is_empty());
        let p = doc.elements_named("p").next().expect("p exists");
        assert_eq!(doc.text_content(p), "text");
    }

    #[test]
    fn self_closing_elements_take_no_children() {
        let doc = Document::parse("<div/><span>x</span>");
        let div = doc.elements_named("div").next().expect("div");
        assert!(doc.children(div).is_empty());
    }

    #[test]
    fn implicit_option_close() {
        let doc = Document::parse("<select><option>One<option>Two</select>");
        let opts: Vec<_> = doc.elements_named("option").collect();
        assert_eq!(opts.len(), 2);
        assert_eq!(doc.text_content(opts[0]), "One");
        assert_eq!(doc.text_content(opts[1]), "Two");
    }

    #[test]
    fn implicit_li_close() {
        let doc = Document::parse("<ul><li>a<li>b<li>c</ul>");
        assert_eq!(doc.elements_named("li").count(), 3);
        let first = doc.elements_named("li").next().expect("li");
        assert_eq!(doc.text_content(first), "a");
    }

    #[test]
    fn implicit_table_cells() {
        let doc = Document::parse("<table><tr><td>1<td>2<tr><td>3</table>");
        assert_eq!(doc.elements_named("tr").count(), 2);
        assert_eq!(doc.elements_named("td").count(), 3);
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = Document::parse("</p><b>x</b></div>");
        assert_eq!(doc.elements_named("b").count(), 1);
    }

    #[test]
    fn unclosed_elements_still_parent_following_content() {
        let doc = Document::parse("<div><span>a");
        let span = doc.elements_named("span").next().expect("span");
        assert_eq!(doc.text_content(span), "a");
    }

    #[test]
    fn mismatched_close_recovers() {
        // </div> closes the div, implicitly abandoning the span.
        let doc = Document::parse("<div><span>a</div><p>b</p>");
        let p = doc.elements_named("p").next().expect("p");
        assert_eq!(doc.text_content(p), "b");
        // p is a root-level element, not inside div.
        assert!(doc.roots().len() >= 2);
    }

    #[test]
    fn title_extraction() {
        let doc = Document::parse("<html><head><title> Book  Store </title></head></html>");
        assert_eq!(doc.title().as_deref(), Some("Book Store"));
    }

    #[test]
    fn missing_title_is_none() {
        assert_eq!(Document::parse("<p>x</p>").title(), None);
        assert_eq!(Document::parse("<title></title>").title(), None);
    }

    #[test]
    fn attr_lookup() {
        let doc = Document::parse(r#"<form action="/search" method=POST>"#);
        let form = doc.elements_named("form").next().expect("form");
        assert_eq!(doc.attr(form, "action"), Some("/search"));
        assert_eq!(doc.attr(form, "method"), Some("POST"));
        assert_eq!(doc.attr(form, "missing"), None);
    }

    #[test]
    fn comments_preserved_but_inert() {
        let doc = Document::parse("<p><!-- hidden -->shown</p>");
        let p = doc.elements_named("p").next().expect("p");
        assert_eq!(doc.text_content(p), "shown");
    }

    #[test]
    fn walk_is_preorder() {
        let doc = Document::parse("<a><b></b><c></c></a><d></d>");
        let names: Vec<_> = doc
            .walk()
            .filter_map(|id| doc.node(id).element_name().map(str::to_owned))
            .collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
    }

    #[test]
    fn normalize_ws_collapses() {
        assert_eq!(normalize_ws("  a \n\t b  "), "a b");
        assert_eq!(normalize_ws(""), "");
        assert_eq!(normalize_ws("   "), "");
    }

    #[test]
    fn deep_nesting_does_not_overflow() {
        let html = "<div>".repeat(5000) + "x" + &"</div>".repeat(5000);
        let doc = Document::parse(&html);
        assert_eq!(doc.elements_named("div").count(), 5000);
    }

    #[test]
    fn deep_nesting_caps_depth_but_keeps_content() {
        let html = "<div>".repeat(5000) + "payload" + &"</div>".repeat(5000);
        let (doc, stats) = Document::parse_with_stats(&html);
        assert!(stats.depth_capped);
        assert_eq!(doc.elements_named("div").count(), 5000);
        // The text survives and the realized tree depth is bounded.
        let all_text: String = doc.walk().filter_map(|id| doc.node(id).as_text()).collect();
        assert_eq!(all_text, "payload");
        fn depth(doc: &Document, id: NodeId) -> usize {
            1 + doc
                .children(id)
                .iter()
                .map(|&c| depth(doc, c))
                .max()
                .unwrap_or(0)
        }
        let max_depth = doc.roots().iter().map(|&r| depth(&doc, r)).max().unwrap();
        assert!(max_depth <= MAX_DEPTH + 1, "depth {max_depth} exceeds cap");
    }

    #[test]
    fn shallow_documents_report_no_caps() {
        let (_, stats) = Document::parse_with_stats("<div><p>fine</p></div>");
        assert_eq!(stats, ParseStats::default());
    }
}
