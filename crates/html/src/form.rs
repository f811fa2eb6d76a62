//! Form extraction — the *FC* (form content) side of the form-page model.
//!
//! A [`Form`] captures everything CAFC observes about a `<form>` element:
//! its submission metadata, its visible fields (text inputs, selects,
//! radios, checkboxes, textareas), the option values of its selects, and the
//! free text appearing between the `FORM` tags. Hidden fields
//! (`type="hidden"`) are excluded, exactly as in the paper ("we do not
//! consider hidden attributes ... which are invisible to users").

use crate::dom::{Document, Node, NodeId};

/// HTTP method of a form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormMethod {
    /// `method="get"` (the default).
    Get,
    /// `method="post"`.
    Post,
}

/// The kind of a visible form field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormFieldKind {
    /// `<input type="text">` (also `search`, unknown types, and missing type).
    Text,
    /// `<input type="password">`.
    Password,
    /// `<input type="checkbox">`.
    Checkbox,
    /// `<input type="radio">`.
    Radio,
    /// `<input type="submit">` / `<button>`.
    Submit,
    /// `<input type="image">` — a graphical submit button.
    Image,
    /// `<input type="reset">`.
    Reset,
    /// `<input type="file">`.
    File,
    /// `<select>`.
    Select,
    /// `<textarea>`.
    Textarea,
}

impl FormFieldKind {
    /// Whether this field is a *query attribute* of the form — an element a
    /// user fills to pose a query. Buttons are excluded.
    pub fn is_query_attribute(self) -> bool {
        !matches!(
            self,
            FormFieldKind::Submit | FormFieldKind::Reset | FormFieldKind::Image
        )
    }
}

/// A visible field of a form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormField {
    /// Field kind.
    pub kind: FormFieldKind,
    /// The `name` attribute, if any.
    pub name: Option<String>,
    /// The `value` attribute (button labels, prefilled text), if any.
    pub value: Option<String>,
    /// For selects: the visible text of each `<option>`.
    pub options: Vec<String>,
}

/// An extracted form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Form {
    /// The `action` URL, if present.
    pub action: Option<String>,
    /// Submission method; defaults to GET like browsers.
    pub method: FormMethod,
    /// Visible fields, in document order. Hidden inputs are excluded.
    pub fields: Vec<FormField>,
    /// Free text between the form tags, *excluding* option text,
    /// whitespace-normalized. This is the label/caption text of the form.
    pub inner_text: String,
    /// Visible text of every `<option>` in the form, in document order.
    pub option_texts: Vec<String>,
}

impl Form {
    /// Number of fields a user can fill (excludes submit/reset/image).
    pub fn visible_field_count(&self) -> usize {
        self.fields
            .iter()
            .filter(|f| f.kind.is_query_attribute())
            .count()
    }

    /// True when the form has exactly one fillable field — the paper's
    /// "single-attribute" (often keyword-based) interfaces.
    pub fn is_single_attribute(&self) -> bool {
        self.visible_field_count() == 1
    }

    /// Whether the form contains a password field — a strong signal of a
    /// login (non-searchable) form, used by the searchable-form classifier.
    pub fn has_password_field(&self) -> bool {
        self.fields
            .iter()
            .any(|f| f.kind == FormFieldKind::Password)
    }

    /// The labels on submit buttons (e.g. "Search", "Go", "Login").
    pub fn submit_labels(&self) -> impl Iterator<Item = &str> {
        self.fields
            .iter()
            .filter(|f| matches!(f.kind, FormFieldKind::Submit | FormFieldKind::Image))
            .filter_map(|f| f.value.as_deref())
    }
}

/// Extract every form in the document, in document order.
pub fn extract_forms(doc: &Document) -> Vec<Form> {
    doc.elements_named("form")
        .map(|id| extract_form(doc, id))
        .collect()
}

/// Extract the form rooted at `form_id` (which must be a `<form>` element).
pub fn extract_form(doc: &Document, form_id: NodeId) -> Form {
    let method = match doc
        .attr(form_id, "method")
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("post") => FormMethod::Post,
        _ => FormMethod::Get,
    };
    let action = doc
        .attr(form_id, "action")
        .map(str::to_owned)
        .filter(|a| !a.is_empty());

    let mut fields = Vec::new();
    let mut text_parts: Vec<String> = Vec::new();
    let mut option_texts = Vec::new();
    collect(
        doc,
        form_id,
        false,
        &mut fields,
        &mut text_parts,
        &mut option_texts,
    );

    let inner_text = crate::dom::normalize_ws(&text_parts.join(" "));
    Form {
        action,
        method,
        fields,
        inner_text,
        option_texts,
    }
}

/// Recursive walk below the form element. `in_option` marks text that
/// belongs to an `<option>` (kept separate so TF-IDF can down-weight it).
fn collect(
    doc: &Document,
    id: NodeId,
    in_option: bool,
    fields: &mut Vec<FormField>,
    text_parts: &mut Vec<String>,
    option_texts: &mut Vec<String>,
) {
    for &child in doc.children(id) {
        match doc.node(child) {
            Node::Text(t) => {
                let t = t.trim();
                if !t.is_empty() {
                    if in_option {
                        // Option text is recorded by the <option> handler.
                    } else {
                        text_parts.push(t.to_owned());
                    }
                }
            }
            Node::Comment(_) => {}
            Node::Element { name, .. } => match name.as_str() {
                "input" => {
                    if let Some(field) = input_field(doc, child) {
                        fields.push(field);
                    }
                }
                "select" => {
                    let mut options = Vec::new();
                    for opt in doc
                        .walk_from(child)
                        .filter(|&n| doc.node(n).element_name() == Some("option"))
                    {
                        let text = doc.text_content(opt);
                        let text = if text.is_empty() {
                            doc.attr(opt, "value").unwrap_or_default().to_owned()
                        } else {
                            text
                        };
                        if !text.is_empty() {
                            options.push(text.clone());
                            option_texts.push(text);
                        }
                    }
                    fields.push(FormField {
                        kind: FormFieldKind::Select,
                        name: doc.attr(child, "name").map(str::to_owned),
                        value: None,
                        options,
                    });
                }
                "textarea" => {
                    fields.push(FormField {
                        kind: FormFieldKind::Textarea,
                        name: doc.attr(child, "name").map(str::to_owned),
                        value: None,
                        options: Vec::new(),
                    });
                }
                "button" => {
                    fields.push(FormField {
                        kind: FormFieldKind::Submit,
                        name: doc.attr(child, "name").map(str::to_owned),
                        value: Some(doc.text_content(child)).filter(|t| !t.is_empty()),
                        options: Vec::new(),
                    });
                    // Button label is also visible form text.
                    let label = doc.text_content(child);
                    if !label.is_empty() {
                        text_parts.push(label);
                    }
                }
                "option" => {
                    collect(doc, child, true, fields, text_parts, option_texts);
                }
                "script" | "style" => {}
                _ => collect(doc, child, in_option, fields, text_parts, option_texts),
            },
        }
    }
}

/// Build a [`FormField`] from an `<input>`, or `None` for hidden inputs.
fn input_field(doc: &Document, id: NodeId) -> Option<FormField> {
    let ty = doc.attr(id, "type").map(str::to_ascii_lowercase);
    let kind = match ty.as_deref() {
        Some("hidden") => return None,
        Some("password") => FormFieldKind::Password,
        Some("checkbox") => FormFieldKind::Checkbox,
        Some("radio") => FormFieldKind::Radio,
        Some("submit") => FormFieldKind::Submit,
        Some("image") => FormFieldKind::Image,
        Some("reset") => FormFieldKind::Reset,
        Some("file") => FormFieldKind::File,
        // text, search, unknown, or missing type all behave as text inputs.
        _ => FormFieldKind::Text,
    };
    Some(FormField {
        kind,
        name: doc.attr(id, "name").map(str::to_owned),
        value: doc.attr(id, "value").map(str::to_owned),
        options: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn one_form(html: &str) -> Form {
        let doc = parse(html);
        let mut forms = extract_forms(&doc);
        assert_eq!(forms.len(), 1, "expected exactly one form in {html}");
        forms.remove(0)
    }

    #[test]
    fn keyword_form() {
        let f = one_form(
            r#"<form action="/s"><input type=text name=q><input type=submit value=Search></form>"#,
        );
        assert_eq!(f.action.as_deref(), Some("/s"));
        assert_eq!(f.method, FormMethod::Get);
        assert_eq!(f.fields.len(), 2);
        assert!(f.is_single_attribute());
        assert_eq!(f.submit_labels().collect::<Vec<_>>(), vec!["Search"]);
    }

    #[test]
    fn multi_attribute_form_with_selects() {
        let f = one_form(
            r#"<form method=POST>
                Job Category: <select name=cat><option>Engineering</option><option>Sales</option></select>
                State: <select name=state><option>Utah</option></select>
                <input type=submit value="Find Jobs">
            </form>"#,
        );
        assert_eq!(f.method, FormMethod::Post);
        assert_eq!(f.visible_field_count(), 2);
        assert!(!f.is_single_attribute());
        assert_eq!(f.option_texts, vec!["Engineering", "Sales", "Utah"]);
        assert!(f.inner_text.contains("Job Category:"));
        assert!(f.inner_text.contains("State:"));
        // Option text is *not* part of the free inner text.
        assert!(!f.inner_text.contains("Engineering"));
    }

    #[test]
    fn hidden_inputs_excluded() {
        let f = one_form(r#"<form><input type=hidden name=sid value=42><input name=q></form>"#);
        assert_eq!(f.fields.len(), 1);
        assert_eq!(f.fields[0].kind, FormFieldKind::Text);
    }

    #[test]
    fn password_detection() {
        let f = one_form(r#"<form><input name=u><input type=password name=p></form>"#);
        assert!(f.has_password_field());
        assert_eq!(f.visible_field_count(), 2);
    }

    #[test]
    fn input_without_type_is_text() {
        let f = one_form("<form><input name=q></form>");
        assert_eq!(f.fields[0].kind, FormFieldKind::Text);
    }

    #[test]
    fn button_element_is_submit_and_label_text() {
        let f = one_form("<form><input name=q><button>Go Now</button></form>");
        assert_eq!(f.fields.len(), 2);
        assert_eq!(f.fields[1].kind, FormFieldKind::Submit);
        assert_eq!(f.fields[1].value.as_deref(), Some("Go Now"));
        assert!(f.inner_text.contains("Go Now"));
    }

    #[test]
    fn option_value_attr_fallback() {
        let f = one_form(r#"<form><select name=s><option value="CA"></option></select></form>"#);
        assert_eq!(f.fields[0].options, vec!["CA"]);
    }

    #[test]
    fn radio_and_checkbox() {
        let f = one_form(
            r#"<form><input type=radio name=cond value=new><input type=checkbox name=used></form>"#,
        );
        assert_eq!(f.fields[0].kind, FormFieldKind::Radio);
        assert_eq!(f.fields[1].kind, FormFieldKind::Checkbox);
        assert_eq!(f.visible_field_count(), 2);
    }

    #[test]
    fn image_submit_counts_as_button() {
        let f = one_form(r#"<form><input name=q><input type=image src=go.gif value=go></form>"#);
        assert!(f.is_single_attribute());
    }

    #[test]
    fn text_outside_form_not_included() {
        // The paper's Figure 1(c): "Search Jobs" sits *outside* the FORM tags.
        let doc = parse(r#"<p>Search Jobs</p><form><input name=q></form>"#);
        let forms = extract_forms(&doc);
        assert_eq!(forms[0].inner_text, "");
    }

    #[test]
    fn multiple_forms_in_order() {
        let doc =
            parse(r#"<form action=a><input name=x></form><form action=b><input name=y></form>"#);
        let forms = extract_forms(&doc);
        assert_eq!(forms.len(), 2);
        assert_eq!(forms[0].action.as_deref(), Some("a"));
        assert_eq!(forms[1].action.as_deref(), Some("b"));
    }

    #[test]
    fn script_inside_form_ignored() {
        let f = one_form(
            r#"<form><script>var a="<input name=fake>";</script><input name=real></form>"#,
        );
        assert_eq!(f.fields.len(), 1);
        assert_eq!(f.fields[0].name.as_deref(), Some("real"));
        assert_eq!(f.inner_text, "");
    }

    #[test]
    fn nested_markup_text_collected() {
        let f = one_form("<form><b>Departure</b> city <input name=dep></form>");
        assert_eq!(f.inner_text, "Departure city");
    }

    #[test]
    fn empty_form() {
        let f = one_form("<form></form>");
        assert!(f.fields.is_empty());
        assert_eq!(f.visible_field_count(), 0);
    }
}
