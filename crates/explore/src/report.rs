//! Rendered directory reports: plain text and self-contained HTML.

use crate::index::ClusterIndex;

/// Render the index as an aligned plain-text directory.
pub fn text_report(index: &ClusterIndex<'_>) -> String {
    let mut out = String::new();
    out.push_str("HIDDEN-WEB DATABASE DIRECTORY\n");
    out.push_str("=============================\n\n");
    for summary in index.summaries() {
        if summary.entries.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "{} ({} databases)\n",
            summary.label,
            summary.entries.len()
        ));
        let terms: Vec<&str> = summary
            .top_terms
            .iter()
            .take(6)
            .map(|(t, _)| t.as_str())
            .collect();
        out.push_str(&format!("  terms: {}\n", terms.join(", ")));
        for entry in &summary.entries {
            out.push_str(&format!(
                "  - {} [{} attrs] {}\n",
                entry.title, entry.attributes, entry.url
            ));
        }
        out.push('\n');
    }
    out
}

/// Minimal HTML escaping for text nodes and attribute values.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Render the index as a self-contained HTML directory page.
pub fn html_report(index: &ClusterIndex<'_>) -> String {
    let mut body = String::new();
    for summary in index.summaries() {
        if summary.entries.is_empty() {
            continue;
        }
        body.push_str(&format!(
            "<section><h2>{} <small>({} databases)</small></h2>\n",
            escape(&summary.label),
            summary.entries.len()
        ));
        let terms: Vec<String> = summary
            .top_terms
            .iter()
            .take(6)
            .map(|(t, _)| escape(t))
            .collect();
        body.push_str(&format!(
            "<p class=\"terms\">{}</p>\n<ul>\n",
            terms.join(", ")
        ));
        for entry in &summary.entries {
            body.push_str(&format!(
                "<li><a href=\"{}\">{}</a> <span class=\"arity\">{} attributes</span></li>\n",
                escape(&entry.url),
                escape(&entry.title),
                entry.attributes
            ));
        }
        body.push_str("</ul></section>\n");
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>Hidden-Web Database Directory</title>\
         <style>body{{font-family:sans-serif;max-width:52rem;margin:2rem auto}}\
         .terms{{color:#666;font-size:.9rem}}.arity{{color:#999;font-size:.8rem}}</style>\
         </head><body>\n<h1>Hidden-Web Database Directory</h1>\n{body}</body></html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ClusterIndex;
    use cafc::{ExecPolicy, FormPageCorpus, ModelOptions, Obs, Partition};

    fn index_fixture() -> (FormPageCorpus, Partition, Vec<(String, String, usize)>) {
        let pages = [
            "<p>airfare flights travel airline</p><form>departure <input name=a></form>",
            "<p>careers employment salary</p><form>keywords <input name=b></form>",
        ];
        let corpus = FormPageCorpus::from_html(
            pages.iter().copied(),
            &ModelOptions::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        let partition = Partition::new(vec![vec![0], vec![1]], 2);
        let metadata = vec![
            (
                "http://fly.com/f".to_owned(),
                "Fly & Save <cheap>".to_owned(),
                2,
            ),
            ("http://work.com/f".to_owned(), "Work Now".to_owned(), 1),
        ];
        (corpus, partition, metadata)
    }

    #[test]
    fn text_report_lists_everything() {
        let (corpus, partition, metadata) = index_fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 4);
        let report = text_report(&index);
        assert!(report.contains("http://fly.com/f"));
        assert!(report.contains("Work Now"));
        assert!(report.contains("databases"));
    }

    #[test]
    fn html_report_is_escaped_and_complete() {
        let (corpus, partition, metadata) = index_fixture();
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 4);
        let html = html_report(&index);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(
            html.contains("Fly &amp; Save &lt;cheap&gt;"),
            "title must be escaped"
        );
        assert!(html.contains("href=\"http://work.com/f\""));
        // The report itself parses with our own HTML parser.
        let doc = cafc_html::parse(&html);
        assert_eq!(
            doc.title().as_deref(),
            Some("Hidden-Web Database Directory")
        );
        assert_eq!(doc.elements_named("section").count(), 2);
    }

    #[test]
    fn empty_clusters_omitted() {
        let (corpus, _, metadata) = index_fixture();
        let partition = Partition::new(vec![vec![0, 1], vec![]], 2);
        let index = ClusterIndex::from_metadata(&corpus, &partition, &metadata, 4);
        let html = html_report(&index);
        assert_eq!(cafc_html::parse(&html).elements_named("section").count(), 1);
    }
}
