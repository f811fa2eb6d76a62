//! HTML character-entity decoding.
//!
//! Supports the named entities that occur in practice on form pages plus
//! decimal (`&#65;`) and hexadecimal (`&#x41;`) numeric references. Unknown
//! entities are passed through verbatim, which is what browsers do for
//! strings like `&foo` and avoids destroying query-string text such as
//! `?a=1&b=2` that frequently leaks into attribute values.

use std::borrow::Cow;

/// The named entities we decode. This is the set observed on real form
/// pages; extending it is a one-line change per entity.
pub(crate) const NAMED: &[(&str, &str)] = &[
    ("amp", "&"),
    ("lt", "<"),
    ("gt", ">"),
    ("quot", "\""),
    ("apos", "'"),
    ("nbsp", " "),
    ("copy", "\u{a9}"),
    ("reg", "\u{ae}"),
    ("trade", "\u{2122}"),
    ("mdash", "\u{2014}"),
    ("ndash", "\u{2013}"),
    ("hellip", "\u{2026}"),
    ("laquo", "\u{ab}"),
    ("raquo", "\u{bb}"),
    ("middot", "\u{b7}"),
    ("bull", "\u{2022}"),
    ("lsquo", "\u{2018}"),
    ("rsquo", "\u{2019}"),
    ("ldquo", "\u{201c}"),
    ("rdquo", "\u{201d}"),
    ("eacute", "\u{e9}"),
    ("egrave", "\u{e8}"),
    ("agrave", "\u{e0}"),
    ("ccedil", "\u{e7}"),
    ("uuml", "\u{fc}"),
    ("ouml", "\u{f6}"),
    ("auml", "\u{e4}"),
    ("szlig", "\u{df}"),
    ("ntilde", "\u{f1}"),
    ("pound", "\u{a3}"),
    ("euro", "\u{20ac}"),
    ("yen", "\u{a5}"),
    ("cent", "\u{a2}"),
    ("sect", "\u{a7}"),
    ("deg", "\u{b0}"),
    ("plusmn", "\u{b1}"),
    ("frac12", "\u{bd}"),
    ("times", "\u{d7}"),
    ("divide", "\u{f7}"),
];

/// Look up a named entity body (without `&` and `;`).
fn named(name: &str) -> Option<&'static str> {
    NAMED.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Decode a numeric character reference body such as `#65` or `#x41`.
fn numeric(body: &str) -> Option<char> {
    let digits = body.strip_prefix('#')?;
    let cp = if let Some(hex) = digits.strip_prefix(['x', 'X']) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        digits.parse::<u32>().ok()?
    };
    match cp {
        // Control characters and NUL map to replacement, like browsers.
        0 | 0x80..=0x9f => Some('\u{fffd}'),
        _ => char::from_u32(cp),
    }
}

/// Decode all entity references in `input`.
///
/// Borrows the input unchanged (no allocation) when no `&` occurs.
pub fn decode(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    let mut rest = input;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        // Find the end of a plausible entity: up to 32 chars, terminated by
        // ';'. Entities are ASCII alphanumerics or '#x...' bodies.
        let bytes = rest.as_bytes();
        let mut end = 1;
        while end < bytes.len() && end <= 32 {
            let b = bytes[end];
            if b == b';' {
                break;
            }
            if !(b.is_ascii_alphanumeric() || b == b'#') {
                end = 0; // not an entity
                break;
            }
            end += 1;
        }
        if end > 1 && end < bytes.len() && bytes[end] == b';' {
            let body = &rest[1..end];
            if let Some(rep) = named(body) {
                out.push_str(rep);
                rest = &rest[end + 1..];
                continue;
            }
            if let Some(ch) = numeric(body) {
                out.push(ch);
                rest = &rest[end + 1..];
                continue;
            }
        }
        // Not a recognized entity: emit the '&' literally and move on.
        out.push('&');
        rest = &rest[1..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_without_ampersand() {
        assert_eq!(decode("plain text"), "plain text");
    }

    #[test]
    fn named_entities() {
        assert_eq!(decode("a &amp; b"), "a & b");
        assert_eq!(decode("&lt;form&gt;"), "<form>");
        assert_eq!(decode("&quot;hi&quot;"), "\"hi\"");
        assert_eq!(decode("&nbsp;"), " ");
        assert_eq!(decode("&copy; 2006"), "\u{a9} 2006");
    }

    #[test]
    fn numeric_decimal_and_hex() {
        assert_eq!(decode("&#65;"), "A");
        assert_eq!(decode("&#x41;"), "A");
        assert_eq!(decode("&#X41;"), "A");
        assert_eq!(decode("&#233;"), "é");
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(decode("&unknown;"), "&unknown;");
        assert_eq!(decode("a&b"), "a&b");
        assert_eq!(decode("?a=1&b=2"), "?a=1&b=2");
    }

    #[test]
    fn unterminated_entity_is_literal() {
        assert_eq!(decode("&amp"), "&amp");
        assert_eq!(decode("fish & chips"), "fish & chips");
    }

    #[test]
    fn control_codepoints_become_replacement() {
        assert_eq!(decode("&#0;"), "\u{fffd}");
        assert_eq!(decode("&#x80;"), "\u{fffd}");
    }

    #[test]
    fn invalid_codepoint_is_literal() {
        // Surrogate: char::from_u32 fails, so the text stays as-is.
        assert_eq!(decode("&#xD800;"), "&#xD800;");
    }

    #[test]
    fn consecutive_entities() {
        assert_eq!(decode("&lt;&lt;&gt;&gt;"), "<<>>");
    }

    #[test]
    fn entity_at_string_boundaries() {
        assert_eq!(decode("&amp; end"), "& end");
        assert_eq!(decode("start &amp;"), "start &");
    }

    #[test]
    fn overlong_candidate_rejected() {
        let long = format!("&{};", "a".repeat(40));
        assert_eq!(decode(&long), long);
    }
}
