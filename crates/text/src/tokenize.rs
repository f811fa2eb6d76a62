//! Word tokenization.
//!
//! Splits text into lowercase word tokens on any non-alphanumeric boundary.
//! Pure numbers are dropped (they are database *contents* — prices, years —
//! not schema vocabulary), as are one-character tokens and tokens of more
//! than 30 characters.

use std::ops::ControlFlow;

/// Shortest kept token, in characters.
const MIN_LEN: usize = 2;

/// Longest kept token, in characters; longer tokens (base64 blobs, URLs
/// that leaked into text) are dropped.
const MAX_LEN: usize = 30;

/// Split `text` into its kept tokens.
///
/// ```
/// assert_eq!(cafc_text::tokenize("Cheap Flights, 2-for-1!"),
///            vec!["cheap", "flights", "for"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let _ = for_each_token(text, |token| {
        tokens.push(token.to_owned());
        ControlFlow::Continue(())
    });
    tokens
}

/// Visit the tokens [`tokenize`] would return, in order, without
/// allocating one `String` per token: each token is lowercased into one
/// buffer reused across tokens, and `visit` sees it as a `&str`. Stops at
/// the first [`ControlFlow::Break`] and returns it.
///
/// ASCII characters take a fast path (`is_ascii_alphanumeric`,
/// `to_ascii_lowercase`), which agrees with the Unicode calls on ASCII;
/// every other character goes through `is_alphanumeric` and
/// `to_lowercase`, so a multi-character lowercase (`'İ'` → `"i̇"`) counts
/// every character it yields toward the length bounds.
pub(crate) fn for_each_token<F>(text: &str, mut visit: F) -> ControlFlow<()>
where
    F: FnMut(&str) -> ControlFlow<()>,
{
    let mut token = Token::default();
    for c in text.chars() {
        if c.is_ascii() {
            if c.is_ascii_alphanumeric() {
                token.push(c.to_ascii_lowercase());
                continue;
            }
        } else if c.is_alphanumeric() {
            for lower in c.to_lowercase() {
                token.push(lower);
            }
            continue;
        }
        token.flush(&mut visit)?;
    }
    token.flush(&mut visit)
}

/// The token being read: its text (kept only while it fits [`MAX_LEN`],
/// since a longer one is dropped anyway), its length in characters and
/// whether any character is not a digit.
#[derive(Default)]
struct Token {
    text: String,
    chars: usize,
    non_digit: bool,
}

impl Token {
    /// Append one (lowercase) character.
    fn push(&mut self, c: char) {
        self.non_digit |= !c.is_ascii_digit();
        self.chars += 1;
        if self.chars <= MAX_LEN {
            self.text.push(c);
        }
    }

    /// Hand a finished token that passes the filters to `visit`, and
    /// start the next one.
    fn flush<F>(&mut self, visit: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&str) -> ControlFlow<()>,
    {
        if self.chars == 0 {
            return ControlFlow::Continue(());
        }
        let keep = (MIN_LEN..=MAX_LEN).contains(&self.chars) && self.non_digit;
        let flow = if keep {
            visit(&self.text)
        } else {
            ControlFlow::Continue(())
        };
        self.text.clear();
        self.chars = 0;
        self.non_digit = false;
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_split() {
        assert_eq!(tokenize("hello world"), vec!["hello", "world"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("Job Category"), vec!["job", "category"]);
    }

    #[test]
    fn punctuation_boundaries() {
        assert_eq!(
            tokenize("new/used cars, trucks."),
            vec!["new", "used", "cars", "trucks"]
        );
    }

    #[test]
    fn numbers_dropped_by_default() {
        assert_eq!(tokenize("room 101 deluxe"), vec!["room", "deluxe"]);
    }

    #[test]
    fn alphanumeric_mixed_tokens_kept() {
        assert_eq!(tokenize("mp3 players"), vec!["mp3", "players"]);
    }

    #[test]
    fn single_chars_dropped() {
        assert_eq!(tokenize("a b cd"), vec!["cd"]);
    }

    #[test]
    fn overlong_tokens_dropped() {
        let blob = "x".repeat(31);
        assert_eq!(tokenize(&format!("ok {blob} fine")), vec!["ok", "fine"]);
    }

    #[test]
    fn empty_and_symbol_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ###").is_empty());
    }

    #[test]
    fn unicode_words() {
        assert_eq!(tokenize("café au lait"), vec!["café", "au", "lait"]);
    }

    #[test]
    fn uppercase_unicode_lowered() {
        assert_eq!(tokenize("ÉTÉ"), vec!["été"]);
    }
}
