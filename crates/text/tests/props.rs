//! `cafc-check` property suite for the text substrate: the Porter stemmer
//! is total and bounded, tokens are clean lowercase alphanumerics, the
//! analyzer never emits stopwords, and interning hands out dense distinct
//! ids. Two differential properties hold the fast paths to reference
//! loops kept here: the visitor tokenizer to a `Vec<String>` tokenizer,
//! and memoized analysis to analysing every token afresh. Runs offline on
//! every commit; a counterexample found here becomes a fixed case at the
//! bottom of this file.

use cafc_check::corpus::any_text;
use cafc_check::gen::{from_slice, one_of, pairs, usizes, vecs, Gen};
use cafc_check::{check, require, require_eq, CaseResult, CheckConfig};
use cafc_text::{is_stopword, stem, tokenize, Analyzer, TermDict, TermId};
use std::collections::BTreeSet;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Strings of `lo..=hi` characters drawn from `alphabet`.
fn strings(alphabet: &str, lo: usize, hi: usize) -> Gen<String> {
    let chars: Vec<char> = alphabet.chars().collect();
    vecs(&from_slice(&chars), lo, hi).map(|cs| cs.iter().collect())
}

/// Arbitrary Unicode: any scalar value (surrogates map to U+FFFD), mixed
/// with the word, markup and emoji fragments of [`any_text`], up to
/// `max_pieces` pieces.
fn unicode_text(max_pieces: usize) -> Gen<String> {
    let scalar =
        usizes(0, 0x10_FFFF).map(|&c| char::from_u32(c as u32).unwrap_or('\u{FFFD}').to_string());
    vecs(&one_of(&[scalar, any_text(3)]), 0, max_pieces).map(|pieces| pieces.concat())
}

/// Words at the tokenizer's bounds, each between spaces so that it is one
/// token: 1, 2, 30 and 31 letters; all-digit words of 1, 2, 4 and 30
/// digits; and 29 letters followed by an `'İ'`, which lowercases to two
/// characters, so the 30th character of the word makes a 31-character
/// token.
fn bound_words() -> Gen<String> {
    let words = [
        "a".to_owned(),
        "ab".to_owned(),
        "x".repeat(30),
        "y".repeat(31),
        "7".to_owned(),
        "42".to_owned(),
        "2024".to_owned(),
        "9".repeat(30),
        format!("{}İ", "z".repeat(29)),
    ];
    from_slice(&words).map(|w| format!(" {w} "))
}

/// [`unicode_text`] with non-ASCII letters and digits and the
/// [`bound_words`] mixed in. `'İ'` lowercases to two characters, the
/// second a combining mark that is not alphanumeric, so its tokens fail
/// [`tokens_are_clean`] under both the visitor and the reference
/// tokenizer; only the differential test uses this generator.
fn unicode_letters_text(max_pieces: usize) -> Gen<String> {
    let letters = from_slice(&["İ", "É", "ß", "Σ", "ǅ", "٣", "Ⅻ", "K"]).map(|s| (*s).to_owned());
    vecs(
        &one_of(&[unicode_text(4), letters, bound_words()]),
        0,
        max_pieces,
    )
    .map(|pieces| pieces.concat())
}

/// The tokenizer as it was before the visitor: one owned, lowercased
/// `String` per token, kept when it has 2 to 30 characters and is not all
/// digits. The oracle for [`tokenize`].
fn reference_tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut push = |token: String| {
        let len = token.chars().count();
        if !(2..=30).contains(&len) || token.chars().all(|c| c.is_ascii_digit()) {
            return;
        }
        tokens.push(token);
    };
    for c in text.chars() {
        if c.is_alphanumeric() {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        push(current);
    }
    tokens
}

/// The visitor tokenizer returns exactly the oracle's tokens, for any
/// Unicode text, words at the length bounds and all-digit words included.
#[test]
fn visitor_tokenizer_matches_owned_string_oracle() {
    check!(
        CheckConfig::new(),
        unicode_letters_text(60),
        |text: &String| {
            require_eq!(tokenize(text), reference_tokenize(text));
            Ok(())
        }
    );
}

/// Analysis as it was before the memo: every token tokenized, filtered,
/// stemmed and interned afresh, except that a budget trips only on a term
/// that would not fit (never interned), not on a dropped token.
fn reference_analyze(
    text: &str,
    dict: &mut TermDict,
    out: &mut Vec<TermId>,
    budget: usize,
) -> bool {
    for token in reference_tokenize(text) {
        if is_stopword(&token) {
            continue;
        }
        let term = stem(&token);
        if term.is_empty() || is_stopword(&term) {
            continue;
        }
        if out.len() >= budget {
            return true;
        }
        out.push(dict.intern(&term));
    }
    false
}

/// Texts over a small vocabulary, so tokens repeat: stopwords, words that
/// stem onto a stopword ("ares" → "are"), shared stems, numbers, mixed
/// case, non-ASCII and overlong words.
fn repetitive_text() -> Gen<String> {
    let vocab = [
        "the",
        "The",
        "of",
        "and",
        "ares",
        "is",
        "flights",
        "Flight",
        "booking",
        "books",
        "cheap",
        "relational",
        "hopping",
        "2024",
        "mp3",
        "x",
        "İstanbul",
        "café",
        "ÉTÉ",
        "straße",
        "٣٤",
        "abcdefghijklmnopqrstuvwxyzabcdef",
        " ",
        " ",
        ", ",
        "-",
        "!\n",
    ];
    vecs(&from_slice(&vocab), 0, 40).map(|pieces| pieces.concat())
}

/// One step against a shared dictionary: `None` rebuilds the dictionary
/// from its terms, `Some` analyses a text under a budget (12 stands for
/// `usize::MAX`).
type Step = Option<(String, usize)>;

fn steps() -> Gen<Vec<Step>> {
    let analyze = pairs(&repetitive_text(), &usizes(0, 12));
    let step = pairs(&usizes(0, 5), &analyze).map(|(op, a)| (*op > 0).then(|| a.clone()));
    vecs(&step, 1, 12)
}

/// Memoized analysis equals the reference step for step: the same ids,
/// the same trim flag and, at the end, the same dictionary in the same
/// order — with random budgets, several texts sharing one dictionary, and
/// the dictionary rebuilt from its terms mid-way.
#[test]
fn memoized_analysis_matches_reference() {
    check!(CheckConfig::new(), steps(), |steps: &Vec<Step>| {
        let mut dict = TermDict::new();
        let mut reference = TermDict::new();
        for step in steps {
            let Some((text, budget)) = step else {
                let mut rebuilt = TermDict::new();
                for (_, term) in dict.iter() {
                    rebuilt.intern(term);
                }
                dict = rebuilt;
                continue;
            };
            let budget = if *budget == 12 { usize::MAX } else { *budget };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let trimmed = Analyzer.analyze_into_budget(text, &mut dict, &mut got, budget);
            let want_trimmed = reference_analyze(text, &mut reference, &mut want, budget);
            require_eq!(got, want);
            require_eq!(trimmed, want_trimmed);
        }
        let terms = |d: &TermDict| d.iter().map(|(_, t)| t.to_owned()).collect::<Vec<_>>();
        require_eq!(terms(&dict), terms(&reference));
        Ok(())
    });
}

/// The stemmer is total and never grows a word by more than one char (the
/// only growth rules are e-restoration like at→ate, bl→ble, iz→ize and the
/// cvc e-append, all of which net at most +1 over the original).
#[test]
fn stem_total_and_bounded() {
    check!(CheckConfig::new(), strings(LOWER, 0, 20), |w: &String| {
        let s = stem(w);
        require!(!s.is_empty() || w.is_empty(), "stem({w:?}) is empty");
        require!(s.len() <= w.len() + 1, "stem({w}) = {s} grew too much");
        Ok(())
    });
}

/// Stemming never panics on arbitrary Unicode.
#[test]
fn stem_total_on_unicode() {
    check!(CheckConfig::new(), unicode_text(40), |w: &String| {
        let _ = stem(w);
        Ok(())
    });
}

/// Stemming is deterministic, mixed case included.
#[test]
fn stem_deterministic() {
    let letters = [LOWER, UPPER].concat();
    check!(
        CheckConfig::new(),
        strings(&letters, 0, 20),
        |w: &String| {
            require_eq!(stem(w), stem(w));
            Ok(())
        }
    );
}

fn tokens_are_clean(text: &str) -> CaseResult {
    for t in tokenize(text) {
        let len = t.chars().count();
        require!((2..=30).contains(&len), "token {t:?} has {len} chars");
        require_eq!(t.to_lowercase(), t.clone());
        require!(t.chars().all(char::is_alphanumeric), "token {t:?}");
    }
    Ok(())
}

/// Tokenization output is always lowercase alphanumerics within length
/// bounds.
#[test]
fn tokens_lowercase_and_bounded() {
    check!(CheckConfig::new(), unicode_text(200), |t: &String| {
        tokens_are_clean(t)
    });
}

/// Tokenization is invariant under surrounding punctuation.
#[test]
fn tokens_ignore_surrounding_punctuation() {
    check!(
        CheckConfig::new(),
        vecs(&strings(LOWER, 2, 8), 1, 9),
        |words: &Vec<String>| {
            let plain = words.join(" ");
            let noisy = format!("... {} !!!", words.join(", "));
            require_eq!(tokenize(&plain), tokenize(&noisy));
            Ok(())
        }
    );
}

fn analyzer_output_is_clean_on(text: &str) -> CaseResult {
    let mut dict = TermDict::new();
    for id in Analyzer.analyze(text, &mut dict) {
        let term = dict.term(id);
        require!(!term.is_empty(), "empty term from {text:?}");
        require!(!is_stopword(term), "stopword {term:?} from {text:?}");
    }
    Ok(())
}

/// The analyzer never emits stopwords or empty terms.
#[test]
fn analyzer_output_is_clean() {
    check!(CheckConfig::new(), unicode_text(200), |t: &String| {
        analyzer_output_is_clean_on(t)
    });
}

/// Interning n distinct strings yields n distinct dense ids.
#[test]
fn dict_ids_distinct() {
    let sets = vecs(&strings(LOWER, 1, 12), 0, 49)
        .map(|words| words.iter().cloned().collect::<BTreeSet<String>>());
    check!(CheckConfig::new(), sets, |words: &BTreeSet<String>| {
        let mut dict = TermDict::new();
        let ids: BTreeSet<u32> = words.iter().map(|w| dict.intern(w).0).collect();
        require_eq!(ids.len(), words.len());
        require_eq!(dict.len(), words.len());
        require!(
            ids.iter().all(|&id| (id as usize) < words.len()),
            "ids not dense"
        );
        Ok(())
    });
}

/// What the memo costs when it never hits: 200 000 distinct words through
/// one fresh dictionary, memoized analysis against the reference loop,
/// best of five alternated rounds each. A timing, not a check, so it is
/// ignored by default; run it with
/// `cargo test --release -p cafc-text --test props -- --ignored --nocapture memo_cost`.
#[test]
#[ignore]
fn memo_cost_when_every_token_is_distinct() {
    let words: Vec<String> = (0..200_000usize)
        .map(|i| {
            let (mut x, mut word) = (i + 26 * 26, String::new());
            while x > 0 {
                word.push(char::from(b'a' + (x % 26) as u8));
                x /= 26;
            }
            word
        })
        .collect();
    let text = words.join(" ");
    let (mut memo, mut reference) = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let start = std::time::Instant::now();
        Analyzer.analyze_into(&text, &mut TermDict::new(), &mut Vec::new());
        memo = memo.min(start.elapsed().as_secs_f64());
        let start = std::time::Instant::now();
        reference_analyze(&text, &mut TermDict::new(), &mut Vec::new(), usize::MAX);
        reference = reference.min(start.elapsed().as_secs_f64());
    }
    let per_token = |s: f64| s / words.len() as f64 * 1e9;
    println!(
        "all tokens distinct: memoized {:.0} ns/token, reference {:.0} ns/token",
        per_token(memo),
        per_token(reference)
    );
}

/// A counterexample the tokenizer/analyzer properties once shrank to:
/// ASCII letters followed by a supplementary-plane character.
#[test]
fn saved_counterexample_ascii_then_supplementary_char() {
    let text = "aed\u{18df3}";
    assert_eq!(tokens_are_clean(text), Ok(()));
    assert_eq!(analyzer_output_is_clean_on(text), Ok(()));
}
