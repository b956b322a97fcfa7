//! Word tokenization and stopword filtering.
//!
//! A word is a maximal run of alphanumeric chars (`char::is_alphanumeric`)
//! at least two *bytes* long, lower-cased. That differs from
//! scikit-learn's `\w\w+` in three ways: `_` and combining marks such
//! as U+0301 split words instead of joining them; a lone two-byte letter
//! such as `é` or `ß` is a word; and length is counted before folding, so
//! the Kelvin sign U+212A (three bytes) alone is a word that folds to
//! `k`. A *token* is a word that is neither a stopword nor all ASCII
//! digits.
//!
//! Two entry points share that rule:
//!
//! * [`for_each_word`] — the byte-level splitter behind every per-page
//!   pass: [`crate::CountVectorizer::transform`] and Zvelo's scorer in
//!   `asdb-sources`. It yields words, not tokens; a caller that needs
//!   tokens applies the stopword and number filter itself, or (as the
//!   vectorizer does) probes a vocabulary that holds neither. Page text
//!   is almost all lower-case ASCII words, so the splitter tests the text
//!   eight bytes at a time in one `u64` (SWAR, "SIMD within a register",
//!   in safe Rust) and steps over runs of lower-case letters and digits;
//!   only the bytes outside such runs are looked at one by one.
//! * [`tokens`] — an iterator of [`Cow<str>`] tokens, used to fit a
//!   vocabulary. Tokens that are already lower-case ASCII are borrowed
//!   straight from the input; only tokens that need case-folding
//!   allocate.
//!
//! [`tokenize`] (`Vec<String>`) is a thin wrapper over [`tokens`].

use std::borrow::Cow;

/// English stopwords filtered before vectorization. A compact list tuned
/// for the web-page text the scraper produces; matching scikit-learn's
/// default of *not* stemming.
pub static STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "all", "also", "an", "and", "any", "are", "as", "at",
    "be", "because", "been", "before", "being", "below", "between", "both", "but", "by", "can",
    "could", "did", "do", "does", "doing", "down", "during", "each", "few", "for", "from",
    "further", "had", "has", "have", "having", "he", "her", "here", "hers", "him", "his", "how",
    "i", "if", "in", "into", "is", "it", "its", "just", "me", "more", "most", "my", "no", "nor",
    "not", "now", "of", "off", "on", "once", "only", "or", "other", "our", "ours", "out", "over",
    "own", "same", "she", "should", "so", "some", "such", "than", "that", "the", "their", "theirs",
    "them", "then", "there", "these", "they", "this", "those", "through", "to", "too", "under",
    "until", "up", "very", "was", "we", "were", "what", "when", "where", "which", "while", "who",
    "whom", "why", "will", "with", "you", "your", "yours",
];

/// Whether a token is a stopword.
pub fn is_stopword(token: &str) -> bool {
    STOPWORDS.binary_search(&token).is_ok()
}

/// Whether a raw word can be passed through without case-folding: pure
/// ASCII with no upper-case letters lowercases to itself. (Non-ASCII text
/// takes the allocating path so locale rules like Σ → ς stay exact.)
#[inline]
fn is_lowercase_ascii(raw: &str) -> bool {
    raw.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase())
}

/// The filter that turns a word into a token: drop pure numbers and
/// stopwords.
#[inline]
fn keep_token(tok: &str) -> bool {
    !tok.bytes().all(|b| b.is_ascii_digit()) && !is_stopword(tok)
}

/// Iterate tokens as borrowed slices where possible: the words of
/// [`for_each_word`], minus stopwords and pure numbers. Already-lowercase
/// ASCII tokens are `Cow::Borrowed`.
pub fn tokens(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter_map(|raw| {
            if raw.len() < 2 {
                return None;
            }
            let tok: Cow<str> = if is_lowercase_ascii(raw) {
                Cow::Borrowed(raw)
            } else {
                Cow::Owned(raw.to_lowercase())
            };
            keep_token(&tok).then_some(tok)
        })
}

/// Call `f` once per lower-cased word of `text`, in order (see the module
/// docs for what a word is; stopwords and numbers are *not* dropped).
///
/// The scan is byte-level and walks the text in blocks of eight bytes.
/// Each block is loaded as one `u64` and `outside_lower_alnum` flags
/// its bytes that are not lower-case ASCII letters or digits, which hold
/// most of a page's bytes; a block with no flag is stepped over whole,
/// and within a block the scan jumps from flag to flag by
/// `trailing_zeros() / 8`. Of the flagged bytes, an upper-case ASCII
/// letter marks the word for folding, any other ASCII byte ends it, and a
/// char is decoded, and tested with `char::is_alphanumeric`, only where a
/// non-ASCII byte starts one (its other bytes are passed over). An
/// all-ASCII word is passed as a slice of `text` when it holds no
/// upper-case byte, else folded in `buf` with `make_ascii_lowercase`. A
/// word holding a non-ASCII char goes through `str::to_lowercase` (not
/// per-char folding, so context-sensitive rules like the final sigma stay
/// exact). No allocation happens on the ASCII path once `buf` has grown
/// to the longest cased word.
pub fn for_each_word(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut start = 0;
    let mut upper = false;
    let mut non_ascii = false;
    // Flags before `resume` are the continuation bytes of a char already
    // decoded.
    let mut resume = 0;
    let mut block = 0;
    while block < bytes.len() {
        let mut flags = match bytes.get(block..block + 8) {
            Some(eight) => outside_lower_alnum(eight.try_into().expect("eight bytes")),
            None => {
                // The last, short block: pad it with a byte that is never
                // flagged.
                let mut eight = [b'a'; 8];
                eight[..bytes.len() - block].copy_from_slice(&bytes[block..]);
                outside_lower_alnum(eight)
            }
        };
        while flags != 0 {
            let i = block + flags.trailing_zeros() as usize / 8;
            flags &= flags - 1;
            if i < resume {
                continue;
            }
            let b = bytes[i];
            if b.is_ascii_uppercase() {
                upper = true;
                continue;
            }
            let (alnum, width) = if b.is_ascii() {
                (false, 1)
            } else {
                let c = text[i..].chars().next().expect("i is on a char boundary");
                (c.is_alphanumeric(), c.len_utf8())
            };
            if alnum {
                non_ascii = true;
            } else {
                emit_word(&text[start..i], upper, non_ascii, buf, &mut f);
                start = i + width;
                upper = false;
                non_ascii = false;
            }
            resume = i + width;
        }
        block += 8;
    }
    emit_word(&text[start..], upper, non_ascii, buf, &mut f);
}

/// The bytes of `eight` that are not lower-case ASCII letters or ASCII
/// digits, as the high bit of each byte of a little-endian `u64` (byte
/// `k` is bit `8k + 7`).
///
/// All eight are tested at once with plain `u64` arithmetic (SWAR, "SIMD
/// within a register"). With each byte's high bit cleared, adding
/// `0x80 - lo` sets the high bit exactly when the byte is at least `lo`,
/// and adding `0x7F - hi` exactly when it is above `hi`; no sum reaches
/// `0x100`, so no carry crosses into the next byte. A byte is inside when
/// it lies in `a..=z` or `0..=9` and its own high bit was clear (it is
/// ASCII).
#[inline]
fn outside_lower_alnum(eight: [u8; 8]) -> u64 {
    const fn splat(b: u8) -> u64 {
        u64::from_ne_bytes([b; 8])
    }
    const HIGHS: u64 = splat(0x80);
    let x = u64::from_le_bytes(eight);
    let y = x & !HIGHS;
    let in_range = |lo: u8, hi: u8| (y + splat(0x80 - lo)) & !(y + splat(0x7F - hi));
    let inside = (in_range(b'a', b'z') | in_range(b'0', b'9')) & !x;
    !inside & HIGHS
}

/// Fold and pass on one raw word of [`for_each_word`], if it is at least
/// two bytes long.
#[inline]
fn emit_word(raw: &str, upper: bool, non_ascii: bool, buf: &mut String, f: &mut impl FnMut(&str)) {
    if raw.len() < 2 {
        return;
    }
    if non_ascii {
        buf.clear();
        buf.push_str(&raw.to_lowercase());
        f(buf);
    } else if upper {
        buf.clear();
        buf.push_str(raw);
        buf.make_ascii_lowercase();
        f(buf);
    } else {
        f(raw);
    }
}

/// Tokenize text into owned lower-cased words (legacy convenience wrapper
/// around [`tokens`]).
pub fn tokenize(text: &str) -> Vec<String> {
    tokens(text).map(Cow::into_owned).collect()
}

/// Chars that stress the splitter: ASCII letters of both cases,
/// digits, ASCII separators including `_`, a no-break space, two-byte
/// letters, the final-sigma letter, the Kelvin sign (folds to ASCII
/// `k`), dotted capital I (folds to two chars), a combining mark and a
/// non-ASCII digit.
#[cfg(test)]
pub(crate) const WORD_CHARS: &str = "A-Za-z0-9_' \u{A0}ÉßΣ\u{212A}\u{130}\u{301}\u{663}-";

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, any_string, class_string, CASES};
    use rand::RngExt;

    #[test]
    fn stopwords_are_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn basic_tokenization() {
        assert_eq!(
            tokenize("We provide the BEST fiber internet!"),
            vec!["provide", "best", "fiber", "internet"]
        );
    }

    #[test]
    fn numbers_and_short_tokens_dropped() {
        assert_eq!(tokenize("24 7 support at x"), vec!["support"]);
        assert_eq!(tokenize("ipv6 24x7"), vec!["ipv6", "24x7"]);
    }

    #[test]
    fn unicode_safe() {
        let toks = tokenize("Schnelles Internet für Zuhause");
        assert!(toks.contains(&"schnelles".to_owned()));
        assert!(toks.contains(&"für".to_owned()));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  \t\n ").is_empty());
    }

    #[test]
    fn lowercase_ascii_tokens_are_borrowed() {
        let text = "fiber Internet provider";
        let kinds: Vec<bool> = tokens(text)
            .map(|t| matches!(t, Cow::Borrowed(_)))
            .collect();
        // "fiber" and "provider" borrow; "Internet" needs folding.
        assert_eq!(kinds, vec![true, false, true]);
    }

    /// The words of `text` that pass the keep rule, via [`for_each_word`].
    fn word_tokens(text: &str) -> Vec<String> {
        let mut buf = String::new();
        let mut out = Vec::new();
        for_each_word(text, &mut buf, |w| {
            if keep_token(w) {
                out.push(w.to_owned());
            }
        });
        out
    }

    #[test]
    fn for_each_word_matches_tokenize() {
        let samples = [
            "We provide the BEST fiber internet!",
            "Schnelles Internet für Zuhause",
            "24 7 support at x ipv6 24x7",
            "ΣΊΣΥΦΟΣ carries the stone", // final-sigma casefold
            "",
        ];
        for text in samples {
            assert_eq!(word_tokens(text), tokenize(text), "{text:?}");
        }
    }

    #[test]
    fn words_follow_the_byte_rule() {
        let mut buf = String::new();
        let mut words = Vec::new();
        let text = "snake_case é ß x K \u{212A} cafe\u{301}s ΣΑΣ ٣٣ TCP/IP";
        for_each_word(text, &mut buf, |w| words.push(w.to_owned()));
        // `_` and the combining acute split words; `é`, `ß` and the
        // Kelvin sign are two or more bytes, one-byte `x` and `K` are not.
        assert_eq!(
            words,
            ["snake", "case", "é", "ß", "k", "cafe", "σας", "٣٣", "tcp", "ip"].map(str::to_owned)
        );
    }

    #[test]
    fn for_each_word_matches_tokenize_on_tricky_chars() {
        check::cases(
            CASES,
            |rng| class_string(rng, WORD_CHARS, 0..=80),
            |s| assert_eq!(word_tokens(&s), tokenize(&s)),
        );
    }

    #[test]
    fn never_panics_and_tokens_are_clean() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=400),
            |s| {
                for t in tokenize(&s) {
                    assert!(t.len() >= 2);
                    assert!(!is_stopword(&t));
                    assert_eq!(t.clone(), t.to_lowercase());
                }
            },
        );
    }

    /// Bytes on both edges of `a..=z` and `0..=9` (`` ` `` `{` `/` `:`),
    /// upper-case letters, and non-ASCII chars holding bytes whose low
    /// seven bits spell a letter or digit (the Kelvin sign's lead `0xE2`,
    /// `ð`'s `0xB0`).
    const EDGE_CHARS: &str = "a-z0-9`{/:@[A-Z \u{212A}ð";

    /// The SWAR mask flags exactly the bytes a byte test flags: every pair
    /// of byte values in every two neighbouring lanes, so a carry out of
    /// one byte's sum would show in the next.
    #[test]
    fn outside_lower_alnum_matches_a_byte_test() {
        let expected = |eight: [u8; 8]| -> u64 {
            (0..8)
                .filter(|&k| !matches!(eight[k], b'a'..=b'z' | b'0'..=b'9'))
                .map(|k| 0x80 << (8 * k))
                .sum()
        };
        for k in 0..7 {
            for a in 0..=u8::MAX {
                for b in 0..=u8::MAX {
                    let mut eight = *b"z{a9`0/:";
                    eight[k] = a;
                    eight[k + 1] = b;
                    assert_eq!(outside_lower_alnum(eight), expected(eight), "{eight:?}");
                }
            }
        }
    }

    /// Texts of edge bytes split like a `char` split, at every length
    /// around the eight-byte blocks.
    #[test]
    fn edge_chars_split_like_a_char_split() {
        check::cases(
            CASES,
            |rng| class_string(rng, EDGE_CHARS, 0..=40),
            |s| assert_eq!(words(&s), char_split(&s), "{s:?}"),
        );
    }

    /// Lower-case runs of every length up to 40 between other chars give
    /// the words of a `char` split, numbers and stopwords included: the
    /// eight-byte blocks start and end at every offset of a run.
    #[test]
    fn long_lower_case_runs_give_the_words_of_a_char_split() {
        check::cases(
            CASES,
            |rng| {
                let mut text = String::new();
                for _ in 0..rng.random_range(0..12) {
                    text.push_str(&class_string(rng, "a-z0-9", 0..=40));
                    text.push_str(&class_string(rng, WORD_CHARS, 1..=2));
                }
                text
            },
            |s| assert_eq!(words(&s), char_split(&s), "{s:?}"),
        );
    }

    /// Every word of [`for_each_word`], owned.
    fn words(text: &str) -> Vec<String> {
        let mut buf = String::new();
        let mut words = Vec::new();
        for_each_word(text, &mut buf, |w| words.push(w.to_owned()));
        words
    }

    /// The words of the rule written with a `char` split.
    fn char_split(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|w| w.len() >= 2)
            .map(str::to_lowercase)
            .collect()
    }

    /// All three entry points agree on arbitrary input.
    #[test]
    fn entry_points_agree() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=400),
            |s| {
                let owned = tokenize(&s);
                let via_iter: Vec<String> = tokens(&s).map(|c| c.into_owned()).collect();
                assert_eq!(&owned, &via_iter);
                assert_eq!(&owned, &word_tokens(&s));
            },
        );
    }
}
