//! Synthetic languages and the translator that undoes them.
//!
//! "Since 49% of Gold Standard AS websites are not in English, we translate
//! scraped text to English using Chrome's Google Translate" (§4.1). The
//! real web's language diversity is replaced by eight synthetic languages,
//! each an *invertible word transform* of English: a language-specific
//! prefix/suffix mangling that the [`Translator`] strips. Translation is
//! deliberately lossy at a small configurable rate — real MT also garbles
//! words — so the ML pipeline sees realistic post-translation text.
//!
//! Both the ML detectors and Zvelo translate every page they scrape, so
//! detection and the rebuild work on bytes: one scan finds the words, and
//! each word costs one probe of its last bytes. Only a non-ASCII word, or
//! a lead byte that can start a non-ASCII space, pays for Unicode.

use asdb_model::WorldSeed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;

/// A website language. `English` passes text through unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // Names are evocative of the transform, not of real locales.
pub enum Language {
    English,
    Zonal,
    Vexic,
    Quorin,
    Navese,
    Kirish,
    Ostal,
    Melodian,
    Tarvic,
}

impl Language {
    /// All non-English languages.
    pub const NON_ENGLISH: [Language; 8] = [
        Language::Zonal,
        Language::Vexic,
        Language::Quorin,
        Language::Navese,
        Language::Kirish,
        Language::Ostal,
        Language::Melodian,
        Language::Tarvic,
    ];

    /// The word-level marker this language appends: `x` plus the
    /// language's two- or three-letter suffix.
    fn marker(self) -> &'static str {
        match self {
            Language::English => "",
            Language::Zonal => "xzo",
            Language::Vexic => "xvex",
            Language::Quorin => "xqu",
            Language::Navese => "xnav",
            Language::Kirish => "xki",
            Language::Ostal => "xost",
            Language::Melodian => "xmel",
            Language::Tarvic => "xtar",
        }
    }

    /// Transform an English word into this language.
    pub fn mangle_word(self, word: &str) -> String {
        if self == Language::English || word.is_empty() {
            return word.to_owned();
        }
        format!("{word}{}", self.marker())
    }

    /// Transform whole text (word-by-word, preserving whitespace shape):
    /// every non-empty run between spaces and newlines gets the marker,
    /// and the separators are copied as they are. One exactly sized
    /// output buffer, no per-word `String`.
    pub fn mangle_text(self, text: &str) -> String {
        let words = word_ends(text).count();
        let mut out = String::with_capacity(text.len() + words * self.marker().len());
        self.push_mangled(&mut out, text);
        out
    }

    /// Append [`Language::mangle_text`] of `text` to `out`: each word with
    /// the text before it, then the marker. English text is copied whole.
    pub(crate) fn push_mangled(self, out: &mut String, text: &str) {
        let marker = self.marker();
        if marker.is_empty() {
            out.push_str(text);
            return;
        }
        let mut copied = 0;
        for end in word_ends(text) {
            out.push_str(&text[copied..end]);
            out.push_str(marker);
            copied = end;
        }
        out.push_str(&text[copied..]);
    }

    /// Detect the language of a text by its dominant suffix marker,
    /// matched case-insensitively: the language whose marker ends at least
    /// half of the words wins, the later one on a tie.
    ///
    /// Words are those of `str::split_whitespace`, found byte by byte: a
    /// char is decoded only at a lead byte that can start a non-ASCII
    /// White_Space char (`space_len`). Each word costs one probe of its
    /// last three or four bytes (`marker_slot`). A non-ASCII word is
    /// lowercased first, since the Kelvin sign folds to `k`.
    pub fn detect(text: &str) -> Language {
        let bytes = text.as_bytes();
        let mut counts = [0usize; 8];
        let mut words = 0usize;
        let mut i = 0;
        while i < bytes.len() {
            let space = space_len(text, i);
            if space > 0 {
                i += space;
                continue;
            }
            let start = i;
            let mut ascii = true;
            loop {
                i = next_unusual(bytes, i);
                if i == bytes.len() || space_len(text, i) > 0 {
                    break;
                }
                ascii &= bytes[i].is_ascii();
                i += 1;
            }
            words += 1;
            let slot = if ascii {
                marker_slot(&bytes[start..i])
            } else {
                marker_slot(text[start..i].to_lowercase().as_bytes())
            };
            if let Some(slot) = slot {
                counts[slot] += 1;
            }
        }
        if words == 0 {
            return Language::English;
        }
        let (best, &n) = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("fixed-size array");
        if n * 2 >= words {
            Language::NON_ENGLISH[best]
        } else {
            Language::English
        }
    }
}

/// The end of each word of [`Language::mangle_text`]: the index after
/// every maximal run of bytes other than `b' '` and `b'\n'`. Both are
/// ASCII, so they never occur inside a multi-byte char and each end is a
/// char boundary.
fn word_ends(text: &str) -> impl Iterator<Item = usize> + '_ {
    let separator = |b: u8| b == b' ' || b == b'\n';
    let bytes = text.as_bytes();
    let mut in_word = false;
    bytes
        .iter()
        .chain([&b' '])
        .enumerate()
        .filter_map(move |(i, &b)| {
            let ends = in_word && separator(b);
            in_word = !separator(b);
            ends.then_some(i)
        })
}

/// The index of the first byte at or after `i` that is an ASCII control or
/// space (at most `0x20`) or not ASCII (at least `0x80`); `bytes.len()`
/// when there is none. Only such a byte can start White_Space, so scans
/// skip the printable ASCII between them eight bytes at a time.
fn next_unusual(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // A byte below 0x21 borrows and sets its high bit; a non-ASCII byte
        // has it set. Borrows only reach higher bytes, so the lowest flag
        // is exact.
        let flags = (x.wrapping_sub(ONES * 0x21) | x) & HIGHS;
        if flags != 0 {
            return i + flags.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < bytes.len() && (0x21..0x80).contains(&bytes[i]) {
        i += 1;
    }
    i
}

/// The byte length of the White_Space char starting at byte `i` of `text`,
/// or 0 when none does. In ASCII those are `\t` to `\r` and the space
/// (`u8::is_ascii_whitespace` leaves out the vertical tab). Outside ASCII
/// only the lead bytes `0xC2` (U+0085, U+00A0), `0xE1` (U+1680), `0xE2`
/// (U+2000–U+200A, U+2028, U+2029, U+202F, U+205F, and non-space chars
/// such as the em dash) and `0xE3` (U+3000) can start one, so only those
/// are decoded.
fn space_len(text: &str, i: usize) -> usize {
    match text.as_bytes()[i] {
        b if b.is_ascii() => usize::from(matches!(b, b'\t'..=b'\r' | b' ')),
        0xC2 | 0xE1..=0xE3 => match text[i..].chars().next() {
            Some(c) if c.is_whitespace() => c.len_utf8(),
            _ => 0,
        },
        _ => 0,
    }
}

/// The position in [`Language::NON_ENGLISH`] of the language whose marker
/// ends `word`, ignoring ASCII case. `b | 0x20` equals a lowercase ASCII
/// letter exactly when `b` is that letter in either case, so folding each
/// byte that way compares like `eq_ignore_ascii_case` against markers made
/// of letters. No marker is a suffix of another, so at most one matches.
fn marker_slot(word: &[u8]) -> Option<usize> {
    let n = word.len();
    let fold = |back: usize| word[n - back] | 0x20;
    if n >= 4 && fold(4) == b'x' {
        let slot = match &[fold(3), fold(2), fold(1)] {
            b"vex" => Some(1),
            b"nav" => Some(3),
            b"ost" => Some(5),
            b"mel" => Some(6),
            b"tar" => Some(7),
            _ => None,
        };
        if slot.is_some() {
            return slot;
        }
    }
    if n >= 3 && fold(3) == b'x' {
        return match &[fold(2), fold(1)] {
            b"zo" => Some(0),
            b"qu" => Some(2),
            b"ki" => Some(4),
            _ => None,
        };
    }
    None
}

/// A simulated machine translator: detects the language, strips its marker,
/// and loses a small fraction of words (as real MT does with proper nouns
/// and OCR-ish noise).
#[derive(Debug, Clone)]
pub struct Translator {
    /// Fraction of words dropped/garbled during translation.
    pub loss_rate: f64,
    seed: WorldSeed,
}

impl Translator {
    /// A translator with a given word-loss rate.
    pub fn new(loss_rate: f64, seed: WorldSeed) -> Translator {
        assert!((0.0..=1.0).contains(&loss_rate), "loss_rate in [0,1]");
        Translator { loss_rate, seed }
    }

    /// A lossless translator, for tests.
    pub fn perfect(seed: WorldSeed) -> Translator {
        Translator::new(0.0, seed)
    }

    /// Translate text to English. English input is borrowed back unchanged
    /// and without loss; the ML detectors and Zvelo translate every
    /// scraped page, English or not, and most pages are English.
    ///
    /// Foreign text is written word by word into one output buffer. Words
    /// are split on the ASCII bytes `b'\n'` and `b' '`, so a byte search
    /// finds them exactly; ASCII words are trimmed and stripped by bytes,
    /// other words by `push_stripped`. A lossy translator draws one loss
    /// decision per `' '`-separated word of each line, empty words
    /// included, and a lost word takes its separating space with it.
    pub fn translate<'a>(&self, text: &'a str) -> Cow<'a, str> {
        let lang = Language::detect(text);
        if lang == Language::English {
            return Cow::Borrowed(text);
        }
        let marker = lang.marker();
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .derive_index("translate", text.len() as u64)
                .value(),
        );
        let lossy = self.loss_rate > 0.0;
        let bytes = text.as_bytes();
        let mut out = String::with_capacity(text.len());
        // Whether the current line has no kept word yet.
        let mut first = true;
        let mut start = 0;
        loop {
            let mut end = start;
            let mut ascii = true;
            loop {
                end = next_unusual(bytes, end);
                match bytes.get(end) {
                    None | Some(b' ' | b'\n') => break,
                    Some(b) => ascii &= b.is_ascii(),
                }
                end += 1;
            }
            if !(lossy && rng.random_bool(self.loss_rate)) {
                // Past the line's first kept word the byte before this
                // word is its separating space: copy the two together.
                let from = if first { start } else { start - 1 };
                first = false;
                if ascii {
                    push_stripped_ascii(&mut out, &text[from..end], marker);
                } else {
                    out.push_str(&text[from..start]);
                    push_stripped(&mut out, &text[start..end], marker);
                }
            }
            match bytes.get(end) {
                None => break,
                Some(b'\n') => {
                    out.push('\n');
                    first = true;
                }
                Some(_) => {}
            }
            start = end + 1;
        }
        Cow::Owned(out)
    }
}

/// Whether `word` ends with the lowercase ASCII `marker`, ignoring ASCII
/// case.
fn ends_with_ignore_ascii_case(word: &[u8], marker: &[u8]) -> bool {
    word.len() >= marker.len() && word[word.len() - marker.len()..].eq_ignore_ascii_case(marker)
}

/// [`push_stripped`] for an ASCII `word`, by bytes: its core ends at the
/// last ASCII alphanumeric byte. `word` may start with its separating
/// space, which no marker contains.
fn push_stripped_ascii(out: &mut String, word: &str, marker: &str) {
    let bytes = word.as_bytes();
    let core = bytes
        .iter()
        .rposition(u8::is_ascii_alphanumeric)
        .map_or(0, |p| p + 1);
    let cut = if ends_with_ignore_ascii_case(&bytes[..core], marker.as_bytes()) {
        core - marker.len()
    } else {
        core
    };
    out.push_str(&word[..cut]);
    out.push_str(&word[core..]);
}

/// Append `word` with its language marker stripped, preserving trailing
/// punctuation.
fn push_stripped(out: &mut String, word: &str, marker: &str) {
    let core = word.trim_end_matches(|c: char| !c.is_alphanumeric());
    out.push_str(strip_marker(core, marker));
    out.push_str(&word[core.len()..]);
}

/// `core` without its trailing lowercase-ASCII `marker`, matched
/// case-insensitively; `core` itself when it does not end with one. ASCII
/// words compare bytes. Other words fold char by char from the end, so the
/// cut lands on a char boundary even where folding changes a char's length
/// (the three-byte Kelvin sign lowercases to `k`).
fn strip_marker<'a>(core: &'a str, marker: &str) -> &'a str {
    if core.is_ascii() {
        return if ends_with_ignore_ascii_case(core.as_bytes(), marker.as_bytes()) {
            &core[..core.len() - marker.len()]
        } else {
            core
        };
    }
    let mut rest = core.chars();
    for m in marker.chars().rev() {
        match rest.next_back() {
            Some(c) if c.to_lowercase().eq([m]) => {}
            _ => return core,
        }
    }
    rest.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, any_string, class_string, vec_of, CASES};

    #[test]
    fn english_passes_through() {
        let t = "fast fiber internet for your home";
        assert_eq!(Language::English.mangle_text(t), t);
        assert_eq!(Language::detect(t), Language::English);
        let tr = Translator::perfect(WorldSeed::new(1));
        assert_eq!(tr.translate(t), t);
    }

    #[test]
    fn mangle_detect_translate_roundtrip() {
        let original = "cloud hosting dedicated servers with managed support";
        for lang in Language::NON_ENGLISH {
            let foreign = lang.mangle_text(original);
            assert_ne!(foreign, original);
            assert_eq!(Language::detect(&foreign), lang, "{lang:?}");
            let back = Translator::perfect(WorldSeed::new(2)).translate(&foreign);
            assert_eq!(back, original, "{lang:?}");
        }
    }

    #[test]
    fn punctuation_survives_roundtrip() {
        let original = "welcome to acme, the best provider!";
        let foreign = Language::Zonal.mangle_text(original);
        let back = Translator::perfect(WorldSeed::new(3)).translate(&foreign);
        assert_eq!(back, original);
    }

    #[test]
    fn lossy_translation_drops_words() {
        let original: String = (0..200)
            .map(|i| format!("word{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        let foreign = Language::Vexic.mangle_text(&original);
        let tr = Translator::new(0.3, WorldSeed::new(4));
        let back = tr.translate(&foreign);
        let kept = back.split_whitespace().count();
        assert!(kept < 190, "expected losses, kept {kept}");
        assert!(kept > 100, "too much loss, kept {kept}");
    }

    #[test]
    fn detection_threshold() {
        // Mostly-English text with one foreign word stays English.
        let mixed = "plain english text with one wordxzo marker";
        assert_eq!(Language::detect(mixed), Language::English);
        assert_eq!(Language::detect(""), Language::English);
    }

    #[test]
    fn detection_ignores_case() {
        assert_eq!(Language::detect("FIBERXZO NETXZO"), Language::Zonal);
        // The Kelvin sign lowercases to an ASCII `k`.
        assert_eq!(Language::detect("wordx\u{212A}i"), Language::Kirish);
    }

    #[test]
    fn case_tolerant_strip_cuts_on_char_boundaries() {
        // The Kelvin sign lowercases to an ASCII `k`, so "X\u{212A}I" folds
        // to the three-byte marker "xki" while spanning five bytes.
        let tr = Translator::perfect(WorldSeed::new(7));
        assert_eq!(
            tr.translate("aX\u{212A}I fooxki barxki bazxki"),
            "a foo bar baz"
        );
        assert_eq!(
            tr.translate("FIBERXZO netxzo, \u{e9}t\u{e9}xzo  webxzo\n\nhostxzo!"),
            "FIBER net, \u{e9}t\u{e9}  web\n\nhost!"
        );
    }

    #[test]
    fn marker_slot_maps_each_marker_to_its_language() {
        for (slot, lang) in Language::NON_ENGLISH.into_iter().enumerate() {
            let marker = lang.marker();
            assert_eq!(marker_slot(marker.as_bytes()), Some(slot), "{lang:?}");
            let word = lang.mangle_word("Word").to_uppercase();
            assert_eq!(marker_slot(word.as_bytes()), Some(slot), "{lang:?}");
            assert_eq!(marker_slot(&marker.as_bytes()[1..]), None, "{lang:?}");
        }
        // A four-byte tail that is no marker still leaves the three-byte one.
        assert_eq!(marker_slot(b"xxzo"), Some(0));
        assert_eq!(marker_slot(b"xzo!"), None);
    }

    #[test]
    fn suffixes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for l in Language::NON_ENGLISH {
            assert!(seen.insert(l.marker()), "duplicate marker {}", l.marker());
        }
    }

    #[test]
    fn translate_never_panics() {
        let tr = Translator::new(0.1, WorldSeed::new(5));
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=300),
            |s| {
                let _ = tr.translate(&s);
            },
        );
    }

    #[test]
    fn roundtrip_on_clean_words() {
        check::cases(
            CASES,
            |rng| vec_of(rng, 1..20, |r| class_string(r, "a-z", 2..=10)),
            |words| {
                let original = words.join(" ");
                for lang in [Language::Quorin, Language::Tarvic] {
                    let foreign = lang.mangle_text(&original);
                    let back = Translator::perfect(WorldSeed::new(6)).translate(&foreign);
                    assert_eq!(&back, &original);
                }
            },
        );
    }
}
