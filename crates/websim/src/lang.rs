//! Synthetic languages and the translator that undoes them.
//!
//! "Since 49% of Gold Standard AS websites are not in English, we translate
//! scraped text to English using Chrome's Google Translate" (§4.1). The
//! real web's language diversity is replaced by eight synthetic languages,
//! each an *invertible word transform* of English: a language-specific
//! prefix/suffix mangling that the [`Translator`] strips. Translation is
//! deliberately lossy at a small configurable rate — real MT also garbles
//! words — so the ML pipeline sees realistic post-translation text.

use asdb_model::WorldSeed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

    /// Transform whole text (word-by-word, preserving whitespace shape).
    pub fn mangle_text(self, text: &str) -> String {
        if self == Language::English {
            return text.to_owned();
        }
        text.split('\n')
            .map(|line| {
                line.split(' ')
                    .map(|w| self.mangle_word(w))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Detect the language of a text by its dominant suffix marker,
    /// matched case-insensitively. ASCII words, the usual case, are
    /// compared in place; other words are lowercased once. A word is only
    /// compared against the markers when it has an `x` where a three- or
    /// four-byte marker would start.
    pub fn detect(text: &str) -> Language {
        let mut counts = [0usize; 8];
        let mut words = 0usize;
        for w in text.split_whitespace() {
            words += 1;
            let lowered;
            let w = if w.is_ascii() {
                w.as_bytes()
            } else {
                lowered = w.to_lowercase();
                lowered.as_bytes()
            };
            let x_at =
                |back: usize| w.len() >= back && w[w.len() - back].eq_ignore_ascii_case(&b'x');
            if !(x_at(3) || x_at(4)) {
                continue;
            }
            for (count, lang) in counts.iter_mut().zip(Language::NON_ENGLISH) {
                if ends_with_ignore_ascii_case(w, lang.marker().as_bytes()) {
                    *count += 1;
                }
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

    /// Translate text to English. English input passes through unchanged
    /// (and without loss — the translator is only invoked on foreign text
    /// in the pipeline, but being idempotent on English is safer).
    ///
    /// Foreign text is written word by word into one output buffer. A
    /// lossy translator draws one loss decision per `' '`-separated word
    /// of each line, empty words included, and a lost word takes its
    /// separating space with it.
    pub fn translate(&self, text: &str) -> String {
        let lang = Language::detect(text);
        if lang == Language::English {
            return text.to_owned();
        }
        let marker = lang.marker();
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .derive_index("translate", text.len() as u64)
                .value(),
        );
        let mut out = String::with_capacity(text.len());
        for (i, line) in text.split('\n').enumerate() {
            if i > 0 {
                out.push('\n');
            }
            let mut first = true;
            for word in line.split(' ') {
                if self.loss_rate > 0.0 && rng.random_bool(self.loss_rate) {
                    continue;
                }
                if !first {
                    out.push(' ');
                }
                first = false;
                push_stripped(&mut out, word, marker);
            }
        }
        out
    }
}

/// Whether `word` ends with the lowercase ASCII `marker`, ignoring ASCII
/// case.
fn ends_with_ignore_ascii_case(word: &[u8], marker: &[u8]) -> bool {
    word.len() >= marker.len() && word[word.len() - marker.len()..].eq_ignore_ascii_case(marker)
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
