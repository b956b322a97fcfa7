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

    /// The word-level suffix marker this language appends.
    fn suffix(self) -> &'static str {
        match self {
            Language::English => "",
            Language::Zonal => "zo",
            Language::Vexic => "vex",
            Language::Quorin => "qu",
            Language::Navese => "nav",
            Language::Kirish => "ki",
            Language::Ostal => "ost",
            Language::Melodian => "mel",
            Language::Tarvic => "tar",
        }
    }

    /// Transform an English word into this language.
    pub fn mangle_word(self, word: &str) -> String {
        if self == Language::English || word.is_empty() {
            return word.to_owned();
        }
        format!("{}x{}", word, self.suffix())
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
    /// compared in place; other words are lowercased once.
    pub fn detect(text: &str) -> Language {
        let markers = Language::NON_ENGLISH.map(|lang| ["x", lang.suffix()].concat());
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
            for (count, marker) in counts.iter_mut().zip(&markers) {
                if ends_with_ignore_ascii_case(w, marker.as_bytes()) {
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
    pub fn translate(&self, text: &str) -> String {
        let lang = Language::detect(text);
        if lang == Language::English {
            return text.to_owned();
        }
        let marker = format!("x{}", lang.suffix());
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .derive_index("translate", text.len() as u64)
                .value(),
        );
        text.split('\n')
            .map(|line| {
                line.split(' ')
                    .filter_map(|w| {
                        let restored = strip_marker(w, &marker);
                        if self.loss_rate > 0.0 && rng.random_bool(self.loss_rate) {
                            None
                        } else {
                            Some(restored)
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Whether `word` ends with the lowercase ASCII `marker`, ignoring ASCII
/// case.
fn ends_with_ignore_ascii_case(word: &[u8], marker: &[u8]) -> bool {
    word.len() >= marker.len() && word[word.len() - marker.len()..].eq_ignore_ascii_case(marker)
}

/// Strip a language marker from a word, preserving trailing punctuation.
fn strip_marker(word: &str, marker: &str) -> String {
    let trailing: String = word
        .chars()
        .rev()
        .take_while(|c| !c.is_alphanumeric())
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    let core = &word[..word.len() - trailing.len()];
    let stripped = core
        .strip_suffix(marker)
        .or_else(|| {
            // Case-tolerant strip.
            if core.to_lowercase().ends_with(marker) {
                Some(&core[..core.len() - marker.len()])
            } else {
                None
            }
        })
        .unwrap_or(core);
    format!("{stripped}{trailing}")
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
    fn suffixes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for l in Language::NON_ENGLISH {
            assert!(seen.insert(l.suffix()), "duplicate suffix {}", l.suffix());
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
