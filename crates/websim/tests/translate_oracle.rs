//! Differential tests of the translator against the word-by-word
//! implementation it replaced, which lives here and only here as the
//! oracle.
//!
//! The translator writes into one output buffer, strips ASCII words by
//! slicing and folds other words char by char; English text it borrows. These tests pin that its
//! output equals the oracle's on every page of three standard worlds for
//! the ML, Zvelo and lossless translators, and on random mangled texts
//! wherever the oracle returns at all: the oracle slices non-ASCII words at
//! a byte offset and panics when that offset falls inside a char. Both
//! entry points are pinned: `translate`, which detects the language
//! itself, and `translate_as` given `Language::detect` of the text, as the
//! pipeline's one `PageRead` per record hands it to the ML and Zvelo
//! translators.
//!
//! `Language::mangle_text`, which the site generator uses to write a
//! foreign page, copies each word and its marker into one buffer; it is
//! pinned to the oracle's per-word `String`s on the same random texts in
//! every language (every page it writes is also pinned by
//! `crates/worldgen/tests/world_digest.rs`).
//!
//! `Language::detect` splits words byte by byte and probes each word once;
//! it is pinned to the oracle's `split_whitespace` and eight-marker compare
//! on those pages and on random texts that mix languages in chosen
//! proportions (ties, the half-the-words threshold) and every White_Space
//! char. `ScrapeResult::is_substantive`, which stops at the tenth word, is
//! pinned to counting all of them on the same texts.

use asdb_model::WorldSeed;
use asdb_websim::scraper::{scrape, PageRead, ScrapeConfig, ScrapeResult};
use asdb_websim::{Language, Translator};
use asdb_worldgen::{World, WorldConfig};
use rand::check::{self, any_string, class_string, vec_of};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngExt;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The replaced translator: per-word `String`s joined per line, a marker
/// list built per detection, and a case-tolerant strip at a byte offset.
/// Also the replaced `Language::mangle_text`, the site generator's
/// inverse of the translator.
mod oracle {
    use asdb_model::WorldSeed;
    use asdb_websim::Language;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A `String` per word, joined per line, the lines joined again.
    pub fn mangle_text(lang: Language, text: &str) -> String {
        if lang == Language::English {
            return text.to_owned();
        }
        text.split('\n')
            .map(|line| {
                line.split(' ')
                    .map(|w| lang.mangle_word(w))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// `x` plus the language's suffix, read off its word transform.
    fn marker(lang: Language) -> String {
        lang.mangle_word("w")[1..].to_owned()
    }

    fn ends_with_ignore_ascii_case(word: &[u8], marker: &[u8]) -> bool {
        word.len() >= marker.len() && word[word.len() - marker.len()..].eq_ignore_ascii_case(marker)
    }

    /// Per language, the words its marker ends; and the number of words.
    pub fn marker_counts(text: &str) -> ([usize; 8], usize) {
        let markers = Language::NON_ENGLISH.map(marker);
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
        (counts, words)
    }

    pub fn detect(text: &str) -> Language {
        let (counts, words) = marker_counts(text);
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

    pub fn translate(loss_rate: f64, seed: WorldSeed, text: &str) -> String {
        let lang = detect(text);
        if lang == Language::English {
            return text.to_owned();
        }
        let marker = marker(lang);
        let mut rng =
            StdRng::seed_from_u64(seed.derive_index("translate", text.len() as u64).value());
        text.split('\n')
            .map(|line| {
                line.split(' ')
                    .filter_map(|w| {
                        let restored = strip_marker(w, &marker);
                        if loss_rate > 0.0 && rng.random_bool(loss_rate) {
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
                if core.to_lowercase().ends_with(marker) {
                    Some(&core[..core.len() - marker.len()])
                } else {
                    None
                }
            })
            .unwrap_or(core);
        format!("{stripped}{trailing}")
    }
}

/// The translators the system runs, each named and with the loss rate and
/// seed the oracle replays it from: the ML detectors' and Zvelo's as
/// `AsdbSystem` derives them, and a lossless one.
fn translators(world: &World, s: u64) -> [(&'static str, Translator, f64, WorldSeed); 3] {
    let ml_seed = WorldSeed::new(s).derive("ml").derive("asdb-translate");
    let zvelo_seed = WorldSeed::new(s).derive("sources").derive("zvelo-mt");
    let loss = world.config.web.translation_loss;
    [
        ("ml", Translator::new(loss, ml_seed), loss, ml_seed),
        ("zvelo", Translator::new(0.03, zvelo_seed), 0.03, zvelo_seed),
        (
            "lossless",
            Translator::perfect(WorldSeed::new(s)),
            0.0,
            WorldSeed::new(s),
        ),
    ]
}

#[test]
fn translate_matches_oracle_on_standard_worlds() {
    for s in 1..=3 {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
        let translators = translators(&w, s);
        let mut foreign = 0usize;
        for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
            let Ok(page) = scrape(&w.web, domain, &ScrapeConfig::default()) else {
                continue;
            };
            let lang = Language::detect(&page.text);
            assert_eq!(lang, oracle::detect(&page.text), "seed {s}, {domain}");
            let read = PageRead::read(&w.web, domain, &ScrapeConfig::default());
            assert_eq!(
                read,
                Ok(PageRead {
                    page: page.clone(),
                    language: lang,
                }),
                "seed {s}, {domain}"
            );
            foreign += usize::from(lang != Language::English);
            for (name, tr, loss, seed) in &translators {
                let got = tr.translate_as(&page.text, lang);
                assert_eq!(got, tr.translate(&page.text), "seed {s}, {domain}");
                // English text comes back borrowed, not copied.
                assert_eq!(
                    matches!(got, Cow::Borrowed(_)),
                    lang == Language::English,
                    "seed {s}, {name} translator, {domain}"
                );
                assert_eq!(
                    got,
                    oracle::translate(*loss, *seed, &page.text),
                    "seed {s}, {name} translator, {domain}"
                );
            }
        }
        assert!(foreign > 500, "seed {s}: only {foreign} foreign pages");
    }
}

/// One word of a mangled test text: clean, capitalized, punctuated,
/// non-ASCII or empty, carrying the language marker in any case (with the
/// Kelvin sign standing in for `k`) or no marker at all.
fn arb_word(rng: &mut StdRng, lang: Language) -> String {
    let stem = match rng.random_range(0..6) {
        0 => String::new(),
        1 => any_string(rng, 1..=4),
        2 => class_string(rng, "A-Z", 1..=6),
        _ => class_string(rng, "a-z0-9", 1..=8),
    };
    let marked = lang.mangle_word(&stem);
    let marked = match rng.random_range(0..6) {
        0 => stem,
        1 => marked.to_uppercase(),
        2 => marked.replace('k', "\u{212A}"),
        3 => marked.replace('k', "\u{212A}").replace('i', "I"),
        _ => marked,
    };
    let tail = match rng.random_range(0..4) {
        0 => class_string(rng, ".,!?;:)\"'", 1..=2),
        1 => any_string(rng, 0..=1),
        _ => String::new(),
    };
    marked + &tail
}

/// A mangled text: lines (some empty) of words joined by single spaces,
/// so empty words make double spaces.
fn arb_text(rng: &mut StdRng) -> String {
    let lang = Language::NON_ENGLISH[rng.random_range(0..8)];
    let lines = vec_of(rng, 1..5, |r| {
        vec_of(r, 0..12, |r| arb_word(r, lang)).join(" ")
    });
    lines.join("\n")
}

#[test]
fn mangle_text_matches_oracle() {
    check::cases(2_048, arb_text, |text| {
        for lang in [Language::English].into_iter().chain(Language::NON_ENGLISH) {
            assert_eq!(lang.mangle_text(&text), oracle::mangle_text(lang, &text));
        }
    });
}

#[test]
fn translate_matches_oracle_wherever_it_returns() {
    let translators = [
        (
            Translator::perfect(WorldSeed::new(8)),
            0.0,
            WorldSeed::new(8),
        ),
        (
            Translator::new(0.3, WorldSeed::new(9)),
            0.3,
            WorldSeed::new(9),
        ),
    ];
    let (mut returned, mut panicked) = (0usize, 0usize);
    check::cases(2_048, arb_text, |text| {
        for (tr, loss, seed) in &translators {
            let got = tr.translate(&text);
            assert_eq!(tr.translate_as(&text, Language::detect(&text)), got);
            match catch_unwind(AssertUnwindSafe(|| oracle::translate(*loss, *seed, &text))) {
                Ok(want) => {
                    assert_eq!(got, want);
                    returned += 1;
                }
                Err(_) => panicked += 1,
            }
        }
    });
    // The draws reach both the common case and the oracle's panic.
    assert!(returned > 3_000, "oracle returned on {returned} texts");
    assert!(panicked > 0, "no draw hit a mid-char cut");
}

/// Every White_Space char: what `char::is_whitespace` and so
/// `split_whitespace` split on.
const WHITE_SPACE: &[char] = &[
    '\t', '\n', '\u{B}', '\u{C}', '\r', ' ', '\u{85}', '\u{A0}', '\u{1680}', '\u{2000}',
    '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}',
    '\u{2009}', '\u{200A}', '\u{2028}', '\u{2029}', '\u{202F}', '\u{205F}', '\u{3000}',
];

/// Word chars that are not White_Space but look close to it: ASCII
/// controls and separators outside White_Space, chars sharing a lead byte
/// with a White_Space char (`0xC2`: `\u{84}` `¡`; `0xE1`: `\u{1681}`;
/// `0xE2`: the em dash, `€`, the zero-width space `\u{200B}`, `\u{2027}`,
/// `\u{2060}`; `0xE3`: `、`), other non-ASCII letters and `x`/`X`.
const NEAR_SPACE: &[char] = &[
    '\0', '\u{1C}', '\u{1F}', '!', '-', '\u{84}', '\u{A1}', '\u{1681}', '\u{2014}', '\u{20AC}',
    '\u{200B}', '\u{2027}', '\u{2060}', '\u{3001}', '\u{E9}', '\u{3A3}', '\u{212A}', 'x', 'X',
];

/// One word of [`arb_mixed_text`]: a stem (lowercase, capitalized,
/// non-ASCII or built from [`NEAR_SPACE`]) carrying `lang`'s marker in any
/// case, with the Kelvin sign standing in for `k`, or no marker.
fn arb_mixed_word(rng: &mut StdRng, lang: Option<Language>) -> String {
    let stem = match rng.random_range(0..5) {
        0 => class_string(rng, "a-z", 1..=6),
        1 => class_string(rng, "A-Z", 1..=4),
        2 => class_string(rng, "a-z\u{E9}\u{DF}\u{2014}\u{20AC}", 1..=4),
        _ => (0..rng.random_range(1..=3))
            .map(|_| NEAR_SPACE[rng.random_range(0..NEAR_SPACE.len())])
            .collect(),
    };
    let Some(lang) = lang else {
        return stem;
    };
    let marked = lang.mangle_word(&stem);
    match rng.random_range(0..4) {
        0 => marked.to_uppercase(),
        1 => marked.replace('k', "\u{212A}"),
        _ => marked,
    }
}

/// A text mixing up to three languages' marked words in chosen numbers
/// with unmarked words, so that ties between languages and exactly half
/// the words marked both come up, joined by runs of any White_Space chars.
fn arb_mixed_text(rng: &mut StdRng) -> String {
    let base: usize = rng.random_range(0..6);
    let mut words = Vec::new();
    let mut most = 0;
    for _ in 0..rng.random_range(1..=3) {
        let lang = Language::NON_ENGLISH[rng.random_range(0..8)];
        let n = base + rng.random_range(0..2);
        most = most.max(n);
        words.extend((0..n).map(|_| arb_mixed_word(rng, Some(lang))));
    }
    // Unmarked words: none, exactly enough that the commonest marker ends
    // half the words when it is alone, or a random number.
    let unmarked = match rng.random_range(0..3) {
        0 => 0,
        1 => (2 * most).saturating_sub(words.len()),
        _ => rng.random_range(0..12),
    };
    words.extend((0..unmarked).map(|_| arb_mixed_word(rng, None)));
    words.shuffle(rng);
    let space = |rng: &mut StdRng| -> String {
        (0..rng.random_range(1..=2))
            .map(|_| WHITE_SPACE[rng.random_range(0..WHITE_SPACE.len())])
            .collect()
    };
    let mut text = if rng.random_bool(0.2) {
        space(rng)
    } else {
        String::new()
    };
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            text.push_str(&space(rng));
        }
        text.push_str(word);
    }
    if rng.random_bool(0.2) {
        text.push_str(&space(rng));
    }
    text
}

#[test]
fn detect_matches_oracle_on_mixed_languages_and_every_white_space() {
    let (mut ties, mut halves, mut foreign, mut english) = (0usize, 0usize, 0usize, 0usize);
    let mut substantive = [0usize; 2];
    check::cases(4_096, arb_mixed_text, |text| {
        let got = Language::detect(&text);
        assert_eq!(got, oracle::detect(&text), "{text:?}");
        let (counts, words) = oracle::marker_counts(&text);
        let most = counts.iter().copied().max().unwrap_or(0);
        ties += usize::from(most > 0 && counts.iter().filter(|&&c| c == most).count() > 1);
        halves += usize::from(words > 0 && most * 2 == words);
        foreign += usize::from(got != Language::English);
        english += usize::from(got == Language::English);

        let page = ScrapeResult { text: text.clone() };
        let want = text.split_whitespace().count() >= 10;
        assert_eq!(page.is_substantive(), want, "{text:?}");
        substantive[usize::from(want)] += 1;
    });
    // The draws reach ties, the threshold's boundary, both outcomes, and
    // both sides of the ten-word rule.
    assert!(ties > 200, "{ties} ties");
    assert!(halves > 200, "{halves} texts at exactly half");
    assert!(
        foreign > 500 && english > 500,
        "{foreign} foreign, {english} English"
    );
    assert!(
        substantive.iter().all(|&n| n > 500),
        "substantive {substantive:?}"
    );
}
