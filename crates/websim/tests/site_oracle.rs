//! Differential test of the site generator against the implementation it
//! replaced, which lives here and only here as the oracle.
//!
//! The generator writes each sentence straight into one `String`, puts a
//! site's deep sentences into its language and renders them once, and
//! writes every internal page as frame, escaped title, lead element and
//! that shared block into a buffer of exactly its length. The oracle builds
//! a `Page` per internal page from clones of the deep sentences, mangles
//! each page's text word by word and renders it with a `format!` and a
//! four-`replace` escape per element.
//!
//! The standard worlds hold no character that needs escaping, so
//! `world_digest.rs` cannot see an escaping slip. This test draws org names
//! full of `&`, `<`, `>` and `"`, spaces, newlines and non-ASCII chars, for
//! every combination of the five quirk flags in every language, and checks
//! that every page is byte-equal to the oracle's and holds no spare
//! capacity. A `Domain` admits only lowercase ASCII letters, digits, `-`
//! and `.`, so the escaped characters reach a page through the org name.

use asdb_model::{Domain, WorldSeed};
use asdb_taxonomy::Layer2;
use asdb_websim::{Language, SiteQuirks, SiteSpec, Website};
use rand::check::{self, any_string, class_string};
use rand::rngs::StdRng;
use rand::RngExt;

/// The replaced generator, mangler and renderer.
mod oracle {
    use asdb_model::WorldSeed;
    use asdb_taxonomy::{Layer1, Layer2};
    use asdb_websim::html::Link;
    use asdb_websim::vocab::{self, BOILERPLATE, INTERNAL_PAGES};
    use asdb_websim::{Language, Page, SiteSpec};
    use rand::rngs::StdRng;
    use rand::seq::IndexedRandom;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;

    /// Every page of the site, by path.
    pub fn generate(spec: &SiteSpec, seed: WorldSeed) -> BTreeMap<String, String> {
        let mut rng = StdRng::seed_from_u64(
            seed.derive("website")
                .derive_index(spec.domain.as_str(), 0)
                .value(),
        );
        let mut pages = BTreeMap::new();

        if spec.quirks.parked {
            let page = Page {
                title: format!("{} - domain parked", spec.domain),
                paragraphs: vec![
                    "This domain is parked free, courtesy of the registrar.".into(),
                    "Buy this domain today.".into(),
                ],
                ..Page::default()
            };
            pages.insert("/".to_owned(), render(&page));
            return pages;
        }
        if spec.quirks.placeholder {
            let page = Page {
                title: "Apache2 Default Page: It works".into(),
                headings: vec!["It works!".into()],
                paragraphs: vec!["This is the default welcome page used to test the correct \
                     operation of the Apache2 server."
                    .into()],
                ..Page::default()
            };
            pages.insert("/".to_owned(), render(&page));
            return pages;
        }

        let words: Vec<&'static str> = if spec.quirks.misleading_vocab {
            trap_vocabulary(spec.category)
        } else {
            vocab::vocabulary(spec.category)
        }
        .to_vec();

        let home_sentences = compose_sentences(&mut rng, &words, 3, 6);
        let deep_sentences = compose_sentences(&mut rng, &words, 10, 9);

        let mut home = Page {
            title: format!("{} — {}", spec.org_name, tagline(&mut rng, &words)),
            headings: vec![format!("Welcome to {}", spec.org_name)],
            ..Page::default()
        };
        if spec.quirks.text_in_images {
            home.image_text = home_sentences;
            home.paragraphs = compose_sentences(&mut rng, BOILERPLATE, 2, 6);
        } else {
            home.paragraphs = home_sentences;
        }

        let n_internal = rng.random_range(2..=INTERNAL_PAGES.len());
        let chosen: Vec<&(&str, &str)> = INTERNAL_PAGES.iter().take(n_internal).collect();
        for (path, anchor) in &chosen {
            if !spec.quirks.unlinked_internal {
                home.links.push(Link {
                    href: (*path).to_owned(),
                    text: (*anchor).to_owned(),
                });
            }
            let body = if spec.quirks.text_in_images {
                Page {
                    title: format!("{} | {}", anchor, spec.org_name),
                    image_text: deep_sentences.clone(),
                    paragraphs: compose_sentences(&mut rng, BOILERPLATE, 1, 5),
                    ..Page::default()
                }
            } else {
                Page {
                    title: format!("{} | {}", anchor, spec.org_name),
                    headings: vec![(*anchor).to_owned()],
                    paragraphs: deep_sentences.clone(),
                    ..Page::default()
                }
            };
            pages.insert((*path).to_owned(), render_in_language(body, spec.language));
        }
        home.links.push(Link {
            href: "/privacy".to_owned(),
            text: "Privacy policy".to_owned(),
        });
        pages.insert(
            "/privacy".to_owned(),
            render_in_language(
                Page {
                    title: format!("Privacy policy | {}", spec.org_name),
                    paragraphs: vec!["We respect your privacy and protect your data.".into()],
                    ..Page::default()
                },
                spec.language,
            ),
        );
        pages.insert("/".to_owned(), render_in_language(home, spec.language));
        pages
    }

    fn render_in_language(mut page: Page, language: Language) -> String {
        if language != Language::English {
            for text in page
                .headings
                .iter_mut()
                .chain(&mut page.paragraphs)
                .chain(&mut page.image_text)
            {
                *text = mangle_text(language, text);
            }
        }
        render(&page)
    }

    fn tagline(rng: &mut StdRng, words: &[&str]) -> String {
        let a = words.choose(rng).copied().unwrap_or("services");
        let b = words.choose(rng).copied().unwrap_or("solutions");
        format!("{a} and {b}")
    }

    fn compose_sentences(rng: &mut StdRng, words: &[&str], n: usize, len: usize) -> Vec<String> {
        (0..n)
            .map(|_| {
                let mut sentence: Vec<&str> = Vec::with_capacity(len + 2);
                for _ in 0..len {
                    sentence.push(words.choose(rng).copied().unwrap_or("services"));
                }
                if rng.random_bool(0.5) {
                    sentence.push(BOILERPLATE.choose(rng).copied().unwrap_or("quality"));
                }
                let mut s = sentence.join(" ");
                s.push('.');
                s
            })
            .collect()
    }

    fn trap_vocabulary(category: Layer2) -> &'static [&'static str] {
        match category.layer1 {
            Layer1::Education => vocab::SCIENCE_CLOUD_TRAP,
            Layer1::Retail => vocab::ELECTRONICS_RETAIL_TRAP,
            _ => vocab::SCIENCE_CLOUD_TRAP,
        }
    }

    /// A `String` per word, joined per line, the lines joined again.
    fn mangle_text(lang: Language, text: &str) -> String {
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

    fn render(page: &Page) -> String {
        let mut out = String::from("<html><head>");
        out.push_str(&format!("<title>{}</title>", escape(&page.title)));
        out.push_str("</head><body>");
        for h in &page.headings {
            out.push_str(&format!("<h1>{}</h1>", escape(h)));
        }
        for p in &page.paragraphs {
            out.push_str(&format!("<p>{}</p>", escape(p)));
        }
        for l in &page.links {
            out.push_str(&format!(
                "<a href=\"{}\">{}</a>",
                escape(&l.href),
                escape(&l.text)
            ));
        }
        for t in &page.image_text {
            out.push_str(&format!("<img data-baked=\"{}\"/>", escape(t)));
        }
        out.push_str("</body></html>");
        out
    }

    fn escape(s: &str) -> String {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;")
    }
}

/// All 32 combinations of the five quirk flags, bit `k` setting flag `k`.
fn quirk_combinations() -> impl Iterator<Item = SiteQuirks> {
    (0u8..32).map(|bits| SiteQuirks {
        text_in_images: bits & 1 != 0,
        unlinked_internal: bits & 2 != 0,
        parked: bits & 4 != 0,
        placeholder: bits & 8 != 0,
        misleading_vocab: bits & 16 != 0,
    })
}

/// An org name: the markup-special characters among letters, spaces and
/// newlines, or arbitrary chars, non-ASCII included.
fn arb_org_name(rng: &mut StdRng) -> String {
    match rng.random_range(0..3) {
        0 => class_string(rng, "&<>\"a-zA-Z \n", 0..=24),
        1 => any_string(rng, 0..=16),
        _ => format!(
            "{} & {} <{}> \"{}\"",
            class_string(rng, "A-Z", 1..=6),
            any_string(rng, 1..=4),
            class_string(rng, "a-z", 1..=5),
            any_string(rng, 0..=3),
        ),
    }
}

/// A valid domain of one to three random labels under a random TLD.
fn arb_domain(rng: &mut StdRng) -> Domain {
    let labels = rng.random_range(1..=3);
    let mut name = String::new();
    for _ in 0..labels {
        name.push_str(&class_string(rng, "a-z0-9", 1..=12));
        name.push('.');
    }
    name.push_str(["com", "net", "org", "de", "example"][rng.random_range(0..5)]);
    Domain::new(&name).expect("drawn domain is valid")
}

#[test]
fn generate_matches_oracle_on_every_quirk_combination_and_language() {
    let categories: Vec<Layer2> = Layer2::all().collect();
    let languages = [Language::English]
        .into_iter()
        .chain(Language::NON_ENGLISH)
        .collect::<Vec<_>>();
    let (mut escaped, mut pages) = (0usize, 0usize);
    for quirks in quirk_combinations() {
        for &language in &languages {
            check::cases(
                24,
                |rng| {
                    let spec = SiteSpec {
                        domain: arb_domain(rng),
                        org_name: arb_org_name(rng),
                        category: categories[rng.random_range(0..categories.len())],
                        language,
                        quirks,
                    };
                    (spec, WorldSeed::new(rng.random_range(0..1_000)))
                },
                |(spec, seed)| {
                    let site = Website::generate(&spec, seed);
                    assert_eq!(site.domain, spec.domain);
                    assert_eq!(site.pages, oracle::generate(&spec, seed));
                    for (path, markup) in &site.pages {
                        assert_eq!(markup.capacity(), markup.len(), "{path}");
                        escaped += usize::from(markup.contains("&amp;") || markup.contains("&lt;"));
                        pages += 1;
                    }
                },
            );
        }
    }
    // The draws reach the escaping they are built to exercise.
    assert!(pages > 10_000, "only {pages} pages");
    assert!(
        escaped > pages / 4,
        "only {escaped} of {pages} pages escape"
    );
}
