//! Website generation.
//!
//! Produces a complete [`Website`] — homepage plus internal pages — from a
//! [`SiteSpec`] describing the owning organization. Quirk flags reproduce
//! the failure modes the paper documents:
//!
//! * `text_in_images`: "much of the text is contained in images" — the
//!   descriptive vocabulary is baked into image banners the scraper cannot
//!   read;
//! * `unlinked_internal`: informative internal pages exist but "are often
//!   either not linked from the home page";
//! * `parked` / `placeholder`: "31% do not have a working website, 11% have
//!   an uninformative website (e.g., an Apache test page)" (Appendix B);
//! * `misleading_vocab`: the ASN 133002 trap — a non-tech site written with
//!   cloud/performance vocabulary.

use crate::html::{self, Element, Link, Page};
use crate::lang::Language;
use crate::vocab::{self, BOILERPLATE, INTERNAL_PAGES};
use asdb_model::{Domain, WorldSeed};
use asdb_taxonomy::Layer2;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Quirks of a generated website.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteQuirks {
    /// Descriptive text baked into images instead of markup.
    pub text_in_images: bool,
    /// Informative internal pages exist but are not linked from home.
    pub unlinked_internal: bool,
    /// The site is a parked-domain page with no real content.
    pub parked: bool,
    /// The site is a default web-server test page.
    pub placeholder: bool,
    /// The site uses a trap vocabulary that mimics another category.
    pub misleading_vocab: bool,
}

/// Everything the generator needs to know about a site.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// The site's domain.
    pub domain: Domain,
    /// The owning organization's display name (appears in the homepage
    /// title — the signal "most similar domain" matching relies on).
    pub org_name: String,
    /// The organization's true NAICSlite layer-2 category.
    pub category: Layer2,
    /// The site language.
    pub language: Language,
    /// Quirk flags.
    pub quirks: SiteQuirks,
}

/// A generated website: rendered markup per path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Website {
    /// The domain this site is served on.
    pub domain: Domain,
    /// Markup per site-relative path (`/`, `/about`, …).
    pub pages: BTreeMap<String, String>,
}

impl Website {
    /// Generate the website for a spec. Deterministic per (spec, seed).
    pub fn generate(spec: &SiteSpec, seed: WorldSeed) -> Website {
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
            pages.insert("/".to_owned(), page.render());
            return Website {
                domain: spec.domain.clone(),
                pages,
            };
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
            pages.insert("/".to_owned(), page.render());
            return Website {
                domain: spec.domain.clone(),
                pages,
            };
        }

        let words = if spec.quirks.misleading_vocab {
            trap_vocabulary(spec.category)
        } else {
            vocab::vocabulary(spec.category)
        };

        // Homepage: title carries the org name (domain matching signal),
        // body carries a *light* sample of category vocabulary — the meat
        // is on internal pages ("many pages include service descriptions on
        // inner pages rather than the homepage").
        let home_sentences = compose_sentences(&mut rng, words, 3, 6);
        // Every internal page ends with the same ten deep sentences, as
        // paragraphs or as baked images: write them in the site language
        // and render them once, reusing two buffers.
        let deep = if spec.quirks.text_in_images {
            Element::BakedImage
        } else {
            Element::Paragraph
        };
        let mut deep_block = String::new();
        let (mut sentence, mut translated) = (String::new(), String::new());
        for _ in 0..10 {
            sentence.clear();
            push_sentence(&mut rng, words, 9, &mut sentence);
            translated.clear();
            spec.language.push_mangled(&mut translated, &sentence);
            deep.push(&mut deep_block, &translated);
        }

        let mut home = Page {
            title: format!("{} — {}", spec.org_name, tagline(&mut rng, words)),
            headings: vec![format!("Welcome to {}", spec.org_name)],
            ..Page::default()
        };
        if spec.quirks.text_in_images {
            // Vocabulary hides in banner images; only boilerplate is text.
            home.image_text = home_sentences;
            home.paragraphs = compose_sentences(&mut rng, BOILERPLATE, 2, 6);
        } else {
            home.paragraphs = home_sentences;
        }

        // Internal pages with keyword-bearing anchor titles: each is its
        // own title and lead element (the anchor as a heading, or one
        // boilerplate paragraph above the baked images), then the shared
        // deep block.
        let n_internal = rng.random_range(2..=INTERNAL_PAGES.len());
        for &(path, anchor) in &INTERNAL_PAGES[..n_internal] {
            if !spec.quirks.unlinked_internal {
                home.links.push(Link {
                    href: path.to_owned(),
                    text: anchor.to_owned(),
                });
            }
            let (lead, text) = if spec.quirks.text_in_images {
                sentence.clear();
                push_sentence(&mut rng, BOILERPLATE, 5, &mut sentence);
                (Element::Paragraph, sentence.as_str())
            } else {
                (Element::Heading, anchor)
            };
            translated.clear();
            spec.language.push_mangled(&mut translated, text);
            let title = [anchor, " | ", spec.org_name.as_str()];
            let markup = html::render_page(&title, lead, &translated, &deep_block);
            pages.insert(path.to_owned(), markup);
        }
        // An uninformative decoy link (privacy policy) is always present.
        home.links.push(Link {
            href: "/privacy".to_owned(),
            text: "Privacy policy".to_owned(),
        });
        translated.clear();
        let privacy = "We respect your privacy and protect your data.";
        spec.language.push_mangled(&mut translated, privacy);
        let title = ["Privacy policy | ", spec.org_name.as_str()];
        let markup = html::render_page(&title, Element::Paragraph, &translated, "");
        pages.insert("/privacy".to_owned(), markup);
        pages.insert("/".to_owned(), render_in_language(home, spec.language));
        Website {
            domain: spec.domain.clone(),
            pages,
        }
    }

    /// The homepage markup.
    pub fn homepage(&self) -> Option<&str> {
        self.pages.get("/").map(String::as_str)
    }
}

/// Translate page text into the site language. The org name (title) is kept
/// as-is — brand names don't translate — so domain matching still works on
/// foreign sites.
fn render_in_language(mut page: Page, language: Language) -> String {
    if language != Language::English {
        for text in page
            .headings
            .iter_mut()
            .chain(&mut page.paragraphs)
            .chain(&mut page.image_text)
        {
            *text = language.mangle_text(text);
        }
    }
    // Anchor texts stay in English-ish navigation (common on real sites,
    // and what keeps cross-language scraping plausible).
    page.render()
}

fn tagline(rng: &mut StdRng, words: &[&str]) -> String {
    let a = words.choose(rng).copied().unwrap_or("services");
    let b = words.choose(rng).copied().unwrap_or("solutions");
    format!("{a} and {b}")
}

/// `n` sentences of [`push_sentence`], each in its own `String`.
fn compose_sentences(rng: &mut StdRng, words: &[&str], n: usize, len: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            // Room for `len` words of the usual length without regrowing.
            let mut s = String::with_capacity(12 * len);
            push_sentence(rng, words, len, &mut s);
            s
        })
        .collect()
}

/// Append a sentence of `len` words drawn from `words`, followed by a
/// boilerplate word half the time and ended with a full stop.
fn push_sentence(rng: &mut StdRng, words: &[&str], len: usize, out: &mut String) {
    for k in 0..len {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(words.choose(rng).copied().unwrap_or("services"));
    }
    // Mix in light boilerplate so documents aren't pure topic words.
    if rng.random_bool(0.5) {
        out.push(' ');
        out.push_str(BOILERPLATE.choose(rng).copied().unwrap_or("quality"));
    }
    out.push('.');
}

/// The trap vocabulary for a misleading site of the given true category.
fn trap_vocabulary(category: Layer2) -> &'static [&'static str] {
    use asdb_taxonomy::Layer1;
    match category.layer1 {
        // Research orgs that talk like cloud providers.
        Layer1::Education => vocab::SCIENCE_CLOUD_TRAP,
        // Retailers that talk like ISPs.
        Layer1::Retail => vocab::ELECTRONICS_RETAIL_TRAP,
        // Anything else leans science-cloud (the documented FP family).
        _ => vocab::SCIENCE_CLOUD_TRAP,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_taxonomy::naicslite::known;

    fn spec(quirks: SiteQuirks, language: Language) -> SiteSpec {
        SiteSpec {
            domain: Domain::new("acme-hosting.example").unwrap(),
            org_name: "Acme Hosting".into(),
            category: known::hosting(),
            language,
            quirks,
        }
    }

    #[test]
    fn generates_homepage_and_internal_pages() {
        let site = Website::generate(
            &spec(SiteQuirks::default(), Language::English),
            WorldSeed::new(1),
        );
        assert!(site.homepage().is_some());
        assert!(site.pages.len() >= 3);
        assert!(Page::parse(site.homepage().unwrap())
            .title
            .contains("Acme Hosting"));
    }

    #[test]
    fn hosting_site_contains_hosting_vocab() {
        let site = Website::generate(
            &spec(SiteQuirks::default(), Language::English),
            WorldSeed::new(2),
        );
        let all_text: String = site
            .pages
            .values()
            .map(|m| Page::parse(m).visible_text().to_lowercase())
            .collect::<Vec<_>>()
            .join(" ");
        let hits = vocab::HOSTING_CORE
            .iter()
            .filter(|w| all_text.contains(*w))
            .count();
        assert!(hits >= 5, "only {hits} hosting words present");
    }

    #[test]
    fn text_in_images_hides_vocab_from_visible_text() {
        let q = SiteQuirks {
            text_in_images: true,
            ..SiteQuirks::default()
        };
        let site = Website::generate(&spec(q, Language::English), WorldSeed::new(3));
        let home = Page::parse(site.homepage().unwrap());
        let visible = home.visible_text().to_lowercase();
        // Strong hosting markers only in image_text.
        let visible_hits = ["colocation", "vps", "datacenter"]
            .iter()
            .filter(|w| visible.contains(*w))
            .count();
        assert_eq!(visible_hits, 0, "vocab leaked into visible text");
        assert!(!home.image_text.is_empty());
    }

    #[test]
    fn unlinked_internal_pages_exist_but_not_linked() {
        let q = SiteQuirks {
            unlinked_internal: true,
            ..SiteQuirks::default()
        };
        let site = Website::generate(&spec(q, Language::English), WorldSeed::new(4));
        let home = Page::parse(site.homepage().unwrap());
        let non_privacy_links = home.links.iter().filter(|l| l.href != "/privacy").count();
        assert_eq!(non_privacy_links, 0);
        assert!(site.pages.len() > 2, "internal pages must still exist");
    }

    #[test]
    fn parked_and_placeholder_sites_are_uninformative() {
        for q in [
            SiteQuirks {
                parked: true,
                ..SiteQuirks::default()
            },
            SiteQuirks {
                placeholder: true,
                ..SiteQuirks::default()
            },
        ] {
            let site = Website::generate(&spec(q, Language::English), WorldSeed::new(5));
            assert_eq!(site.pages.len(), 1);
            let text = Page::parse(site.homepage().unwrap())
                .visible_text()
                .to_lowercase();
            // No category vocabulary may leak (the domain name itself can
            // legitimately contain words like "hosting").
            for w in ["colocation", "datacenter", "vps", "dedicated"] {
                assert!(!text.contains(w), "{w} leaked into {text}");
            }
        }
    }

    #[test]
    fn foreign_sites_keep_org_name_in_title() {
        let site = Website::generate(
            &spec(SiteQuirks::default(), Language::Zonal),
            WorldSeed::new(6),
        );
        let home = Page::parse(site.homepage().unwrap());
        assert!(home.title.contains("Acme Hosting"));
        // But body text is mangled.
        let body = home.paragraphs.join(" ");
        assert!(body.contains("xzo"), "body should be in Zonal: {body}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Website::generate(
            &spec(SiteQuirks::default(), Language::English),
            WorldSeed::new(7),
        );
        let b = Website::generate(
            &spec(SiteQuirks::default(), Language::English),
            WorldSeed::new(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn misleading_vocab_site_talks_like_the_trap() {
        let mut s = spec(
            SiteQuirks {
                misleading_vocab: true,
                ..SiteQuirks::default()
            },
            Language::English,
        );
        s.category = known::research_orgs();
        let site = Website::generate(&s, WorldSeed::new(8));
        let all: String = site
            .pages
            .values()
            .map(|m| Page::parse(m).visible_text().to_lowercase())
            .collect::<Vec<_>>()
            .join(" ");
        assert!(all.contains("cloud") || all.contains("computing"));
        assert!(!all.contains("colocation"));
    }
}
