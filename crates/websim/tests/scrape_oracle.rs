//! Differential tests of the scraper against the owned parser and scraper
//! it replaced, which live in `common::old` as the oracle.
//!
//! The scraper reads each page as `html::spans`: it writes the visible text
//! straight into its result, unescaping only spans that hold an `&`,
//! matches anchors against the keywords in place, and fetches by host and
//! path. A page whose parts are not in rendered order (title, headings,
//! paragraphs, links) is parsed into a `Page` instead. These tests pin its
//! text byte for byte to the oracle's on every org domain of three standard worlds and on random sites whose
//! pages are built from `page_oracle.rs`'s markup fragments: malformed and
//! mismatched close tags, repeated titles, `&amp;lt;` and the other
//! entities, anchors with non-ASCII chars, external and `//` links, and
//! more keyword links than the scraper follows.

mod common;

use asdb_model::{Domain, WorldSeed};
use asdb_websim::fetch::Fetched;
use asdb_websim::html::{self, Link};
use asdb_websim::scraper::{scrape, ScrapeConfig};
use asdb_websim::{FetchError, Fetcher, Page};
use asdb_worldgen::{World, WorldConfig};
use common::{arb_fragment, cased, old, pick};
use rand::check::{self, vec_of};
use rand::rngs::StdRng;
use rand::RngExt;
use std::borrow::Cow;
use std::collections::BTreeMap;

#[test]
fn scrape_matches_oracle_on_standard_worlds() {
    let config = ScrapeConfig::default();
    for s in 1..=3 {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
        let (mut scraped, mut followed) = (0usize, 0usize);
        for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
            let want = old::scrape(&w.web, domain, &config);
            assert_eq!(
                scrape(&w.web, domain, &config).map(|r| r.text),
                want.clone().map(|r| r.text),
                "seed {s}, {domain}"
            );
            if let Ok(r) = want {
                scraped += 1;
                followed += r.visited.len() - 1;
            }
        }
        assert!(scraped > 2_000, "seed {s}: only {scraped} sites scraped");
        assert!(followed > 4_000, "seed {s}: only {followed} pages followed");
    }
}

#[test]
fn title_matches_oracle_on_standard_worlds() {
    for s in 1..=3 {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
        for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
            let Some(site) = w.web.site(domain) else {
                continue;
            };
            for (path, markup) in &site.pages {
                assert_eq!(
                    html::title(markup),
                    old::parse(markup).title,
                    "seed {s}, {domain}{path}"
                );
            }
        }
    }
}

/// A one-site web for the random tests. Pages under `/owned` are handed
/// out as owned markup, as a fetcher that does not hold its pages would.
#[derive(Debug)]
struct Site {
    host: Domain,
    pages: BTreeMap<String, String>,
}

impl Fetcher for Site {
    fn fetch(&self, host: &Domain, path: &str) -> Result<Fetched<'_>, FetchError> {
        if *host != self.host {
            return Err(FetchError::NoSuchHost);
        }
        let markup = self.pages.get(path).ok_or(FetchError::NotFound)?;
        Ok(Fetched {
            markup: if path.starts_with("/owned") {
                Cow::Owned(markup.clone())
            } else {
                Cow::Borrowed(markup)
            },
        })
    }
}

/// The internal paths a random site may host; `/missing` never is.
const PATHS: &[&str] = &[
    "/about",
    "/services",
    "/company",
    "/owned/who",
    "/a&b",
    "/p1",
    "/p2",
    "/p3",
    "/p4",
    "/p5",
    "/p6",
];

/// A link a random root page may hold: an internal, missing, external or
/// protocol-relative target, escaped or not, under an anchor made of
/// keywords, non-keywords, entities and non-ASCII chars in any case.
fn arb_link(rng: &mut StdRng) -> String {
    let href = match rng.random_range(0..6) {
        0..=2 => pick(rng, PATHS),
        3 => pick(rng, &["/missing", "", "about", "/"]),
        4 => pick(
            rng,
            &["//evil.example/about", "https://other.example/about"],
        ),
        _ => pick(rng, &["/a&amp;b", "/p1&quot;", "&lt;/p2"]),
    };
    let words = vec_of(rng, 1..4, |r| {
        let word = pick(
            r,
            &[
                "about",
                "us",
                "our",
                "services",
                "service",
                "who",
                "network",
                "history",
                "privacy",
                "contact",
                "über",
                "uns",
                "İt",
                "ΣΑΣ",
                "CAFÉ",
                "\u{212A}",
                "&amp;",
                "&lt;us&gt;",
                "x&amp;about",
                "&quot;who&quot;",
            ],
        );
        cased(r, word)
    });
    let sep = pick(rng, &[" ", "-", "\u{3000}", "/", ""]);
    format!("<a href=\"{href}\">{}</a>", words.join(sep))
}

/// Random page markup: page fragments, and on a root page links too.
fn arb_markup(rng: &mut StdRng, links: bool) -> String {
    vec_of(rng, 0..30, |r| {
        if links && r.random_bool(0.4) {
            arb_link(r)
        } else {
            arb_fragment(r)
        }
    })
    .concat()
}

/// A page in rendered order: fragments inside its fields now and then.
fn arb_rendered(rng: &mut StdRng) -> String {
    let field = |r: &mut StdRng| vec_of(r, 0..3, arb_fragment).concat();
    let links = vec_of(rng, 2..16, |r| {
        let a = arb_link(r);
        let (href, text) = a["<a href=\"".len()..a.len() - "</a>".len()]
            .split_once("\">")
            .expect("arb_link writes href then anchor");
        Link {
            href: href.to_owned(),
            text: text.to_owned(),
        }
    });
    Page {
        title: field(rng),
        headings: vec_of(rng, 0..3, field),
        paragraphs: vec_of(rng, 0..4, field),
        links,
        image_text: vec_of(rng, 0..2, field),
    }
    .render()
}

/// A random site and a scrape configuration for it: a page cap from 0 to
/// 7, and now and then, in place of Figure 3's list, one keyword that
/// only an entity's name (`lt`, `amp`, `quot`), a lowercased non-ASCII
/// word (`über`, `σας` with its final sigma) or nothing (`Contact`:
/// anchors are lowercased, keywords are not) can match.
fn arb_site(rng: &mut StdRng) -> (Site, ScrapeConfig) {
    let mut pages = BTreeMap::new();
    let root = if rng.random_bool(0.5) {
        arb_markup(rng, true)
    } else {
        arb_rendered(rng)
    };
    pages.insert("/".to_owned(), root);
    for path in PATHS {
        if rng.random_bool(0.8) {
            let page = if rng.random_bool(0.5) {
                arb_markup(rng, false)
            } else {
                arb_rendered(rng)
            };
            pages.insert((*path).to_owned(), page);
        }
    }
    let site = Site {
        host: Domain::new("random.example").unwrap(),
        pages,
    };
    let mut config = ScrapeConfig {
        max_internal_pages: rng.random_range(0..=7),
        ..ScrapeConfig::default()
    };
    if rng.random_bool(0.3) {
        let keyword = pick(rng, &["lt", "amp", "quot", "über", "σας", "Contact"]);
        config.keywords = vec![keyword.to_owned()];
    }
    (site, config)
}

#[test]
fn scrape_matches_oracle_on_random_sites() {
    let (mut capped, mut deep) = (0usize, 0usize);
    check::cases(8_192, arb_site, |(site, config)| {
        let max = config.max_internal_pages;
        let got = scrape(&site, &site.host, &config).expect("the root is hosted");
        let want = old::scrape(&site, &site.host, &config).unwrap();
        assert_eq!(got.text, want.text);
        capped += usize::from(max == 5 && want.visited.len() == 6);
        deep += usize::from(want.visited.len() > 1);
    });
    // The draws follow links, and reach the five-page cap of the paper's
    // scraper.
    assert!(deep > 2_000, "only {deep} scrapes followed a link");
    assert!(capped > 50, "only {capped} scrapes hit the cap of five");
}

#[test]
fn missing_root_is_the_oracles_error() {
    let site = Site {
        host: Domain::new("random.example").unwrap(),
        pages: BTreeMap::from([("/about".to_owned(), String::new())]),
    };
    let config = ScrapeConfig::default();
    for host in ["random.example", "other.example"] {
        let host = Domain::new(host).unwrap();
        let got = scrape(&site, &host, &config).map(|r| r.text);
        assert!(got.is_err());
        assert_eq!(got, old::scrape(&site, &host, &config).map(|r| r.text));
    }
}
