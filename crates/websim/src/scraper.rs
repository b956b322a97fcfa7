//! The website scraper (left half of Figure 3).
//!
//! "Our ML pipeline accepts a single domain as input and scrapes the text
//! from the root page of the website hosted at the domain. … We configure
//! our scraper to visit up to five internal pages whose link titles contain
//! a list of these keywords" (§4.1). The keyword list is printed in
//! Figure 3 and reproduced as [`SCRAPER_KEYWORDS`].

use crate::fetch::{FetchError, Fetcher};
use crate::html::{self, Page, Span};
use asdb_model::Domain;

/// The Figure 3 keyword list: words that "most frequently appear in the
/// page titles of internal pages containing organization information".
pub static SCRAPER_KEYWORDS: &[&str] = &[
    "service", "solution", "about", "who", "do", "it", "us", "our", "company", "network", "online",
    "connect", "coverage", "history",
];

/// Scraper configuration.
#[derive(Debug, Clone)]
pub struct ScrapeConfig {
    /// Maximum internal pages to follow (the paper uses 5).
    pub max_internal_pages: usize,
    /// Keywords an anchor title must contain to be followed.
    pub keywords: Vec<String>,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            max_internal_pages: 5,
            keywords: SCRAPER_KEYWORDS.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

/// The outcome of scraping one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapeResult {
    /// Concatenated visible text of all visited pages.
    pub text: String,
}

impl ScrapeResult {
    /// Whether any meaningful text came back: at least ten words.
    pub fn is_substantive(&self) -> bool {
        self.text.split_whitespace().nth(9).is_some()
    }
}

/// Scrape a domain: fetch the root page, then up to
/// `config.max_internal_pages` same-site links whose anchor text contains a
/// configured keyword (case-insensitive). Returns the fetch error only if
/// the *root* page is unavailable; internal-page failures are skipped.
///
/// Pages are fetched by host and path and read as [`html::spans`]: the
/// visible text goes straight into the result, anchors are matched in
/// place, and a link's href is copied only to unescape an `&` in it.
pub fn scrape<F: Fetcher>(
    fetcher: &F,
    domain: &Domain,
    config: &ScrapeConfig,
) -> Result<ScrapeResult, FetchError> {
    let root = fetcher.fetch(domain, "/")?;
    // Visible text is never longer than its markup.
    let mut text = String::with_capacity(root.markup.len());
    let links = push_page_text(&root.markup, &mut text);

    let mut followed = 0usize;
    for span in links {
        if followed >= config.max_internal_pages {
            break;
        }
        let Span::Link { href, text: anchor } = span else {
            continue;
        };
        let href = html::unescape(href);
        if !is_internal(&href) || !has_keyword(anchor, &config.keywords) {
            continue;
        }
        if let Ok(page) = fetcher.fetch(domain, &href) {
            text.reserve(page.markup.len() + 1);
            text.push('\n');
            push_page_text(&page.markup, &mut text);
            followed += 1;
        }
    }
    Ok(ScrapeResult { text })
}

/// Append the visible text of the page `markup` to `out`, as
/// [`Page::push_visible_text`] of [`Page::parse`] would: the last title
/// when not empty, then every heading, paragraph and link anchor, one per
/// line. A rendered page holds its parts in that order, and they are
/// written as the spans come. A page whose parts come in another order is
/// parsed into a [`Page`] instead.
///
/// Returns the page's spans from its first link on (all of them for a
/// page parsed into a [`Page`]), so the scraper reads the root's links
/// without reading its text again.
fn push_page_text<'m>(markup: &'m str, out: &mut String) -> html::Spans<'m> {
    let start = out.len();
    // The rank of the last part: title 0, heading 1, paragraph 2, link 3.
    let mut rank = 0;
    let mut first = true;
    let mut spans = html::spans(markup);
    let mut links = None;
    loop {
        let before = spans.clone();
        let Some(span) = spans.next() else { break };
        let (r, part) = match span {
            Span::Title(t) => (0, t),
            Span::Heading(t) => (1, t),
            Span::Paragraph(t) => (2, t),
            Span::Link { text, .. } => (3, text),
            Span::Image(_) => continue,
        };
        if r < rank {
            out.truncate(start);
            Page::parse(markup).push_visible_text(out);
            return html::spans(markup);
        }
        if r == 3 && links.is_none() {
            links = Some(before);
        }
        rank = r;
        if r == 0 {
            // A later title replaces an earlier one, and an empty title is
            // no part.
            out.truncate(start);
            first = true;
            if part.is_empty() {
                continue;
            }
        }
        if !first {
            out.push('\n');
        }
        first = false;
        html::push_unescaped(out, part);
    }
    links.unwrap_or(spans)
}

/// Whether the anchor `raw` (escaped, as in the markup) holds a keyword:
/// a run of alphanumeric chars of the lowercased anchor equal to one.
/// ASCII lowercases byte by byte, so an ASCII anchor is split and compared
/// in place; any other is lowercased whole (`str::to_lowercase` has
/// context rules, like the final sigma).
fn has_keyword(raw: &str, keywords: &[String]) -> bool {
    let anchor = html::unescape(raw);
    if !anchor.is_ascii() {
        let lower = anchor.to_lowercase();
        return lower
            .split(|c: char| !c.is_alphanumeric())
            .any(|w| keywords.iter().any(|k| k == w));
    }
    anchor
        .as_bytes()
        .split(|b| !b.is_ascii_alphanumeric())
        .any(|w| {
            keywords.iter().any(|k| {
                k.len() == w.len() && k.bytes().zip(w).all(|(k, &b)| k == b.to_ascii_lowercase())
            })
        })
}

fn is_internal(href: &str) -> bool {
    href.starts_with('/') && !href.starts_with("//")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{Fetched, SimWeb};
    use crate::lang::Language;
    use crate::site::{SiteQuirks, SiteSpec, Website};
    use asdb_model::WorldSeed;
    use asdb_taxonomy::naicslite::known;
    use std::borrow::Cow;
    use std::cell::RefCell;

    /// Scrape through a fetcher that records the path of every page it
    /// served, in order: the pages the scraper read.
    fn scrape_recorded<F: Fetcher>(
        fetcher: F,
        domain: &Domain,
        config: &ScrapeConfig,
    ) -> (ScrapeResult, Vec<String>) {
        struct Recording<F> {
            inner: F,
            served: RefCell<Vec<String>>,
        }
        impl<F: Fetcher> Fetcher for Recording<F> {
            fn fetch(&self, host: &Domain, path: &str) -> Result<Fetched<'_>, FetchError> {
                let page = self.inner.fetch(host, path)?;
                self.served.borrow_mut().push(path.to_owned());
                Ok(page)
            }
        }
        let recording = Recording {
            inner: fetcher,
            served: RefCell::new(Vec::new()),
        };
        let result = scrape(&recording, domain, config).expect("the root is served");
        (result, recording.served.into_inner())
    }

    fn hosted(quirks: SiteQuirks) -> (SimWeb, Domain) {
        let domain = Domain::new("scrapeme.example").unwrap();
        let spec = SiteSpec {
            domain: domain.clone(),
            org_name: "Scrape Me Hosting".into(),
            category: known::hosting(),
            language: Language::English,
            quirks,
        };
        let mut web = SimWeb::new();
        web.host(Website::generate(&spec, WorldSeed::new(42)));
        (web, domain)
    }

    #[test]
    fn scrapes_root_and_keyword_internal_pages() {
        let (web, domain) = hosted(SiteQuirks::default());
        let (r, visited) = scrape_recorded(web, &domain, &ScrapeConfig::default());
        assert!(visited.len() >= 2, "visited: {visited:?}");
        assert!(visited[0] == "/");
        assert!(r.is_substantive());
        assert!(r.text.to_lowercase().contains("hosting"));
        // The privacy decoy must NOT be followed (no keyword in anchor).
        assert!(!visited.contains(&"/privacy".to_owned()));
    }

    #[test]
    fn respects_max_internal_pages() {
        let (web, domain) = hosted(SiteQuirks::default());
        let cfg = ScrapeConfig {
            max_internal_pages: 1,
            ..ScrapeConfig::default()
        };
        let (_, visited) = scrape_recorded(web, &domain, &cfg);
        assert!(visited.len() <= 2);
    }

    #[test]
    fn unlinked_internal_pages_are_missed() {
        // The paper's 67%-of-false-negatives case: informative pages exist
        // but the scraper can't find them.
        let (web, domain) = hosted(SiteQuirks {
            unlinked_internal: true,
            ..SiteQuirks::default()
        });
        let (_, visited) = scrape_recorded(web, &domain, &ScrapeConfig::default());
        assert_eq!(visited, vec!["/"]);
    }

    #[test]
    fn text_in_images_starves_the_scraper() {
        let (web, domain) = hosted(SiteQuirks {
            text_in_images: true,
            ..SiteQuirks::default()
        });
        let r = scrape(&web, &domain, &ScrapeConfig::default()).unwrap();
        let lower = r.text.to_lowercase();
        assert!(!lower.contains("colocation"));
        assert!(!lower.contains("vps"));
    }

    #[test]
    fn root_failure_propagates() {
        let web = SimWeb::new();
        let err = scrape(
            &web,
            &Domain::new("missing.example").unwrap(),
            &ScrapeConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, FetchError::NoSuchHost);
    }

    #[test]
    fn internal_fetch_failures_are_skipped() {
        struct Flaky;
        impl Fetcher for Flaky {
            fn fetch(&self, _: &Domain, path: &str) -> Result<Fetched<'_>, FetchError> {
                if path == "/" {
                    let page = Page {
                        title: "Root".into(),
                        links: vec![
                            crate::html::Link {
                                href: "/about".into(),
                                text: "About us".into(),
                            },
                            crate::html::Link {
                                href: "/services".into(),
                                text: "Our services".into(),
                            },
                        ],
                        paragraphs: vec!["root text".into()],
                        ..Page::default()
                    };
                    Ok(Fetched {
                        markup: Cow::Owned(page.render()),
                    })
                } else if path == "/services" {
                    Ok(Fetched {
                        markup: Cow::Owned(
                            Page {
                                title: "Services".into(),
                                paragraphs: vec!["service text".into()],
                                ..Page::default()
                            }
                            .render(),
                        ),
                    })
                } else {
                    Err(FetchError::NotFound)
                }
            }
        }
        let (r, visited) = scrape_recorded(
            Flaky,
            &Domain::new("flaky.example").unwrap(),
            &ScrapeConfig::default(),
        );
        assert_eq!(visited, vec!["/", "/services"]);
        assert!(r.text.contains("service text"));
    }

    #[test]
    fn external_links_not_followed() {
        struct External;
        impl Fetcher for External {
            fn fetch(&self, host: &Domain, _: &str) -> Result<Fetched<'_>, FetchError> {
                assert_eq!(host.as_str(), "self.example", "left the site!");
                let page = Page {
                    title: "Root".into(),
                    links: vec![crate::html::Link {
                        href: "//evil.example/about".into(),
                        text: "About us".into(),
                    }],
                    ..Page::default()
                };
                Ok(Fetched {
                    markup: Cow::Owned(page.render()),
                })
            }
        }
        let (_, visited) = scrape_recorded(
            External,
            &Domain::new("self.example").unwrap(),
            &ScrapeConfig::default(),
        );
        assert_eq!(visited, vec!["/"]);
    }
}
