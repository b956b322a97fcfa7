//! The website scraper (left half of Figure 3).
//!
//! "Our ML pipeline accepts a single domain as input and scrapes the text
//! from the root page of the website hosted at the domain. … We configure
//! our scraper to visit up to five internal pages whose link titles contain
//! a list of these keywords" (§4.1). The keyword list is printed in
//! Figure 3 and reproduced as [`SCRAPER_KEYWORDS`].

use crate::fetch::{FetchError, Fetcher};
use crate::html::Page;
use asdb_model::{Domain, Url};

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
    /// Paths visited, root first.
    pub visited: Vec<String>,
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
pub fn scrape<F: Fetcher>(
    fetcher: &F,
    domain: &Domain,
    config: &ScrapeConfig,
) -> Result<ScrapeResult, FetchError> {
    let root_url = Url::root(domain.clone());
    let root = fetcher.fetch(&root_url)?;
    let root_page = Page::parse(&root.markup);
    let mut text = root_page.visible_text();
    let mut visited = vec!["/".to_owned()];

    let mut followed = 0usize;
    for link in &root_page.links {
        if followed >= config.max_internal_pages {
            break;
        }
        if !is_internal(&link.href) {
            continue;
        }
        let anchor = link.text.to_lowercase();
        let matches = anchor
            .split(|c: char| !c.is_alphanumeric())
            .any(|w| config.keywords.iter().any(|k| k == w));
        if !matches {
            continue;
        }
        let url = Url::with_path(domain.clone(), &link.href);
        match fetcher.fetch(&url) {
            Ok(f) => {
                text.push('\n');
                Page::parse(&f.markup).push_visible_text(&mut text);
                visited.push(link.href.clone());
                followed += 1;
            }
            Err(_) => continue,
        }
    }
    Ok(ScrapeResult { text, visited })
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
        let r = scrape(&web, &domain, &ScrapeConfig::default()).unwrap();
        assert!(r.visited.len() >= 2, "visited: {:?}", r.visited);
        assert!(r.visited[0] == "/");
        assert!(r.is_substantive());
        assert!(r.text.to_lowercase().contains("hosting"));
        // The privacy decoy must NOT be followed (no keyword in anchor).
        assert!(!r.visited.contains(&"/privacy".to_owned()));
    }

    #[test]
    fn respects_max_internal_pages() {
        let (web, domain) = hosted(SiteQuirks::default());
        let cfg = ScrapeConfig {
            max_internal_pages: 1,
            ..ScrapeConfig::default()
        };
        let r = scrape(&web, &domain, &cfg).unwrap();
        assert!(r.visited.len() <= 2);
    }

    #[test]
    fn unlinked_internal_pages_are_missed() {
        // The paper's 67%-of-false-negatives case: informative pages exist
        // but the scraper can't find them.
        let (web, domain) = hosted(SiteQuirks {
            unlinked_internal: true,
            ..SiteQuirks::default()
        });
        let r = scrape(&web, &domain, &ScrapeConfig::default()).unwrap();
        assert_eq!(r.visited, vec!["/"]);
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
            fn fetch(&self, url: &Url) -> Result<Fetched<'_>, FetchError> {
                if url.path == "/" {
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
                } else if url.path == "/services" {
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
        let r = scrape(
            &Flaky,
            &Domain::new("flaky.example").unwrap(),
            &ScrapeConfig::default(),
        )
        .unwrap();
        assert_eq!(r.visited, vec!["/", "/services"]);
        assert!(r.text.contains("service text"));
    }

    #[test]
    fn external_links_not_followed() {
        struct External;
        impl Fetcher for External {
            fn fetch(&self, url: &Url) -> Result<Fetched<'_>, FetchError> {
                assert_eq!(url.host.as_str(), "self.example", "left the site!");
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
        let r = scrape(
            &External,
            &Domain::new("self.example").unwrap(),
            &ScrapeConfig::default(),
        )
        .unwrap();
        assert_eq!(r.visited, vec!["/"]);
    }
}
