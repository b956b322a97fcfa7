//! Simulated web fetching.
//!
//! The scraper talks to the web through the [`Fetcher`] trait, so it can be
//! pointed at the [`SimWeb`] registry in experiments or at custom stubs in
//! tests. Fetches have the documented failure modes (unreachable hosts,
//! missing pages).

use crate::site::Website;
use asdb_model::{Domain, FxBuildHasher, FxHashMap};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Why a fetch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// DNS resolution failed / host does not exist.
    NoSuchHost,
    /// Host exists but never answers ("31% do not have a working website").
    Unreachable,
    /// Host answered but the path is missing.
    NotFound,
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FetchError::NoSuchHost => "no such host",
            FetchError::Unreachable => "host unreachable",
            FetchError::NotFound => "page not found",
        })
    }
}

impl std::error::Error for FetchError {}

/// A successful fetch: the page's markup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetched<'a> {
    /// Raw page markup, borrowed from the fetcher where it holds the page.
    pub markup: Cow<'a, str>,
}

/// Anything the scraper can fetch pages from.
pub trait Fetcher {
    /// Fetch the page at `path` (site-relative, e.g. `/about`) on `host`.
    fn fetch(&self, host: &Domain, path: &str) -> Result<Fetched<'_>, FetchError>;
}

/// A shared fetcher fetches through what it points at, so one
/// `Arc<SimWeb>` serves every holder without a copy of the pages.
impl<F: Fetcher + ?Sized> Fetcher for Arc<F> {
    fn fetch(&self, host: &Domain, path: &str) -> Result<Fetched<'_>, FetchError> {
        (**self).fetch(host, path)
    }
}

/// The simulated web: a registry of generated websites plus a set of
/// registered-but-unreachable hosts.
///
/// Not `Clone`: a world's web is built once and shared behind an `Arc` by
/// everything that scrapes it. Its hosts are fixed once the world is built
/// and every fetch probes them, so they take the fast hasher (see
/// [`asdb_model::hash`]).
#[derive(Debug, Default)]
pub struct SimWeb {
    sites: FxHashMap<Domain, Website>,
    unreachable: HashSet<Domain, FxBuildHasher>,
}

impl SimWeb {
    /// Empty web.
    pub fn new() -> SimWeb {
        SimWeb::default()
    }

    /// Host a website.
    pub fn host(&mut self, site: Website) {
        self.sites.insert(site.domain.clone(), site);
    }

    /// Register a domain that resolves but never answers.
    pub fn register_unreachable(&mut self, domain: Domain) {
        self.unreachable.insert(domain);
    }

    /// The site at a domain, if any.
    pub fn site(&self, domain: &Domain) -> Option<&Website> {
        self.sites.get(domain)
    }

    /// Number of hosted sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no sites are hosted.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

impl Fetcher for SimWeb {
    /// The page's markup is borrowed from the hosted site, not copied.
    fn fetch(&self, host: &Domain, path: &str) -> Result<Fetched<'_>, FetchError> {
        if self.unreachable.contains(host) {
            return Err(FetchError::Unreachable);
        }
        let site = self.sites.get(host).ok_or(FetchError::NoSuchHost)?;
        let markup = site.pages.get(path).ok_or(FetchError::NotFound)?;
        Ok(Fetched {
            markup: Cow::Borrowed(markup),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::Language;
    use crate::site::{SiteQuirks, SiteSpec};
    use asdb_model::WorldSeed;
    use asdb_taxonomy::naicslite::known;

    fn web() -> SimWeb {
        let mut w = SimWeb::new();
        let spec = SiteSpec {
            domain: Domain::new("live.example").unwrap(),
            org_name: "Live Org".into(),
            category: known::isp(),
            language: Language::English,
            quirks: SiteQuirks::default(),
        };
        w.host(Website::generate(&spec, WorldSeed::new(1)));
        w.register_unreachable(Domain::new("dead.example").unwrap());
        w
    }

    #[test]
    fn fetch_existing_page() {
        let w = web();
        let f = w.fetch(&Domain::new("live.example").unwrap(), "/").unwrap();
        assert!(f.markup.contains("Live Org"));
    }

    #[test]
    fn fetch_error_modes() {
        let w = web();
        let fetch = |host: &str, path: &str| w.fetch(&Domain::new(host).unwrap(), path);
        assert_eq!(
            fetch("live.example", "/nope").unwrap_err(),
            FetchError::NotFound
        );
        assert_eq!(
            fetch("dead.example", "/").unwrap_err(),
            FetchError::Unreachable
        );
        assert_eq!(
            fetch("ghost.example", "/").unwrap_err(),
            FetchError::NoSuchHost
        );
    }

    #[test]
    fn site_reflects_hosting() {
        let w = web();
        assert!(w.site(&Domain::new("live.example").unwrap()).is_some());
        assert!(w.site(&Domain::new("dead.example").unwrap()).is_none());
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
    }
}
