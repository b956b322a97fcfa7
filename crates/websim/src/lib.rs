//! # asdb-websim
//!
//! The synthetic web substrate.
//!
//! The paper's ML pipeline (Figure 3) classifies ASes by scraping the
//! organization's website, translating it to English, and featurizing the
//! text. We cannot scrape the real web, so this crate builds the closest
//! synthetic equivalent that exercises the same code paths:
//!
//! * [`html`]: a small HTML-subset document model with a renderer and a
//!   robust parser — pages really are serialized to markup and re-parsed by
//!   the scraper, so extraction bugs are observable;
//! * [`vocab`]: per-NAICSlite-category vocabulary the generator writes
//!   websites with (including the misleading-keyword traps behind the
//!   paper's false positives, like the meteorology institute whose homepage
//!   "is dominated by keywords like 'cloud', 'computing', and
//!   'performance'");
//! * [`lang`]: 8 synthetic non-English languages implemented as invertible
//!   word transforms, plus the translator that undoes them ("49% of Gold
//!   Standard AS websites are not in English");
//! * [`site`]: the website generator — homepage plus keyword-titled internal
//!   pages, with quirk flags reproducing documented failure modes
//!   (text-in-images, unlinked internal pages, parked domains, Apache test
//!   pages);
//! * [`fetch`]: a simulated HTTP fetcher with deterministic
//!   failure modes behind a [`fetch::Fetcher`] trait;
//! * [`scraper`]: the paper's scraper — root page plus up to five internal
//!   pages whose link titles contain the Figure 3 keyword list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fetch;
pub mod html;
pub mod lang;
pub mod scraper;
pub mod site;
pub mod vocab;

pub use fetch::{FetchError, Fetcher, SimWeb};
pub use html::Page;
pub use lang::{Language, Translator};
pub use scraper::{scrape, ScrapeConfig, ScrapeResult};
pub use site::{SiteQuirks, SiteSpec, Website};
