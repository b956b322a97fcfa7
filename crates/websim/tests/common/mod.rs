//! Test support shared by the websim differential tests (and, by path,
//! by `asdb-entity`'s title test): the owned page parser and scraper that
//! the borrowed-span parser replaced, kept here as the oracle, and the
//! random markup fragments the parser's rules care about.

#![allow(dead_code)]

use rand::check::{any_string, class_string};
use rand::rngs::StdRng;
use rand::RngExt;

/// The replaced owned parser and scraper: every element's text unescaped
/// into its own `String` with a four-`replace` chain, a whole [`Page`]
/// built per fetched page, each anchor lowercased into a new `String`
/// before it is split, and the path of each page read kept.
///
/// [`Page`]: asdb_websim::Page
pub mod old {
    use asdb_model::Domain;
    use asdb_websim::html::Link;
    use asdb_websim::scraper::ScrapeConfig;
    use asdb_websim::{FetchError, Fetcher, Page};

    pub fn parse(markup: &str) -> Page {
        let mut page = Page::default();
        let mut rest = markup;
        while let Some(start) = rest.find('<') {
            rest = &rest[start + 1..];
            let Some(end) = rest.find('>') else { break };
            let tag = &rest[..end];
            rest = &rest[end + 1..];
            let (name, attrs) = tag.split_once(char::is_whitespace).unwrap_or((tag, ""));
            let is = |n: &str| name.eq_ignore_ascii_case(n);
            if is("title") {
                if let Some((text, r)) = read_text_until(rest, "</title>") {
                    page.title = unescape(text);
                    rest = r;
                }
            } else if is("h1") || is("h2") {
                let close = if is("h1") { "</h1>" } else { "</h2>" };
                if let Some((text, r)) = read_text_until(rest, close) {
                    page.headings.push(unescape(text));
                    rest = r;
                }
            } else if is("p") {
                if let Some((text, r)) = read_text_until(rest, "</p>") {
                    page.paragraphs.push(unescape(text));
                    rest = r;
                }
            } else if is("a") {
                if let Some((text, r)) = read_text_until(rest, "</a>") {
                    page.links.push(Link {
                        href: unescape(attr_value(attrs, "href").unwrap_or_default()),
                        text: unescape(text),
                    });
                    rest = r;
                }
            } else if is("img") {
                if let Some(baked) = attr_value(attrs, "data-baked") {
                    page.image_text.push(unescape(baked));
                }
            }
        }
        page
    }

    pub fn visible_text(page: &Page) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if !page.title.is_empty() {
            parts.push(&page.title);
        }
        parts.extend(page.headings.iter().map(String::as_str));
        parts.extend(page.paragraphs.iter().map(String::as_str));
        parts.extend(page.links.iter().map(|l| l.text.as_str()));
        parts.join("\n")
    }

    /// What [`scrape`] read: the visible text, and the paths of the pages
    /// it came from, root first.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Scraped {
        pub text: String,
        pub visited: Vec<String>,
    }

    pub fn scrape<F: Fetcher>(
        fetcher: &F,
        domain: &Domain,
        config: &ScrapeConfig,
    ) -> Result<Scraped, FetchError> {
        let root = fetcher.fetch(domain, "/")?;
        let root_page = parse(&root.markup);
        let mut text = visible_text(&root_page);
        let mut visited = vec!["/".to_owned()];
        let mut followed = 0usize;
        for link in &root_page.links {
            if followed >= config.max_internal_pages {
                break;
            }
            let internal = link.href.starts_with('/') && !link.href.starts_with("//");
            if !internal {
                continue;
            }
            let anchor = link.text.to_lowercase();
            let matches = anchor
                .split(|c: char| !c.is_alphanumeric())
                .any(|w| config.keywords.iter().any(|k| k == w));
            if !matches {
                continue;
            }
            // An internal href starts with `/`, so it is the path as is.
            match fetcher.fetch(domain, &link.href) {
                Ok(f) => {
                    text.push('\n');
                    text.push_str(&visible_text(&parse(&f.markup)));
                    visited.push(link.href.clone());
                    followed += 1;
                }
                Err(_) => continue,
            }
        }
        Ok(Scraped { text, visited })
    }

    fn read_text_until<'a>(input: &'a str, close: &str) -> Option<(&'a str, &'a str)> {
        let pos = input.find('<')?;
        let tail = &input.as_bytes()[pos..];
        if tail.len() < close.len() || !tail[..close.len()].eq_ignore_ascii_case(close.as_bytes()) {
            return None;
        }
        Some((&input[..pos], &input[pos + close.len()..]))
    }

    fn attr_value<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
        let (bytes, name) = (attrs.as_bytes(), name.as_bytes());
        let at = bytes.windows(name.len() + 2).position(|w| {
            w[..name.len()].eq_ignore_ascii_case(name) && w[name.len()..] == *b"=\""
        })?;
        let after = &attrs[at + name.len() + 2..];
        let end = after.find('"')?;
        Some(&after[..end])
    }

    fn unescape(s: &str) -> String {
        s.replace("&quot;", "\"")
            .replace("&gt;", ">")
            .replace("&lt;", "<")
            .replace("&amp;", "&")
    }
}

/// One of `items`, uniformly.
pub fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// `s` with each ASCII letter uppercased at random.
pub fn cased(rng: &mut StdRng, s: &str) -> String {
    s.chars()
        .map(|c| {
            if rng.random_bool(0.5) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// One piece of test markup: an open or close tag of a parsed element in
/// any ASCII case, a whole element with `<`-free text, an
/// attribute-bearing `<a>` or `<img>`, an unknown tag, an entity, a stray
/// `<`, `>` or `"`, or arbitrary text.
pub fn arb_fragment(rng: &mut StdRng) -> String {
    const NAMES: &[&str] = &["title", "h1", "h2", "p", "a", "img"];
    match rng.random_range(0..14) {
        0 | 1 => {
            let name = pick(rng, NAMES);
            format!("<{}>", cased(rng, name))
        }
        2 | 3 => {
            let name = pick(rng, NAMES);
            format!("</{}>", cased(rng, name))
        }
        4 | 5 => {
            let open = pick(rng, NAMES);
            let close = if rng.random_bool(0.8) {
                open
            } else {
                pick(rng, NAMES)
            };
            let text = class_string(rng, "a-zA-Z &;\">", 0..=12);
            format!("<{}>{text}</{}>", cased(rng, open), cased(rng, close))
        }
        6 => {
            let name = pick(rng, &["a", "img"]);
            let space = pick(rng, &[" ", "  ", "\t", "\u{A0}", "\u{3000}"]);
            let before = pick(rng, &["", "x", "id=\"h\" "]);
            let attr = pick(rng, &["href", "data-baked"]);
            let value = class_string(rng, "a-z/&;\"<", 0..=8);
            let close = pick(rng, &[">", ">", "/>"]);
            format!(
                "<{}{space}{before}{}=\"{value}\"{close}",
                cased(rng, name),
                cased(rng, attr)
            )
        }
        7 => pick(
            rng,
            &[
                "<div>",
                "<br/>",
                "</span>",
                "<TITLEX>",
                "<p class=\"x\">",
                "</p",
                "<",
            ],
        )
        .to_owned(),
        8 | 9 => pick(
            rng,
            &[
                "&amp;quot;",
                "&quot;",
                "&lt;",
                "&gt;",
                "&amp;",
                "&amp;lt;",
                "&",
                "&amp",
            ],
        )
        .to_owned(),
        10 => class_string(rng, "<>\"=& ", 1..=2),
        11 => any_string(rng, 0..=6),
        _ => class_string(rng, "a-zA-Z ", 1..=8),
    }
}
