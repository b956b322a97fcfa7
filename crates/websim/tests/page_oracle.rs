//! Differential tests of the page parser and renderer against the
//! implementations they replaced, which live here and only here as the
//! oracle.
//!
//! The parser reads each element's text in place up to the next `<` and
//! borrows attribute values (`html::spans`, which `Page::parse` unescapes
//! and copies); the renderer escapes into one exactly sized buffer. These tests pin that both give the oracle's output on every page
//! of three standard worlds, on random markup built from the fragments the
//! close-tag and attribute rules care about, and on random pages whose
//! every field holds the escaped characters. Every rendered page, hosted or
//! re-rendered, has no spare capacity.

mod common;

use asdb_model::WorldSeed;
use asdb_websim::html::Link;
use asdb_websim::Page;
use asdb_worldgen::{World, WorldConfig};
use common::arb_fragment;
use rand::check::{self, any_string, class_string, vec_of};
use rand::rngs::StdRng;
use rand::RngExt;

/// The replaced parser and renderer: the rest of the document lowercased
/// per element, owned tag names and attribute values, a `format!` and a
/// four-`replace` escape per element.
mod oracle {
    use asdb_websim::html::Link;
    use asdb_websim::Page;

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

    pub fn render(page: &Page) -> String {
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

    pub fn parse(markup: &str) -> Page {
        let mut page = Page::default();
        let mut rest = markup;
        while let Some(start) = rest.find('<') {
            rest = &rest[start + 1..];
            let Some(end) = rest.find('>') else { break };
            let tag = &rest[..end];
            rest = &rest[end + 1..];
            let (name, attrs) = tag.split_once(char::is_whitespace).unwrap_or((tag, ""));
            match name.to_ascii_lowercase().as_str() {
                "title" => {
                    if let Some((text, r)) = read_text_until(rest, "</title>") {
                        page.title = unescape(&text);
                        rest = r;
                    }
                }
                "h1" | "h2" => {
                    let close = if name.eq_ignore_ascii_case("h1") {
                        "</h1>"
                    } else {
                        "</h2>"
                    };
                    if let Some((text, r)) = read_text_until(rest, close) {
                        page.headings.push(unescape(&text));
                        rest = r;
                    }
                }
                "p" => {
                    if let Some((text, r)) = read_text_until(rest, "</p>") {
                        page.paragraphs.push(unescape(&text));
                        rest = r;
                    }
                }
                "a" => {
                    let href = attr_value(attrs, "href").unwrap_or_default();
                    if let Some((text, r)) = read_text_until(rest, "</a>") {
                        page.links.push(Link {
                            href: unescape(&href),
                            text: unescape(&text),
                        });
                        rest = r;
                    }
                }
                "img" => {
                    if let Some(baked) = attr_value(attrs, "data-baked") {
                        page.image_text.push(unescape(&baked));
                    }
                }
                _ => {}
            }
        }
        page
    }

    fn read_text_until<'a>(input: &'a str, close: &str) -> Option<(String, &'a str)> {
        let pos = input.to_ascii_lowercase().find(close)?;
        if input[..pos].contains('<') {
            return None;
        }
        Some((input[..pos].to_owned(), &input[pos + close.len()..]))
    }

    fn attr_value(attrs: &str, name: &str) -> Option<String> {
        let lower = attrs.to_ascii_lowercase();
        let at = lower.find(&format!("{name}=\""))?;
        let after = &attrs[at + name.len() + 2..];
        let end = after.find('"')?;
        Some(after[..end].to_owned())
    }

    fn escape(s: &str) -> String {
        s.replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('"', "&quot;")
    }

    fn unescape(s: &str) -> String {
        s.replace("&quot;", "\"")
            .replace("&gt;", ">")
            .replace("&lt;", "<")
            .replace("&amp;", "&")
    }
}

#[test]
fn parse_and_render_match_oracle_on_standard_worlds() {
    for s in 1..=3 {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
        let mut pages = 0usize;
        for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
            let Some(site) = w.web.site(domain) else {
                continue;
            };
            for (path, markup) in &site.pages {
                // The hosted page was rendered into an exactly sized buffer.
                assert_eq!(markup.capacity(), markup.len(), "seed {s}, {domain}{path}");
                let page = Page::parse(markup);
                assert_eq!(page, oracle::parse(markup), "seed {s}, {domain}{path}");
                let rendered = page.render();
                assert_eq!(rendered, oracle::render(&page), "seed {s}, {domain}{path}");
                assert_eq!(
                    rendered.capacity(),
                    rendered.len(),
                    "seed {s}, {domain}{path}"
                );
                assert_eq!(page.visible_text(), oracle::visible_text(&page));
                pages += 1;
            }
        }
        assert!(pages > 10_000, "seed {s}: only {pages} pages");
    }
}

#[test]
fn parse_matches_oracle_on_random_markup() {
    let (mut titled, mut linked) = (0usize, 0usize);
    check::cases(
        20_000,
        |rng| vec_of(rng, 0..40, arb_fragment).concat(),
        |markup| {
            let page = Page::parse(&markup);
            assert_eq!(page, oracle::parse(&markup));
            titled += usize::from(!page.title.is_empty());
            linked += usize::from(!page.links.is_empty());
        },
    );
    // The draws reach the elements they are built to exercise.
    assert!(titled > 1_000, "only {titled} markups kept a title");
    assert!(linked > 1_000, "only {linked} markups kept a link");
}

/// A field of a test page: markup-special characters mixed with letters
/// and arbitrary chars.
fn arb_field(rng: &mut StdRng) -> String {
    if rng.random_bool(0.3) {
        any_string(rng, 0..=12)
    } else {
        class_string(rng, "&<>\"a-z ;", 0..=16)
    }
}

fn arb_page(rng: &mut StdRng) -> Page {
    Page {
        title: arb_field(rng),
        headings: vec_of(rng, 0..4, arb_field),
        paragraphs: vec_of(rng, 0..4, arb_field),
        links: vec_of(rng, 0..4, |r| Link {
            href: arb_field(r),
            text: arb_field(r),
        }),
        image_text: vec_of(rng, 0..3, arb_field),
    }
}

#[test]
fn render_matches_oracle_on_random_pages() {
    check::cases(4_096, arb_page, |page| {
        let markup = page.render();
        assert_eq!(markup, oracle::render(&page));
        assert_eq!(markup.capacity(), markup.len());
        assert_eq!(Page::parse(&markup), oracle::parse(&markup));
        assert_eq!(page.visible_text(), oracle::visible_text(&page));
    });
}
