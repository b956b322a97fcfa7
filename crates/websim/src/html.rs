//! A small HTML-subset document model.
//!
//! Generated sites are rendered to real markup and the scraper re-parses
//! that markup, so the generator and scraper are decoupled exactly like a
//! real crawler and the sites it visits. The subset covers what the
//! pipeline needs: title, headings, paragraphs, anchors, and images with
//! `alt`-less embedded text (which a text scraper cannot see — one of the
//! paper's documented failure modes).

/// A hyperlink on a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Target path (site-relative, e.g. `/about`).
    pub href: String,
    /// The anchor text ("link title" in the paper's scraper description).
    pub text: String,
}

/// A parsed (or generated) web page.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Page {
    /// `<title>` content.
    pub title: String,
    /// `<h1>`/`<h2>` contents in order.
    pub headings: Vec<String>,
    /// `<p>` contents in order.
    pub paragraphs: Vec<String>,
    /// `<a>` elements in order.
    pub links: Vec<Link>,
    /// Text embedded inside images — *invisible* to text extraction.
    pub image_text: Vec<String>,
}

impl Page {
    /// All text a text-scraper can extract: title, headings, paragraphs,
    /// link anchors. Image-embedded text is deliberately excluded.
    pub fn visible_text(&self) -> String {
        let mut out = String::new();
        self.push_visible_text(&mut out);
        out
    }

    /// Append [`Page::visible_text`] to `out`: the non-empty title, then
    /// every heading, paragraph and link anchor, one per line.
    pub fn push_visible_text(&self, out: &mut String) {
        let mut first = true;
        let title = (!self.title.is_empty()).then_some(&self.title);
        let links = self.links.iter().map(|l| &l.text);
        for part in title
            .into_iter()
            .chain(&self.headings)
            .chain(&self.paragraphs)
            .chain(links)
        {
            if !first {
                out.push('\n');
            }
            first = false;
            out.push_str(part);
        }
    }

    /// Render to markup, escaping `&`, `<`, `>` and `"` in every field.
    /// The buffer is sized exactly, so a hosted page holds no spare
    /// capacity.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.rendered_len());
        out.push_str("<html><head><title>");
        push_escaped(&mut out, &self.title);
        out.push_str("</title></head><body>");
        for h in &self.headings {
            out.push_str("<h1>");
            push_escaped(&mut out, h);
            out.push_str("</h1>");
        }
        for p in &self.paragraphs {
            out.push_str("<p>");
            push_escaped(&mut out, p);
            out.push_str("</p>");
        }
        for l in &self.links {
            out.push_str("<a href=\"");
            push_escaped(&mut out, &l.href);
            out.push_str("\">");
            push_escaped(&mut out, &l.text);
            out.push_str("</a>");
        }
        for t in &self.image_text {
            // Text baked into a bitmap: modeled as a data-image whose
            // content never appears as element text.
            out.push_str("<img data-baked=\"");
            push_escaped(&mut out, t);
            out.push_str("\"/>");
        }
        out.push_str("</body></html>");
        out
    }

    /// The byte length of [`Page::render`]'s output: the fixed tags plus
    /// every field's escaped length.
    fn rendered_len(&self) -> usize {
        const FRAME: usize = "<html><head><title></title></head><body></body></html>".len();
        const HEADING: usize = "<h1></h1>".len();
        const PARAGRAPH: usize = "<p></p>".len();
        const LINK: usize = "<a href=\"\"></a>".len();
        const IMAGE: usize = "<img data-baked=\"\"/>".len();
        let fields = |items: &[String], tags: usize| {
            items.iter().map(|s| tags + escaped_len(s)).sum::<usize>()
        };
        FRAME
            + escaped_len(&self.title)
            + fields(&self.headings, HEADING)
            + fields(&self.paragraphs, PARAGRAPH)
            + self
                .links
                .iter()
                .map(|l| LINK + escaped_len(&l.href) + escaped_len(&l.text))
                .sum::<usize>()
            + fields(&self.image_text, IMAGE)
    }

    /// Parse markup produced by [`Page::render`] (or anything structurally
    /// similar). Unknown tags are skipped; the parser never panics.
    ///
    /// One left-to-right pass: an element's text runs from its open tag to
    /// the next `<`, and the element is kept only when that `<` starts its
    /// close tag (matched ignoring ASCII case).
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
}

/// The element text before `close` and the input after it, when the first
/// `<` in `input` starts `close` (ignoring ASCII case). Any other tag before
/// the close tag means this element was never properly closed: it is
/// treated as malformed, and the outer loop re-scans from the intervening
/// tag instead of swallowing it.
fn read_text_until<'a>(input: &'a str, close: &str) -> Option<(&'a str, &'a str)> {
    let pos = input.find('<')?;
    let tail = &input.as_bytes()[pos..];
    if tail.len() < close.len() || !tail[..close.len()].eq_ignore_ascii_case(close.as_bytes()) {
        return None;
    }
    Some((&input[..pos], &input[pos + close.len()..]))
}

/// The value of the first `name="…"` in `attrs`, the lowercase ASCII
/// `name` matched ignoring ASCII case.
fn attr_value<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
    let (bytes, name) = (attrs.as_bytes(), name.as_bytes());
    let at = bytes
        .windows(name.len() + 2)
        .position(|w| w[..name.len()].eq_ignore_ascii_case(name) && w[name.len()..] == *b"=\"")?;
    let after = &attrs[at + name.len() + 2..];
    let end = after.find('"')?;
    Some(&after[..end])
}

/// The entity a byte is escaped to, for the four escaped ASCII bytes. A
/// UTF-8 multi-byte char never contains an ASCII byte, so a byte scan
/// finds exactly the chars to escape.
fn entity(b: u8) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    }
}

/// The length of `s` once escaped: each escaped byte becomes its entity.
fn escaped_len(s: &str) -> usize {
    s.len()
        + s.bytes()
            .filter_map(entity)
            .map(|e| e.len() - 1)
            .sum::<usize>()
}

/// Append `s` to `out` with `&`, `<`, `>` and `"` escaped, copying the
/// runs between escaped bytes whole.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b) {
            out.push_str(&s[run..i]);
            out.push_str(e);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Undo [`push_escaped`]. Text without an `&` is copied as is.
fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_owned();
    }
    s.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, any_string, class_string, vec_of, CASES};

    fn sample() -> Page {
        Page {
            title: "Acme Hosting — Cloud & Dedicated Servers".into(),
            headings: vec!["Managed hosting".into()],
            paragraphs: vec![
                "We operate datacenters with 24/7 support.".into(),
                "Dedicated servers, VPS, and colocation.".into(),
            ],
            links: vec![
                Link {
                    href: "/services".into(),
                    text: "Our services".into(),
                },
                Link {
                    href: "/about".into(),
                    text: "About us".into(),
                },
            ],
            image_text: vec!["hidden slogan in a banner image".into()],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let p = sample();
        let back = Page::parse(&p.render());
        assert_eq!(p, back);
    }

    #[test]
    fn visible_text_excludes_image_text() {
        let text = sample().visible_text();
        assert!(text.contains("Managed hosting"));
        assert!(text.contains("Our services"));
        assert!(!text.contains("hidden slogan"));
    }

    #[test]
    fn escaping_special_chars() {
        let p = Page {
            title: "a < b & \"c\" > d".into(),
            ..Page::default()
        };
        let back = Page::parse(&p.render());
        assert_eq!(back.title, p.title);
    }

    #[test]
    fn parser_tolerates_garbage() {
        let p = Page::parse("<<<>>><p>ok</p><a href=>broken<a href=\"/x\">fine</a>");
        assert_eq!(p.paragraphs, vec!["ok"]);
        assert!(p.links.iter().any(|l| l.href == "/x"));
    }

    #[test]
    fn parser_handles_unclosed_tags() {
        let p = Page::parse("<title>no close tag at all");
        assert_eq!(p.title, "");
        let p = Page::parse("<p>fine</p><h1>unclosed heading");
        assert_eq!(p.paragraphs, vec!["fine"]);
    }

    #[test]
    fn empty_page() {
        let p = Page::parse("");
        assert_eq!(p, Page::default());
        assert_eq!(p.visible_text(), "");
    }

    #[test]
    fn parse_never_panics() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=800),
            |s| {
                let _ = Page::parse(&s);
            },
        );
    }

    #[test]
    fn roundtrip_for_simple_content() {
        check::cases(
            CASES,
            |rng| {
                let title = class_string(rng, "a-zA-Z0-9 ", 0..=40);
                let paras = vec_of(rng, 0..5, |r| class_string(r, "a-zA-Z0-9 .,", 0..=60));
                (title, paras)
            },
            |(title, paras)| {
                let p = Page {
                    title: title.trim().to_owned(),
                    paragraphs: paras.iter().map(|s| s.trim().to_owned()).collect(),
                    ..Page::default()
                };
                let back = Page::parse(&p.render());
                assert_eq!(back.title, p.title);
                assert_eq!(back.paragraphs, p.paragraphs);
            },
        );
    }
}
