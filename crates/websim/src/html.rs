//! A small HTML-subset document model.
//!
//! Generated sites are rendered to real markup and the scraper re-parses
//! that markup, so the generator and scraper are decoupled exactly like a
//! real crawler and the sites it visits. The subset covers what the
//! pipeline needs: title, headings, paragraphs, anchors, and images with
//! `alt`-less embedded text (which a text scraper cannot see — one of the
//! paper's documented failure modes).
//!
//! There is one parser, [`spans`]: it finds each element in place and
//! borrows its still-escaped text. The scraper writes those spans straight
//! into its output; [`Page::parse`] is the owned wrapper that unescapes and
//! copies them.

use std::borrow::Cow;

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
        let title = [self.title.as_str()];
        let mut out = String::with_capacity(frame_len(&title) + self.body_len());
        push_head(&mut out, &title);
        self.push_body(&mut out);
        out.push_str(TAIL);
        out
    }

    /// Append the headings, paragraphs, links and baked images, in that
    /// order.
    fn push_body(&self, out: &mut String) {
        for h in &self.headings {
            Element::Heading.push(out, h);
        }
        for p in &self.paragraphs {
            Element::Paragraph.push(out, p);
        }
        for l in &self.links {
            out.push_str("<a href=\"");
            push_escaped(out, &l.href);
            out.push_str("\">");
            push_escaped(out, &l.text);
            out.push_str("</a>");
        }
        for t in &self.image_text {
            Element::BakedImage.push(out, t);
        }
    }

    /// The byte length of [`Page::push_body`]'s output: the tags plus
    /// every field's escaped length.
    fn body_len(&self) -> usize {
        const LINK: usize = "<a href=\"\"></a>".len();
        let fields = |element: Element, items: &[String]| {
            items.iter().map(|s| element.len(s)).sum::<usize>()
        };
        fields(Element::Heading, &self.headings)
            + fields(Element::Paragraph, &self.paragraphs)
            + self
                .links
                .iter()
                .map(|l| LINK + escaped_len(&l.href) + escaped_len(&l.text))
                .sum::<usize>()
            + fields(Element::BakedImage, &self.image_text)
    }

    /// Parse markup produced by [`Page::render`] (or anything structurally
    /// similar) into an owned page: [`spans`], each unescaped and copied.
    /// Unknown tags are skipped; the parser never panics.
    pub fn parse(markup: &str) -> Page {
        let mut page = Page::default();
        for span in spans(markup) {
            match span {
                Span::Title(t) => page.title = unescape(t).into_owned(),
                Span::Heading(t) => page.headings.push(unescape(t).into_owned()),
                Span::Paragraph(t) => page.paragraphs.push(unescape(t).into_owned()),
                Span::Link { href, text } => page.links.push(Link {
                    href: unescape(href).into_owned(),
                    text: unescape(text).into_owned(),
                }),
                Span::Image(t) => page.image_text.push(unescape(t).into_owned()),
            }
        }
        page
    }
}

/// One element [`spans`] finds, its text borrowed from the markup and
/// still escaped (`&amp;`, `&lt;`, `&gt;`, `&quot;`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span<'a> {
    /// A `<title>`'s text. A page's title is its last one.
    Title(&'a str),
    /// An `<h1>` or `<h2>`'s text.
    Heading(&'a str),
    /// A `<p>`'s text.
    Paragraph(&'a str),
    /// An `<a>`: its `href` value (empty when it has none) and its anchor.
    Link {
        /// The `href` attribute's value.
        href: &'a str,
        /// The anchor text.
        text: &'a str,
    },
    /// An `<img>`'s `data-baked` value: text invisible to a scraper.
    Image(&'a str),
}

/// The elements of `markup` in document order, without copying any text.
///
/// One left-to-right pass: an element's text runs from its open tag to
/// the next `<`, and the element is kept only when that `<` starts its
/// close tag (matched ignoring ASCII case).
pub fn spans(markup: &str) -> Spans<'_> {
    Spans { rest: markup }
}

/// The iterator [`spans`] returns.
#[derive(Debug, Clone)]
pub struct Spans<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Spans<'a> {
    type Item = Span<'a>;

    fn next(&mut self) -> Option<Span<'a>> {
        while let Some(start) = find_byte(self.rest, b'<') {
            let rest = &self.rest[start + 1..];
            let Some(end) = find_byte(rest, b'>') else {
                break;
            };
            let tag = &rest[..end];
            self.rest = &rest[end + 1..];
            let (name, attrs) = tag.split_once(char::is_whitespace).unwrap_or((tag, ""));
            let is = |n: &str| name.eq_ignore_ascii_case(n);
            // The close tag, and how to make the span of the text before it
            // from that text and the open tag's attributes.
            type Make<'a> = fn(&'a str, &'a str) -> Span<'a>;
            let (close, make): (&str, Make<'a>) = if is("title") {
                ("</title>", |text, _| Span::Title(text))
            } else if is("h1") {
                ("</h1>", |text, _| Span::Heading(text))
            } else if is("h2") {
                ("</h2>", |text, _| Span::Heading(text))
            } else if is("p") {
                ("</p>", |text, _| Span::Paragraph(text))
            } else if is("a") {
                ("</a>", |text, attrs| Span::Link {
                    href: attr_value(attrs, "href").unwrap_or_default(),
                    text,
                })
            } else {
                if is("img") {
                    if let Some(baked) = attr_value(attrs, "data-baked") {
                        return Some(Span::Image(baked));
                    }
                }
                continue;
            };
            if let Some((text, after)) = read_text_until(self.rest, close) {
                self.rest = after;
                return Some(make(text, attrs));
            }
        }
        self.rest = "";
        None
    }
}

/// The text of the last `<title>` of `markup`, unescaped; empty when it
/// has none (what [`Page::parse`] gives as `title`).
pub fn title(markup: &str) -> Cow<'_, str> {
    let last = spans(markup)
        .filter_map(|s| match s {
            Span::Title(t) => Some(t),
            _ => None,
        })
        .last();
    unescape(last.unwrap_or_default())
}

/// The markup before a page's title, between its title and its body, and
/// after its body.
const HEAD: &str = "<html><head><title>";
const BODY: &str = "</title></head><body>";
const TAIL: &str = "</body></html>";

/// The byte length of a page's frame around its body: the fixed tags plus
/// the escaped title, given in `title` as parts to concatenate.
fn frame_len(title: &[&str]) -> usize {
    HEAD.len() + title.iter().map(|t| escaped_len(t)).sum::<usize>() + BODY.len() + TAIL.len()
}

/// Append the markup up to the body: the head with the concatenated
/// `title` parts escaped (escaping works byte by byte, so the parts can be
/// escaped one at a time).
fn push_head(out: &mut String, title: &[&str]) {
    out.push_str(HEAD);
    for part in title {
        push_escaped(out, part);
    }
    out.push_str(BODY);
}

/// The markup of a page titled with the concatenated `title` parts whose
/// body is one `lead` element holding `text`, then `block`, body elements
/// rendered beforehand. Byte-equal to [`Page::render`] of the page with
/// that title, lead element and the block's elements, in one exactly
/// sized buffer. The site generator renders the body a site's internal
/// pages share once and passes it to each of them as `block`.
pub(crate) fn render_page(title: &[&str], lead: Element, text: &str, block: &str) -> String {
    let mut out = String::with_capacity(frame_len(title) + lead.len(text) + block.len());
    push_head(&mut out, title);
    lead.push(&mut out, text);
    out.push_str(block);
    out.push_str(TAIL);
    out
}

/// A body element holding one escaped text: how [`Page::render`] writes
/// a heading, a paragraph or a baked image.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Element {
    /// `<h1>…</h1>`.
    Heading,
    /// `<p>…</p>`.
    Paragraph,
    /// Text baked into a bitmap: modeled as a data-image whose content
    /// never appears as element text.
    BakedImage,
}

impl Element {
    /// The markup before and after the text.
    fn tags(self) -> (&'static str, &'static str) {
        match self {
            Element::Heading => ("<h1>", "</h1>"),
            Element::Paragraph => ("<p>", "</p>"),
            Element::BakedImage => ("<img data-baked=\"", "\"/>"),
        }
    }

    /// Append this element holding `text`, escaped.
    pub(crate) fn push(self, out: &mut String, text: &str) {
        let (open, close) = self.tags();
        out.push_str(open);
        push_escaped(out, text);
        out.push_str(close);
    }

    /// The byte length of what [`Element::push`] appends for `text`.
    fn len(self, text: &str) -> usize {
        let (open, close) = self.tags();
        open.len() + escaped_len(text) + close.len()
    }
}

/// The element text before `close` and the input after it, when the first
/// `<` in `input` starts `close` (ignoring ASCII case). Any other tag before
/// the close tag means this element was never properly closed: it is
/// treated as malformed, and the outer loop re-scans from the intervening
/// tag instead of swallowing it.
fn read_text_until<'a>(input: &'a str, close: &str) -> Option<(&'a str, &'a str)> {
    let pos = find_byte(input, b'<')?;
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
    let end = find_byte(after, b'"')?;
    Some(&after[..end])
}

/// The index of the first `needle` in `s`, an ASCII byte, so the index
/// is a char boundary. Markup is searched from tag to tag, a few dozen
/// bytes at a time, so the search tests eight bytes per step with no
/// set-up: `x - 0x01…01 & !x & 0x80…80` flags the zero bytes of `x` (the
/// bytes equal to `needle` once xored with it), and only bytes above a
/// flagged one can be flagged falsely, so the lowest flag is exact.
fn find_byte(s: &str, needle: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let bytes = s.as_bytes();
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x =
            u64::from_le_bytes(chunk.try_into().expect("eight bytes")) ^ (ONES * u64::from(needle));
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i + zeros.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    bytes[i..].iter().position(|&b| b == needle).map(|p| i + p)
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

/// Whether `b` is one of the escaped bytes `&`, `<`, `>` and `"`. Setting
/// bit 1 maps `<` and `>` alike to `>`, and setting bit 2 maps `"` and `&`
/// alike to `&`, so two comparisons cover the four.
fn is_escaped(b: u8) -> bool {
    b | 2 == b'>' || b | 4 == b'&'
}

/// Whether `s` holds no escaped byte, tested eight bytes at a time with
/// [`is_escaped`]'s two comparisons done on every byte of a word at once.
/// Nearly all text has nothing to escape, and then this one scan is all
/// escaping costs.
fn nothing_to_escape(s: &str) -> bool {
    const fn splat(b: u8) -> u64 {
        u64::from_ne_bytes([b; 8])
    }
    /// The high bit of every zero byte of `v`, exactly: the low seven bits
    /// of a byte are added without carrying into the next byte.
    fn zero_bytes(v: u64) -> u64 {
        !(((v & splat(0x7F)) + splat(0x7F)) | v | splat(0x7F))
    }
    let mut chunks = s.as_bytes().chunks_exact(8);
    let mut found = 0;
    for chunk in &mut chunks {
        let x = u64::from_ne_bytes(chunk.try_into().expect("eight bytes"));
        found |=
            zero_bytes((x | splat(2)) ^ splat(b'>')) | zero_bytes((x | splat(4)) ^ splat(b'&'));
    }
    found == 0 && !chunks.remainder().iter().any(|&b| is_escaped(b))
}

/// The length of `s` once escaped: each escaped byte becomes its entity.
fn escaped_len(s: &str) -> usize {
    if nothing_to_escape(s) {
        return s.len();
    }
    s.len()
        + s.bytes()
            .filter_map(entity)
            .map(|e| e.len() - 1)
            .sum::<usize>()
}

/// Append `s` to `out` with `&`, `<`, `>` and `"` escaped: text with
/// nothing to escape in one piece, other text in the runs between
/// escaped bytes.
fn push_escaped(out: &mut String, s: &str) {
    if nothing_to_escape(s) {
        out.push_str(s);
        return;
    }
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

/// Undo [`push_escaped`]: text without an `&` is borrowed as is.
pub(crate) fn unescape(s: &str) -> Cow<'_, str> {
    if find_byte(s, b'&').is_none() {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    push_unescaped(&mut out, s);
    Cow::Owned(out)
}

/// Append `s` to `out` with `&quot;`, `&gt;`, `&lt;` and `&amp;` decoded.
/// Each entity runs from an `&` to the next `;` with no `&` inside, so
/// entities never overlap and one left-to-right pass decodes them all;
/// a decoded `&` never starts another entity (`&amp;lt;` is `&lt;`).
pub(crate) fn push_unescaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = find_byte(rest, b'&') {
        out.push_str(&rest[..at]);
        let tail = &rest[at..];
        let decoded = [
            ("&quot;", '"'),
            ("&gt;", '>'),
            ("&lt;", '<'),
            ("&amp;", '&'),
        ]
        .into_iter()
        .find(|(entity, _)| tail.starts_with(entity));
        match decoded {
            Some((entity, c)) => {
                out.push(c);
                rest = &tail[entity.len()..];
            }
            None => {
                out.push('&');
                rest = &tail[1..];
            }
        }
    }
    out.push_str(rest);
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
    fn spans_borrow_escaped_text_in_document_order() {
        let markup = "<p>a &amp; b</p><title>T</title><A HREF=\"/x\">go</a><img data-baked=\"i\"/>";
        let got: Vec<Span> = spans(markup).collect();
        assert_eq!(
            got,
            vec![
                Span::Paragraph("a &amp; b"),
                Span::Title("T"),
                Span::Link {
                    href: "/x",
                    text: "go"
                },
                Span::Image("i"),
            ]
        );
        assert_eq!(title("<title>a</title><title>b &lt; c</title>"), "b < c");
        assert_eq!(title("<p>x</p>"), "");
    }

    #[test]
    fn unescape_borrows_text_without_entities() {
        assert!(matches!(unescape("plain text"), Cow::Borrowed(_)));
        assert_eq!(
            unescape("&amp;lt; &quot;x&quot; &gt &amp"),
            "&lt; \"x\" &gt &amp"
        );
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
