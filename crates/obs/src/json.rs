//! The JSON the workspace writes: strings, unsigned integers, arrays and
//! objects.
//!
//! The writer emits the bytes `serde_json` does for those shapes (compact,
//! or pretty with two-space indents); the released dataset format and the
//! metrics snapshot are pinned to them. Nothing in the workspace reads
//! JSON back.

/// A JSON value in the workspace's subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A non-negative integer that fits a `u64`.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members written in order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An array of strings.
    pub fn strings<S: Into<String>>(items: impl IntoIterator<Item = S>) -> Value {
        Value::Arr(items.into_iter().map(|s| Value::Str(s.into())).collect())
    }

    /// Compact text, no whitespace: `{"a":[1,"x"]}`.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty text: one member per line, two-space indents, `{}` and `[]`
    /// for empty containers, no trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, indent, '[', ']', items, |out, v, ind| {
                v.write(out, ind)
            }),
            Value::Obj(members) => write_seq(out, indent, '{', '}', members, |out, (k, v), ind| {
                write_str(out, k);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.write(out, ind);
            }),
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    if items.is_empty() {
        out.push(close);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(out, item, inner);
    }
    newline(out, indent);
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

/// Append `s` as a JSON string literal, escaped as `serde_json` does:
/// `"` and `\`, the short forms `\b \f \n \r \t`, other control chars as
/// `\u00xx`; everything else, non-ASCII included, as is.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(members: &[(&str, Value)]) -> Value {
        Value::Obj(
            members
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let v = obj(&[
            ("a", Value::Num(1)),
            ("b", Value::strings(["x", "y"])),
            ("e", Value::Arr(vec![])),
            ("o", obj(&[])),
        ]);
        assert_eq!(v.to_compact(), r#"{"a":1,"b":["x","y"],"e":[],"o":{}}"#);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\",\n    \"y\"\n  ],\n  \"e\": [],\n  \"o\": {}\n}"
        );
    }

    /// Known answers: what `serde_json` writes for every control char,
    /// the two escaped printable chars, DEL and non-ASCII.
    #[test]
    fn strings_escape_like_serde_json() {
        const CONTROL: [&str; 32] = [
            "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
            "\\b", "\\t", "\\n", "\\u000b", "\\f", "\\r", "\\u000e", "\\u000f", "\\u0010",
            "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
            "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
        ];
        let written = |s: &str| {
            let mut out = String::new();
            write_str(&mut out, s);
            out
        };
        for (byte, want) in (0u8..).zip(CONTROL) {
            assert_eq!(
                written(&char::from(byte).to_string()),
                format!("\"{want}\"")
            );
        }
        for (s, want) in [
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\u{7f}", "\"\u{7f}\""),
            ("é/😀 ~", "\"é/😀 ~\""),
            ("", "\"\""),
        ] {
            assert_eq!(written(s), want, "{s:?}");
        }
        assert_eq!(
            written("q\"b\\n\n\t\r\u{8}\u{c}\u{1}\u{1f}\u{7f}é/😀"),
            "\"q\\\"b\\\\n\\n\\t\\r\\b\\f\\u0001\\u001f\u{7f}é/😀\""
        );
    }
}
