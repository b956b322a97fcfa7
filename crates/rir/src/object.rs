//! The RPSL-style attribute/value object model.
//!
//! All five RIRs publish WHOIS as sequences of objects: blocks of
//! `attribute: value` lines separated by blank lines. Attribute names and
//! available fields differ per registry (see [`crate::dialect`]); this
//! module is the registry-agnostic core.

use asdb_model::{Asn, Rir};
use std::fmt;

/// One attribute line of an RPSL object. Attributes may repeat within an
/// object (e.g. multiple `address:` or `remarks:` lines) and order matters,
/// so objects store a `Vec<Attr>` rather than a map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Attribute name, stored lower-cased without the trailing colon.
    pub name: String,
    /// Attribute value with continuation lines joined by a single space.
    pub value: String,
}

impl Attr {
    /// Build an attribute, normalizing the name to lower case.
    pub fn new(name: &str, value: &str) -> Attr {
        Attr {
            name: name.trim().to_ascii_lowercase(),
            value: value.trim().to_owned(),
        }
    }
}

/// One RPSL object: the first attribute determines the object class
/// (`aut-num`, `organisation`, `role`, …).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RpslObject {
    /// Attributes in original order.
    pub attrs: Vec<Attr>,
}

impl RpslObject {
    /// Empty object.
    pub fn new() -> RpslObject {
        RpslObject::default()
    }

    /// Append an attribute.
    pub fn push(&mut self, name: &str, value: &str) {
        self.attrs.push(Attr::new(name, value));
    }

    /// Builder-style append.
    pub fn with(mut self, name: &str, value: &str) -> RpslObject {
        self.push(name, value);
        self
    }

    /// The object class: the name of the first attribute, or `""` for an
    /// empty object.
    pub fn class(&self) -> &str {
        self.attrs.first().map(|a| a.name.as_str()).unwrap_or("")
    }

    /// First value of the named attribute, if present.
    pub fn first(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.attrs
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// All values of the named attribute, in order.
    pub fn all(&self, name: &str) -> Vec<&str> {
        let name = name.to_ascii_lowercase();
        self.attrs
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.value.as_str())
            .collect()
    }

    /// Whether the object has the named attribute.
    pub fn has(&self, name: &str) -> bool {
        self.first(name).is_some()
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

impl fmt::Display for RpslObject {
    /// Serialize in canonical RPSL layout: `name:` padded to 16 columns.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.attrs {
            writeln!(f, "{:<15} {}", format!("{}:", a.name), a.value)?;
        }
        Ok(())
    }
}

/// All WHOIS objects describing one AS registration at one registry:
/// the `aut-num` object plus any connected `organisation` and contact
/// (`role`/`person`/`POC`) objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhoisRecord {
    /// The registry this record came from.
    pub rir: Rir,
    /// The AS number (parsed from the `aut-num`/`asnumber` attribute).
    pub asn: Asn,
    /// The objects, `aut-num` first.
    pub objects: Vec<RpslObject>,
}

impl WhoisRecord {
    /// The organisation object, if any.
    pub fn organisation(&self) -> Option<&RpslObject> {
        self.objects
            .iter()
            .find(|o| matches!(o.class(), "organisation" | "org" | "orgname"))
    }

    /// Contact objects (role/person/poc).
    pub fn contacts(&self) -> impl Iterator<Item = &RpslObject> {
        self.objects
            .iter()
            .filter(|o| matches!(o.class(), "role" | "person" | "poc"))
    }

    /// First value of an attribute searched across all objects,
    /// `aut-num` first.
    pub fn first(&self, name: &str) -> Option<&str> {
        self.objects.iter().find_map(|o| o.first(name))
    }

    /// All values of an attribute across all objects.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.objects.iter().flat_map(|o| o.all(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RpslObject {
        RpslObject::new()
            .with("aut-num", "AS3356")
            .with("as-name", "LEVEL3")
            .with("remarks", "first remark")
            .with("remarks", "second remark")
    }

    #[test]
    fn class_is_first_attr() {
        assert_eq!(sample().class(), "aut-num");
        assert_eq!(RpslObject::new().class(), "");
    }

    #[test]
    fn first_and_all() {
        let o = sample();
        assert_eq!(o.first("as-name"), Some("LEVEL3"));
        assert_eq!(
            o.first("AS-NAME"),
            Some("LEVEL3"),
            "lookup is case-insensitive"
        );
        assert_eq!(o.all("remarks"), vec!["first remark", "second remark"]);
        assert!(o.first("mnt-by").is_none());
        assert!(o.has("remarks"));
    }

    #[test]
    fn display_is_rpsl_shaped() {
        let text = sample().to_string();
        assert!(text.starts_with("aut-num:        AS3356\n"));
        assert!(text.contains("as-name:        LEVEL3"));
    }

    #[test]
    fn record_navigation() {
        let rec = WhoisRecord {
            rir: Rir::Ripe,
            asn: Asn::new(3356),
            objects: vec![
                sample(),
                RpslObject::new()
                    .with("organisation", "ORG-L1")
                    .with("org-name", "Level 3 Communications"),
                RpslObject::new()
                    .with("role", "NOC")
                    .with("abuse-mailbox", "abuse@level3.com"),
            ],
        };
        assert_eq!(rec.objects[0].class(), "aut-num");
        assert_eq!(
            rec.organisation().unwrap().first("org-name"),
            Some("Level 3 Communications")
        );
        assert_eq!(rec.contacts().count(), 1);
        assert_eq!(rec.first("abuse-mailbox"), Some("abuse@level3.com"));
        assert_eq!(rec.all("remarks").len(), 2);
    }
}
