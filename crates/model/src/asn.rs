//! Autonomous System Numbers.

use crate::error::{clip, ModelError};
use std::fmt;
use std::str::FromStr;

/// A 32-bit Autonomous System Number (RFC 6793).
///
/// `Asn` is an ordered, hashable, copyable newtype. It parses both the bare
/// decimal form (`"3356"`) and the canonical `AS`-prefixed form (`"AS3356"`,
/// case-insensitive, optional whitespace), which is what appears in RIR
/// WHOIS `aut-num:` attributes.
///
/// ```
/// use asdb_model::Asn;
/// let a: Asn = "AS3356".parse().unwrap();
/// assert_eq!(a, Asn::new(3356));
/// assert_eq!(a.to_string(), "AS3356");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(u32);

impl Asn {
    /// Wrap a raw 32-bit AS number.
    pub const fn new(value: u32) -> Self {
        Asn(value)
    }

    /// The raw numeric value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl FromStr for Asn {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let digits = t
            .strip_prefix("AS")
            .or_else(|| t.strip_prefix("as"))
            .or_else(|| t.strip_prefix("As"))
            .or_else(|| t.strip_prefix("aS"))
            .unwrap_or(t)
            .trim();
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ModelError::InvalidAsn { input: clip(s) });
        }
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| ModelError::InvalidAsn { input: clip(s) })
    }
}

impl From<u32> for Asn {
    fn from(value: u32) -> Self {
        Asn(value)
    }
}

/// A contiguous, inclusive range of ASNs, as allocated to RIRs by IANA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsnRange {
    /// First ASN in the range (inclusive).
    pub start: Asn,
    /// Last ASN in the range (inclusive).
    pub end: Asn,
}

impl AsnRange {
    /// Build a range; panics if `start > end` (programmer error).
    pub fn new(start: Asn, end: Asn) -> Self {
        assert!(start <= end, "AsnRange start must be <= end");
        AsnRange { start, end }
    }

    /// Whether the range contains `asn`.
    pub fn contains(&self, asn: Asn) -> bool {
        self.start <= asn && asn <= self.end
    }

    /// Number of ASNs in the range.
    pub fn len(&self) -> u64 {
        u64::from(self.end.value()) - u64::from(self.start.value()) + 1
    }

    /// Whether the range is empty (never true by construction, kept for
    /// API symmetry with std ranges).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate the ASNs in the range.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        (self.start.value()..=self.end.value()).map(Asn::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, CASES};
    use rand::Rng;

    #[test]
    fn parses_bare_and_prefixed() {
        assert_eq!("3356".parse::<Asn>().unwrap(), Asn::new(3356));
        assert_eq!("AS3356".parse::<Asn>().unwrap(), Asn::new(3356));
        assert_eq!("as3356".parse::<Asn>().unwrap(), Asn::new(3356));
        assert_eq!(" AS 3356 ".parse::<Asn>().unwrap(), Asn::new(3356));
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Asn>().is_err());
        assert!("AS".parse::<Asn>().is_err());
        assert!("AS-1".parse::<Asn>().is_err());
        assert!("ASdeadbeef".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err()); // > u32::MAX
    }

    #[test]
    fn range_contains_and_len() {
        let r = AsnRange::new(Asn::new(10), Asn::new(20));
        assert!(r.contains(Asn::new(10)));
        assert!(r.contains(Asn::new(20)));
        assert!(!r.contains(Asn::new(21)));
        assert_eq!(r.len(), 11);
        assert_eq!(r.iter().count(), 11);
    }

    #[test]
    #[should_panic(expected = "start must be <= end")]
    fn range_rejects_inverted() {
        let _ = AsnRange::new(Asn::new(2), Asn::new(1));
    }

    #[test]
    fn display_parse_roundtrip() {
        check::cases(
            CASES,
            |rng| rng.next_u32(),
            |v| {
                let a = Asn::new(v);
                let parsed: Asn = a.to_string().parse().unwrap();
                assert_eq!(a, parsed);
            },
        );
    }
}
