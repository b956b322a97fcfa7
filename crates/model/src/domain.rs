//! DNS domains, URLs, and email addresses.
//!
//! These are deliberately *lenient-but-validated* types: WHOIS data is messy,
//! so the parsers accept anything structurally plausible (what the paper's
//! regex-based extraction would accept) while normalizing case and trimming
//! decoration like trailing dots and `mailto:` prefixes.

use crate::error::{clip, ModelError};
use std::fmt;
use std::str::FromStr;

/// Well-known public email/hosting suffixes that never identify an
/// organization. The paper's §5.1 domain-extraction algorithm strips "a
/// hand-curated list of the top 10 email domains (e.g., Gmail)".
pub const PUBLIC_EMAIL_DOMAINS: [&str; 10] = [
    "gmail.com",
    "yahoo.com",
    "hotmail.com",
    "outlook.com",
    "aol.com",
    "icloud.com",
    "mail.ru",
    "qq.com",
    "163.com",
    "protonmail.com",
];

/// A validated, lower-cased DNS domain name (e.g. `example.com`).
///
/// Validation rules (a practical subset of RFC 1035 as applied to the
/// registrable names found in WHOIS records):
/// * 1–253 bytes total, at least two labels,
/// * labels are 1–63 bytes of `[a-z0-9-]`, not starting/ending with `-`,
/// * the final label (TLD) is alphabetic and ≥ 2 bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Domain(String);

impl Domain {
    /// Parse and normalize a domain.
    pub fn new(input: &str) -> Result<Self, ModelError> {
        let lowered = input.trim().trim_end_matches('.').to_ascii_lowercase();
        let err = |reason: &'static str| ModelError::InvalidDomain {
            input: clip(input),
            reason,
        };
        if lowered.is_empty() {
            return Err(err("empty"));
        }
        if lowered.len() > 253 {
            return Err(err("longer than 253 bytes"));
        }
        let labels: Vec<&str> = lowered.split('.').collect();
        if labels.len() < 2 {
            return Err(err("needs at least two labels"));
        }
        for label in &labels {
            if label.is_empty() || label.len() > 63 {
                return Err(err("label length out of range"));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            {
                return Err(err("label has invalid character"));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(err("label starts or ends with hyphen"));
            }
        }
        let tld = labels.last().expect("checked non-empty");
        if tld.len() < 2 || !tld.bytes().all(|b| b.is_ascii_lowercase()) {
            return Err(err("TLD must be alphabetic and >= 2 chars"));
        }
        Ok(Domain(lowered))
    }

    /// The normalized name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The registrable (eTLD+1-ish) suffix: the last two labels. Real
    /// public-suffix handling needs the PSL; two labels is the approximation
    /// the paper's matching heuristics effectively use.
    pub fn registrable(&self) -> Domain {
        let labels: Vec<&str> = self.0.split('.').collect();
        if labels.len() <= 2 {
            self.clone()
        } else {
            Domain(labels[labels.len() - 2..].join("."))
        }
    }

    /// Whether this is one of the hand-curated public email domains the
    /// ASdb domain-extraction algorithm strips (§5.1 step 2).
    pub fn is_public_email_domain(&self) -> bool {
        PUBLIC_EMAIL_DOMAINS.contains(&self.registrable().as_str())
    }

    /// The top-level domain (final label).
    pub fn tld(&self) -> &str {
        self.0.rsplit('.').next().expect("validated")
    }

    /// The leftmost label (e.g. the `www` of `www.example.com`).
    pub fn leftmost_label(&self) -> &str {
        self.0.split('.').next().expect("validated")
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for Domain {
    type Err = ModelError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Domain::new(s)
    }
}

/// A validated email address, split into local part and [`Domain`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Email {
    /// Local part, lower-cased.
    pub local: String,
    /// Mail domain.
    pub domain: Domain,
}

impl Email {
    /// Parse an email, tolerating a `mailto:` prefix and surrounding angle
    /// brackets as found in WHOIS contact attributes.
    pub fn new(input: &str) -> Result<Self, ModelError> {
        let trimmed = input
            .trim()
            .trim_start_matches("mailto:")
            .trim_start_matches('<')
            .trim_end_matches('>')
            .trim();
        let (local, dom) = trimmed
            .split_once('@')
            .ok_or_else(|| ModelError::InvalidEmail { input: clip(input) })?;
        let local = local.trim().to_ascii_lowercase();
        if local.is_empty()
            || local.len() > 64
            || !local
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b'+'))
        {
            return Err(ModelError::InvalidEmail { input: clip(input) });
        }
        let domain =
            Domain::new(dom).map_err(|_| ModelError::InvalidEmail { input: clip(input) })?;
        Ok(Email { local, domain })
    }
}

impl fmt::Display for Email {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.local, self.domain)
    }
}

impl FromStr for Email {
    type Err = ModelError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Email::new(s)
    }
}

/// URL scheme supported by the simulated web.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain HTTP.
    Http,
    /// HTTP over TLS.
    Https,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        })
    }
}

/// A minimal absolute URL: scheme, host domain, and path.
///
/// Query strings and fragments are dropped on parse — the scraper never
/// needs them and WHOIS remark URLs rarely carry meaningful ones.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Url {
    /// Scheme (`Ord` on Url sorts https after http; irrelevant in practice).
    pub scheme: UrlScheme,
    /// Host domain.
    pub host: Domain,
    /// Path, always starting with `/`.
    pub path: String,
}

/// Ord-friendly alias kept separate from [`Scheme`] so `Url` derives
/// `Ord` without a manual impl.
pub type UrlScheme = Scheme;

impl Ord for Scheme {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for Scheme {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Url {
    /// Build a URL for a host's root page.
    pub fn root(host: Domain) -> Self {
        Url {
            scheme: Scheme::Https,
            host,
            path: "/".to_owned(),
        }
    }

    /// Parse an absolute URL.
    pub fn parse(input: &str) -> Result<Self, ModelError> {
        let t = input.trim();
        let err = |reason: &'static str| ModelError::InvalidUrl {
            input: clip(input),
            reason,
        };
        let (scheme, rest) = if let Some(r) = t.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = t.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return Err(err("missing http(s) scheme"));
        };
        let (host_part, path_part) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        // Strip port and userinfo decoration, drop query/fragment.
        let host_part = host_part.rsplit('@').next().unwrap_or(host_part);
        let host_part = host_part.split(':').next().unwrap_or(host_part);
        let host = Domain::new(host_part).map_err(|_| err("invalid host"))?;
        let path = path_part.split(['?', '#']).next().unwrap_or("/").to_owned();
        Ok(Url { scheme, host, path })
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)
    }
}

impl FromStr for Url {
    type Err = ModelError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, any_string, class_string, CASES};

    #[test]
    fn domain_normalizes() {
        let d = Domain::new(" WWW.Example.COM. ").unwrap();
        assert_eq!(d.as_str(), "www.example.com");
        assert_eq!(d.registrable().as_str(), "example.com");
        assert_eq!(d.tld(), "com");
        assert_eq!(d.leftmost_label(), "www");
    }

    #[test]
    fn domain_rejects_invalid() {
        for bad in [
            "",
            "com",
            ".",
            "a..b",
            "-a.com",
            "a-.com",
            "a.c",
            "exa mple.com",
            "a.123",
        ] {
            assert!(Domain::new(bad).is_err(), "{bad:?} should be rejected");
        }
        let long_label = format!("{}.com", "a".repeat(64));
        assert!(Domain::new(&long_label).is_err());
        let too_long = format!("{}.com", "a.".repeat(130));
        assert!(Domain::new(&too_long).is_err());
    }

    #[test]
    fn public_email_domains_detected() {
        assert!(Domain::new("gmail.com").unwrap().is_public_email_domain());
        assert!(Domain::new("mail.gmail.com")
            .unwrap()
            .is_public_email_domain());
        assert!(!Domain::new("example.com").unwrap().is_public_email_domain());
    }

    #[test]
    fn email_parses_decorated_forms() {
        let e = Email::new("mailto:<NOC@Example.COM>").unwrap();
        assert_eq!(e.local, "noc");
        assert_eq!(e.domain.as_str(), "example.com");
        assert_eq!(e.to_string(), "noc@example.com");
    }

    #[test]
    fn email_rejects_invalid() {
        for bad in ["", "noat", "@x.com", "a@", "a b@x.com", "a@bad_domain"] {
            assert!(Email::new(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn url_parses_and_normalizes() {
        let u = Url::parse("HTTP is not a prefix").unwrap_err();
        assert!(matches!(u, ModelError::InvalidUrl { .. }));
        let u = Url::parse("https://Example.com:8443/a/b?q=1#frag").unwrap();
        assert_eq!(u.host.as_str(), "example.com");
        assert_eq!(u.path, "/a/b");
        assert_eq!(u.scheme, Scheme::Https);
        let bare = Url::parse("http://example.com").unwrap();
        assert_eq!(bare.path, "/");
        assert_eq!(bare.to_string(), "http://example.com/");
        let root = Url::root(Domain::new("example.com").unwrap());
        assert_eq!(root.to_string(), "https://example.com/");
    }

    #[test]
    fn valid_domains_roundtrip() {
        check::cases(
            CASES,
            |rng| {
                let label = |rng: &mut _| {
                    class_string(rng, "a-z", 1..=1) + &class_string(rng, "a-z0-9", 0..=20)
                };
                (label(rng), label(rng), class_string(rng, "a-z", 2..=6))
            },
            |(l1, l2, tld)| {
                let s = format!("{l1}.{l2}.{tld}");
                let d = Domain::new(&s).unwrap();
                assert_eq!(d.as_str(), s.as_str());
                let d2: Domain = d.to_string().parse().unwrap();
                assert_eq!(d, d2);
            },
        );
    }

    #[test]
    fn domain_parse_never_panics() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=300),
            |s| {
                let _ = Domain::new(&s);
            },
        );
    }

    #[test]
    fn url_parse_never_panics() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=300),
            |s| {
                let _ = Url::parse(&s);
            },
        );
    }

    #[test]
    fn email_parse_never_panics() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=300),
            |s| {
                let _ = Email::new(&s);
            },
        );
    }
}
