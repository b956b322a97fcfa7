//! # asdb-sources
//!
//! Simulated external data sources — the seven services the paper evaluates
//! (Table 1) behind one [`DataSource`] trait:
//!
//! | source | searchable by | labels | implemented in |
//! |---|---|---|---|
//! | Dun & Bradstreet | name, address, phone, domain | NAICS + confidence code | [`dnb`] |
//! | Crunchbase | name, domain | custom scheme | [`crunchbase`] |
//! | ZoomInfo | name, domain | NAICS | [`zoominfo`] |
//! | Clearbit | domain | 2-digit NAICS + tags | [`clearbit`] |
//! | Zvelo | domain | custom scheme (website classifier) | [`zvelo`] |
//! | PeeringDB | ASN | 6 network types | [`peeringdb`] |
//! | IPinfo | ASN | 4 types | [`ipinfo`] |
//!
//! Each source is *built over the synthetic world*: at construction it
//! decides which organizations it covers and what label its editors /
//! classifiers assigned, using noise profiles calibrated to the paper's
//! §3 measurements ([`profile`]). Queries then run through real search
//! mechanics (name similarity, domain indexes, confidence scoring), so the
//! entity-resolution error the paper measures in Table 5 and Figure 2
//! *emerges* from the machinery rather than being scripted.
//!
//! The trait exposes both access protocols the paper uses:
//! [`DataSource::lookup_org`] models the researchers' *manual, verified*
//! lookups (§3.2: "we ask researchers to manually look up ASes … to ensure
//! that the correct data source entry is found"), while
//! [`DataSource::search`] is the automated bulk protocol (§3.5) with all
//! its mismatch risk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clearbit;
pub mod crunchbase;
pub mod dnb;
pub mod ipinfo;
pub mod peeringdb;
pub mod profile;
pub mod registry;
pub mod transport;
pub mod zoominfo;
pub mod zvelo;

pub use transport::{NetworkSim, OutcomeKind, SourceOutcome};

use asdb_model::{Asn, ConfidenceCode, Domain, OrgId};
use asdb_taxonomy::CategorySet;
use std::fmt;

/// Identifies one of the seven external sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum SourceId {
    Dnb,
    Crunchbase,
    ZoomInfo,
    Clearbit,
    Zvelo,
    PeeringDb,
    Ipinfo,
}

impl SourceId {
    /// All seven, in Table 1 order.
    pub const ALL: [SourceId; 7] = [
        SourceId::Dnb,
        SourceId::Crunchbase,
        SourceId::ZoomInfo,
        SourceId::Clearbit,
        SourceId::Zvelo,
        SourceId::PeeringDb,
        SourceId::Ipinfo,
    ];

    /// The five sources ASdb ships with ("ASdb uses D&B, Crunchbase,
    /// PeeringDB, IPinfo, and Zvelo", Table 1 caption).
    pub const ASDB_FIVE: [SourceId; 5] = [
        SourceId::Dnb,
        SourceId::Crunchbase,
        SourceId::Zvelo,
        SourceId::PeeringDb,
        SourceId::Ipinfo,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SourceId::Dnb => "D&B",
            SourceId::Crunchbase => "Crunchbase",
            SourceId::ZoomInfo => "ZoomInfo",
            SourceId::Clearbit => "Clearbit",
            SourceId::Zvelo => "Zvelo",
            SourceId::PeeringDb => "PeeringDB",
            SourceId::Ipinfo => "IPinfo",
        }
    }

    /// The §5.1 auto-choose accuracy rank: "IPinfo (96% accuracy), DnB
    /// (96%), PeeringDB (95%), Zvelo (88%), Crunchbase (83%)". Higher wins.
    pub fn accuracy_rank(self) -> f64 {
        match self {
            SourceId::Ipinfo => 0.96,
            SourceId::Dnb => 0.959, // tie-broken just below IPinfo
            SourceId::PeeringDb => 0.95,
            SourceId::Zvelo => 0.88,
            SourceId::Crunchbase => 0.83,
            SourceId::ZoomInfo => 0.66,
            SourceId::Clearbit => 0.55,
        }
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A query against a data source — assembled by the pipeline from WHOIS
/// extraction plus any domain selected by the §5.1 algorithm.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// The AS being classified (used by ASN-indexed sources).
    pub asn: Option<Asn>,
    /// The extracted organization name.
    pub name: Option<String>,
    /// The selected organization domain.
    pub domain: Option<Domain>,
    /// Street address, if WHOIS had one.
    pub address: Option<String>,
    /// Phone, if WHOIS had one.
    pub phone: Option<String>,
}

impl Query {
    /// Query by ASN only.
    pub fn by_asn(asn: Asn) -> Query {
        Query {
            asn: Some(asn),
            ..Query::default()
        }
    }

    /// Query by domain only.
    pub fn by_domain(domain: Domain) -> Query {
        Query {
            domain: Some(domain),
            ..Query::default()
        }
    }

    /// Query by name only.
    pub fn by_name(name: &str) -> Query {
        Query {
            name: Some(name.to_owned()),
            ..Query::default()
        }
    }
}

/// A match returned by a data source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMatch {
    /// Which source produced it.
    pub source: SourceId,
    /// The organization the returned record *actually describes* (ground
    /// truth link used by evaluation; a real client never sees this).
    pub entity: Option<OrgId>,
    /// The domain the source believes the entity operates.
    pub domain: Option<Domain>,
    /// The source's own raw label(s), joined for display.
    pub raw_label: String,
    /// The labels translated to NAICSlite.
    pub categories: CategorySet,
    /// D&B-style match confidence, where the source provides one.
    pub confidence: Option<ConfidenceCode>,
}

/// The common interface over all seven sources.
pub trait DataSource {
    /// Which source this is.
    fn id(&self) -> SourceId;

    /// Manual, verified lookup: the entry for this exact organization, if
    /// the source covers it (the §3 evaluation protocol).
    fn lookup_org(&self, org: OrgId) -> Option<SourceMatch>;

    /// Automated search (the §3.5 bulk protocol) — may return the wrong
    /// entity or nothing.
    fn search(&self, query: &Query) -> Option<SourceMatch>;

    /// The operator-reported network type for an ASN, for sources that
    /// publish one (PeeringDB's six categories; the Figure 4 stage-1
    /// shortcut consumes it). Every other source answers `None`, which
    /// keeps callers source-agnostic.
    fn network_type(&self, asn: Asn) -> Option<asdb_taxonomy::schemes::PeeringDbType> {
        let _ = asn;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_choose_rank_order_matches_paper() {
        // IPinfo ≥ DnB > PeeringDB > Zvelo > Crunchbase.
        let r = |s: SourceId| s.accuracy_rank();
        assert!(r(SourceId::Ipinfo) > r(SourceId::Dnb));
        assert!(r(SourceId::Dnb) > r(SourceId::PeeringDb));
        assert!(r(SourceId::PeeringDb) > r(SourceId::Zvelo));
        assert!(r(SourceId::Zvelo) > r(SourceId::Crunchbase));
    }

    #[test]
    fn asdb_five_excludes_dropped_sources() {
        assert!(!SourceId::ASDB_FIVE.contains(&SourceId::ZoomInfo));
        assert!(!SourceId::ASDB_FIVE.contains(&SourceId::Clearbit));
        assert_eq!(SourceId::ASDB_FIVE.len(), 5);
    }

    #[test]
    fn query_constructors() {
        let q = Query::by_asn(Asn::new(42));
        assert_eq!(q.asn, Some(Asn::new(42)));
        assert!(q.domain.is_none());
        let q = Query::by_name("Acme");
        assert_eq!(q.name.as_deref(), Some("Acme"));
    }
}
