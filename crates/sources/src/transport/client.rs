//! One source call through the simulated network.
//!
//! [`call`] turns a bare [`DataSource`] search into something a
//! production pipeline can rely on: each attempt goes through the
//! [`NetworkSim`]'s weather and a faulted attempt is retried up to
//! [`MAX_RETRIES`] times. The result is a typed [`SourceOutcome`] instead
//! of a bare `Option<SourceMatch>`, so the pipeline can tell "the source
//! answered and had nothing" ([`OutcomeKind::NoMatch`]) from "the source
//! was unavailable" ([`SourceOutcome::is_degraded`]), the distinction
//! §3.5's partial-coverage consensus depends on.

use super::sim::{Fault, NetworkSim};
use crate::{DataSource, Query, SourceId, SourceMatch};
use asdb_model::Asn;

/// Retries after a faulted first attempt (so at most 3 attempts).
pub const MAX_RETRIES: u32 = 2;

/// How a transport-mediated source call resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomeKind {
    /// The source answered with a candidate match.
    Matched(SourceMatch),
    /// The source answered and had no entry for the query.
    NoMatch,
    /// The last attempt stalled past the deadline.
    TimedOut,
    /// The last attempt failed hard.
    Failed,
}

/// A typed, accounted result of one pipeline-level source call.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceOutcome {
    /// Which source was called.
    pub source: SourceId,
    /// How the call resolved.
    pub kind: OutcomeKind,
    /// Retries beyond the first attempt.
    pub retries: u32,
}

impl SourceOutcome {
    /// Whether the source was unavailable for this call (timed out or
    /// failed): the §3.5 partial-coverage signal.
    pub fn is_degraded(&self) -> bool {
        matches!(self.kind, OutcomeKind::TimedOut | OutcomeKind::Failed)
    }
}

/// Search `source` through `sim`: up to `1 + MAX_RETRIES` attempts, each
/// faulting as the sim draws it for the query's ASN (ASN 0 when the
/// query has none). The first clean attempt runs the search; if every
/// attempt faults, the last fault decides the outcome.
pub fn call(sim: &NetworkSim, source: &dyn DataSource, query: &Query) -> SourceOutcome {
    call_with(sim, source.id(), query, || source.search(query))
}

/// [`call`] with the search of source `id` given as `search`, run once on
/// the first clean attempt: the pipeline's Zvelo call scores a page read
/// the record already made. Faults and retries are drawn exactly as for
/// [`call`].
pub fn call_with(
    sim: &NetworkSim,
    id: SourceId,
    query: &Query,
    search: impl FnOnce() -> Option<SourceMatch>,
) -> SourceOutcome {
    let asn = query.asn.unwrap_or(Asn::new(0));
    let mut retries = 0;
    let kind = loop {
        match sim.fault(id, asn, retries) {
            None => {
                break match search() {
                    Some(m) => OutcomeKind::Matched(m),
                    None => OutcomeKind::NoMatch,
                }
            }
            Some(_) if retries < MAX_RETRIES => retries += 1,
            Some(Fault::Timeout) => break OutcomeKind::TimedOut,
            Some(Fault::Error) => break OutcomeKind::Failed,
        }
    };
    SourceOutcome {
        source: id,
        kind,
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::{OrgId, WorldSeed};

    /// A scripted source: always matches or never matches.
    struct Scripted {
        id: SourceId,
        matches: bool,
    }

    impl DataSource for Scripted {
        fn id(&self) -> SourceId {
            self.id
        }
        fn lookup_org(&self, _org: OrgId) -> Option<SourceMatch> {
            None
        }
        fn search(&self, _query: &Query) -> Option<SourceMatch> {
            self.matches.then(|| SourceMatch {
                source: self.id,
                entity: None,
                domain: None,
                raw_label: "scripted".into(),
                categories: asdb_taxonomy::CategorySet::new(),
                confidence: None,
            })
        }
    }

    fn dnb(matches: bool) -> Scripted {
        Scripted {
            id: SourceId::Dnb,
            matches,
        }
    }

    #[test]
    fn clean_network_returns_match_and_no_match() {
        let sim = NetworkSim::new(WorldSeed::new(1), 0.0);
        let q = Query::by_asn(Asn::new(1));
        let out = call(&sim, &dnb(true), &q);
        assert!(matches!(out.kind, OutcomeKind::Matched(_)));
        assert_eq!(out.retries, 0);
        assert!(!out.is_degraded());

        let out = call(&sim, &dnb(false), &q);
        assert_eq!(out.kind, OutcomeKind::NoMatch);
        assert!(!out.is_degraded());
    }

    #[test]
    fn outage_exhausts_retries_then_fails() {
        let sim = NetworkSim::new(WorldSeed::new(2), 1.0);
        for asn in 0..50 {
            let q = Query::by_asn(Asn::new(asn));
            let out = call(&sim, &dnb(true), &q);
            assert!(out.is_degraded(), "rate 1 never lets a call through");
            assert_eq!(out.retries, MAX_RETRIES);
            let last = match sim.fault(SourceId::Dnb, Asn::new(asn), MAX_RETRIES) {
                Some(Fault::Timeout) => OutcomeKind::TimedOut,
                Some(Fault::Error) => OutcomeKind::Failed,
                None => unreachable!("rate 1 faults every attempt"),
            };
            assert_eq!(out.kind, last, "the last attempt's fault decides");
        }
    }
}
