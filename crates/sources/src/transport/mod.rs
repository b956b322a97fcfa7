//! The fault-aware source transport layer.
//!
//! The paper treats the five production sources as instant, infallible
//! lookups; real business-data APIs are not. This module is the seam
//! where unavailability lives, in two parts:
//!
//! * [`NetworkSim`] ([`sim`]): seed-driven fault weather. Each attempt
//!   faults with one probability, the fault rate, split evenly between
//!   errors and timeouts.
//! * [`call`] ([`client`]): one search through the sim with up to
//!   [`MAX_RETRIES`] retries, returning a typed [`SourceOutcome`].
//!
//! Whether an attempt faults is a pure function of `(seed, fault rate,
//! source, the query's ASN, attempt)`. Nothing is shared between calls: no
//! clock, no breaker, no global RNG. So a call's outcome is the same on
//! any thread and in any order, and at fault rate 0 the layer is
//! transparent: the wrapped source's answer comes back unchanged.

pub mod client;
pub mod sim;

pub use client::{call, call_with, OutcomeKind, SourceOutcome, MAX_RETRIES};
pub use sim::{Fault, NetworkSim};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataSource, Query, SourceId, SourceMatch};
    use asdb_model::{Asn, OrgId, WorldSeed};
    use rand::check;
    use rand::{Rng, RngExt};

    struct Always(SourceId);

    impl DataSource for Always {
        fn id(&self) -> SourceId {
            self.0
        }
        fn lookup_org(&self, _org: OrgId) -> Option<SourceMatch> {
            None
        }
        fn search(&self, _query: &Query) -> Option<SourceMatch> {
            Some(SourceMatch {
                source: self.0,
                entity: None,
                domain: None,
                raw_label: "always".into(),
                categories: asdb_taxonomy::CategorySet::new(),
                confidence: None,
            })
        }
    }

    /// Call once per ASN in `asns`, in that order; each outcome's kind
    /// and retry count, keyed by ASN.
    fn replay(seed: u64, rate: f64, asns: &[u32]) -> Vec<(u32, String, u32)> {
        let sim = NetworkSim::new(WorldSeed::new(seed), rate);
        let src = Always(SourceId::Crunchbase);
        let mut out: Vec<_> = asns
            .iter()
            .map(|&a| {
                let o = call(&sim, &src, &Query::by_asn(Asn::new(a)));
                (a, format!("{:?}", o.kind), o.retries)
            })
            .collect();
        out.sort();
        out
    }

    // Pinned-seed instance of the property below, plus the check that
    // another seed replays differently.
    #[test]
    fn faulted_replay_is_stable_for_a_fixed_seed() {
        let asns: Vec<u32> = (64500..64512).collect();
        assert_eq!(replay(42, 0.3, &asns), replay(42, 0.3, &asns));
        assert_ne!(replay(42, 0.3, &asns), replay(43, 0.3, &asns));
    }

    #[test]
    fn retry_schedules_replay_in_any_call_order() {
        check::cases(
            64,
            |rng| {
                let asns: Vec<u32> = (0..12).map(|_| rng.random_range(0..100_000)).collect();
                (rng.next_u64(), rng.random_range(0.0f64..=1.0), asns)
            },
            |(seed, rate, asns)| {
                let reversed: Vec<u32> = asns.iter().rev().copied().collect();
                assert_eq!(replay(seed, rate, &asns), replay(seed, rate, &reversed));
            },
        );
    }
}
