//! Deterministic network weather.
//!
//! Real business-data APIs are flaky; the paper's production deployment
//! is built to tolerate partial source coverage (§3.5). [`NetworkSim`]
//! makes that reproducible: whether an attempt faults is a pure function
//! of `(seed, fault rate, source, the query's ASN, attempt)`. It keeps no
//! clock and no other state, so the answer does not depend on how many
//! calls came before, on which thread, or in what order.

use crate::SourceId;
use asdb_model::{splitmix64, Asn, WorldSeed};

/// What went wrong on the wire, when something did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Hard failure: the call returns an error immediately.
    Error,
    /// Stall: the upstream never answers within the client's deadline.
    Timeout,
}

/// Seed-driven fault weather for the seven sources.
#[derive(Debug)]
pub struct NetworkSim {
    fault_rate: f64,
    /// One sub-seed per source, indexed by `SourceId as usize` and
    /// derived once, so a draw hashes no string.
    seeds: [u64; SourceId::ALL.len()],
}

impl NetworkSim {
    /// A simulation where each attempt faults with probability
    /// `fault_rate`, split evenly between [`Fault::Error`] and
    /// [`Fault::Timeout`]. A rate of 0 (the default transport) never
    /// faults; a rate of 1 faults every attempt.
    pub fn new(seed: WorldSeed, fault_rate: f64) -> NetworkSim {
        let base = seed.derive("fault");
        let mut seeds = [0; SourceId::ALL.len()];
        for id in SourceId::ALL {
            seeds[id as usize] = base.derive(id.name()).value();
        }
        NetworkSim { fault_rate, seeds }
    }

    /// The fault, if any, on attempt `attempt` (0 = the first) of a call
    /// to `source` for `asn`: one uniform draw `r`, an error when
    /// `r < rate / 2`, a timeout when `r < rate`.
    pub fn fault(&self, source: SourceId, asn: Asn, attempt: u32) -> Option<Fault> {
        if self.fault_rate <= 0.0 {
            return None;
        }
        let key = (u64::from(asn.value()) << 32) | u64::from(attempt);
        let r = (splitmix64(self.seeds[source as usize] ^ key) >> 11) as f64 / (1u64 << 53) as f64;
        if r < self.fault_rate / 2.0 {
            Some(Fault::Error)
        } else if r < self.fault_rate {
            Some(Fault::Timeout)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, CASES};
    use rand::seq::SliceRandom;
    use rand::{Rng, RngExt};

    #[test]
    fn fault_free_sim_never_faults() {
        let sim = NetworkSim::new(WorldSeed::new(7), 0.0);
        for id in SourceId::ALL {
            for asn in 0..200 {
                for attempt in 0..3 {
                    assert_eq!(sim.fault(id, Asn::new(asn), attempt), None);
                }
            }
        }
    }

    #[test]
    fn fault_rate_is_honored_and_split_evenly() {
        let count = |rate: f64| {
            let sim = NetworkSim::new(WorldSeed::new(11), rate);
            let (mut errors, mut timeouts) = (0u32, 0u32);
            for i in 0..4000u32 {
                match sim.fault(SourceId::Crunchbase, Asn::new(i / 2), i % 2) {
                    Some(Fault::Error) => errors += 1,
                    Some(Fault::Timeout) => timeouts += 1,
                    None => {}
                }
            }
            (f64::from(errors) / 4000.0, f64::from(timeouts) / 4000.0)
        };
        let (e, t) = count(0.2);
        assert!((e + t - 0.2).abs() < 0.03, "fault rate {}", e + t);
        assert!((e - 0.1).abs() < 0.02, "error rate {e}");
        assert!((t - 0.1).abs() < 0.02, "timeout rate {t}");
        let (e, t) = count(1.0);
        assert_eq!(e + t, 1.0, "rate 1 faults every attempt");
        assert!(e > 0.4 && t > 0.4, "rate 1 still splits: {e} / {t}");
        assert_eq!(count(0.0), (0.0, 0.0));
    }

    #[test]
    fn observations_are_pure() {
        check::cases(
            CASES,
            |rng| {
                (
                    rng.next_u64(),
                    rng.random_range(0u32..100_000),
                    rng.random_range(0.0f64..=1.0),
                )
            },
            |(seed, asn, rate)| {
                let a = NetworkSim::new(WorldSeed::new(seed), rate);
                let b = NetworkSim::new(WorldSeed::new(seed), rate);
                for id in SourceId::ALL {
                    for attempt in 0..3 {
                        let asn = Asn::new(asn);
                        assert_eq!(a.fault(id, asn, attempt), b.fault(id, asn, attempt));
                    }
                }
            },
        );
    }

    #[test]
    fn faults_do_not_depend_on_call_order() {
        check::cases(
            64,
            |rng| {
                let mut calls: Vec<(usize, u32, u32)> = (0..64)
                    .map(|_| {
                        (
                            rng.random_range(0..SourceId::ALL.len()),
                            rng.random_range(0u32..1_000),
                            rng.random_range(0u32..3),
                        )
                    })
                    .collect();
                let forward = calls.clone();
                calls.shuffle(rng);
                (rng.next_u64(), forward, calls)
            },
            |(seed, forward, shuffled)| {
                let sim = NetworkSim::new(WorldSeed::new(seed), 0.5);
                let draw = |calls: &[(usize, u32, u32)]| {
                    let mut out: Vec<_> = calls
                        .iter()
                        .map(|&(s, asn, attempt)| {
                            let f = sim.fault(SourceId::ALL[s], Asn::new(asn), attempt);
                            ((s, asn, attempt), f)
                        })
                        .collect();
                    out.sort_by_key(|(call, _)| *call);
                    out
                };
                assert_eq!(draw(&forward), draw(&shuffled));
            },
        );
    }

    #[test]
    fn distinct_seeds_decorrelate() {
        check::cases(
            CASES,
            |rng| rng.next_u64(),
            |seed| {
                let a = NetworkSim::new(WorldSeed::new(seed), 0.5);
                let b = NetworkSim::new(WorldSeed::new(seed.wrapping_add(1)), 0.5);
                let diverged = (0..64).any(|asn| {
                    a.fault(SourceId::Dnb, Asn::new(asn), 0)
                        != b.fault(SourceId::Dnb, Asn::new(asn), 0)
                });
                assert!(diverged);
            },
        );
    }
}
