//! The bundle of external data sources ASdb ships with, and the
//! fault-aware fan-out that queries them.
//!
//! [`SourceSet`] owns the five production sources (Table 1).
//! [`SourceFanout`] is the pipeline's only way to *call* them: every
//! search goes through [`transport::call`] (bounded retry over a seeded
//! [`NetworkSim`]), and the ASN stage and the name/domain stage each call
//! their sources one after another, collecting outcomes in a fixed order.
//! The pipeline's stage 3 hands the fan-out the record's one read of the
//! chosen domain's site, and Zvelo's call scores that read
//! ([`SourceFanout::stage3_read`]).
//! The pipeline consumes typed [`SourceOutcome`]s, so "the source had
//! nothing" and "the source was unavailable" stay distinct: the §3.5
//! partial-coverage consensus runs on whatever subset answered, and the
//! unavailable subset is surfaced as `degraded`.
//!
//! Determinism: the fan-out holds no mutable state. Whether an attempt
//! faults depends only on the seed, the fault rate, the source, the
//! query's ASN and the attempt number, so a record's outcomes are the
//! same whichever worker classifies it and whatever ran before. At fault
//! rate 0 the layer is transparent (same matches as a direct `search`
//! loop).
//!
//! [`transport::call`]: asdb_sources::transport::call

use crate::metrics::PipelineMetrics;
use asdb_model::{Asn, Domain, WorldSeed};
use asdb_sources::crunchbase::Crunchbase;
use asdb_sources::dnb::Dnb;
use asdb_sources::ipinfo::Ipinfo;
use asdb_sources::peeringdb::PeeringDb;
use asdb_sources::transport::{self, NetworkSim, OutcomeKind, SourceOutcome};
use asdb_sources::zvelo::Zvelo;
use asdb_sources::{DataSource, Query, SourceId, SourceMatch};
use asdb_taxonomy::schemes::PeeringDbType;
use asdb_websim::{FetchError, PageRead};
use asdb_worldgen::World;

/// ASdb's five production sources (Table 1: "ASdb uses D&B, Crunchbase,
/// PeeringDB, IPinfo, and Zvelo").
#[derive(Debug, Clone)]
pub struct SourceSet {
    /// Dun & Bradstreet.
    pub dnb: Dnb,
    /// Crunchbase.
    pub crunchbase: Crunchbase,
    /// Zvelo.
    pub zvelo: Zvelo,
    /// PeeringDB.
    pub peeringdb: PeeringDb,
    /// IPinfo.
    pub ipinfo: Ipinfo,
}

impl SourceSet {
    /// Build all five over a world. D&B, the costliest, builds on its own
    /// thread beside the other four; each source derives its own draws
    /// from `seed`, so the result does not depend on the split.
    pub fn build(world: &World, seed: WorldSeed) -> SourceSet {
        std::thread::scope(|scope| {
            let dnb = scope.spawn(|| Dnb::build(world, seed));
            let crunchbase = Crunchbase::build(world, seed);
            let zvelo = Zvelo::build(world, seed);
            let peeringdb = PeeringDb::build(world, seed);
            let ipinfo = Ipinfo::build(world, seed);
            SourceSet {
                dnb: dnb
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                crunchbase,
                zvelo,
                peeringdb,
                ipinfo,
            }
        })
    }

    /// A source by id (the two dropped sources are not in the set).
    pub fn get(&self, id: SourceId) -> Option<&dyn DataSource> {
        match id {
            SourceId::Dnb => Some(&self.dnb),
            SourceId::Crunchbase => Some(&self.crunchbase),
            SourceId::Zvelo => Some(&self.zvelo),
            SourceId::PeeringDb => Some(&self.peeringdb),
            SourceId::Ipinfo => Some(&self.ipinfo),
            SourceId::ZoomInfo | SourceId::Clearbit => None,
        }
    }

    /// Run an automated search against every production source.
    pub fn search_all(&self, query: &Query) -> Vec<SourceMatch> {
        SourceId::ASDB_FIVE
            .iter()
            .filter_map(|id| self.get(*id))
            .filter_map(|s| s.search(query))
            .collect()
    }
}

/// The ASN-indexed sources the Figure 4 stage 1 queries, in the order
/// their outcomes are collected.
const STAGE1: [SourceId; 2] = [SourceId::PeeringDb, SourceId::Ipinfo];

/// The web sources stage 3 queries once a name/domain is available.
const STAGE3: [SourceId; 3] = [SourceId::Dnb, SourceId::Crunchbase, SourceId::Zvelo];

/// The collected stage-1 (ASN-indexed) fan-out: one outcome per source,
/// PeeringDB then IPinfo, plus PeeringDB's operator-reported network type
/// when that source was reachable (the Figure 4 shortcut's input).
#[derive(Debug)]
pub struct Stage1 {
    /// Outcomes for PeeringDB then IPinfo.
    pub outcomes: Vec<SourceOutcome>,
    /// PeeringDB's self-reported type, if PeeringDB answered and lists
    /// the AS.
    pub network_type: Option<PeeringDbType>,
}

/// The match-acceptance policy the pipeline applies to raw outcomes —
/// §5.1's entity-disagreement rejection plus the empty-label filter.
#[derive(Debug, Clone, Copy)]
pub struct MatchPolicy<'a> {
    /// Reject matches whose domain disagrees with the chosen one.
    pub reject_entity_disagreement: bool,
    /// The §5.1 chosen domain the disagreement check compares against.
    pub chosen_domain: Option<&'a Domain>,
}

impl MatchPolicy<'_> {
    /// Whether this candidate match is rejected ("ASdb rejects matches
    /// where the data source provides a domain that does not match ASdb's
    /// chosen domain", plus matches carrying no translatable labels).
    pub fn rejects(&self, m: &SourceMatch) -> bool {
        if self.reject_entity_disagreement {
            if let (Some(md), Some(cd)) = (&m.domain, self.chosen_domain) {
                if md.registrable() != cd.registrable() {
                    return true;
                }
            }
        }
        m.categories.is_empty()
    }
}

/// A fully resolved fan-out: the matches that survived the policy (in
/// stable [`SourceId::ASDB_FIVE`] order) and the sources that were
/// unavailable.
#[derive(Debug)]
pub struct FanoutOutcome {
    /// Matches that survived the [`MatchPolicy`].
    pub matches: Vec<SourceMatch>,
    /// Sources that timed out or failed.
    pub degraded: Vec<SourceId>,
}

/// The fault-aware fan-out over the five production sources, all called
/// through one seeded [`NetworkSim`].
#[derive(Debug)]
pub struct SourceFanout {
    sim: NetworkSim,
}

impl SourceFanout {
    /// A transparent fan-out (no faults) for `seed`.
    pub fn new(seed: WorldSeed) -> SourceFanout {
        SourceFanout::with_fault_rate(seed, 0.0)
    }

    /// A fan-out whose every source attempt faults with probability
    /// `fault_rate` (see [`NetworkSim::new`]). All fault draws derive from
    /// `seed`, so equal seed and rate give bit-identical behaviour.
    pub fn with_fault_rate(seed: WorldSeed, fault_rate: f64) -> SourceFanout {
        SourceFanout {
            sim: NetworkSim::new(seed, fault_rate),
        }
    }

    /// Issue one query to each of `ids`, in `ids` order, and collect the
    /// outcomes in that order. With `read`, Zvelo's call scores that read
    /// of the query's domain instead of reading the site again. Transport
    /// accounting (queries, retries, timeouts, failures) is recorded here,
    /// at call time; match/reject resolution happens later in
    /// [`SourceFanout::resolve`].
    fn calls(
        &self,
        sources: &SourceSet,
        ids: &[SourceId],
        query: &Query,
        read: Option<&Result<PageRead, FetchError>>,
        metrics: &PipelineMetrics,
    ) -> Vec<SourceOutcome> {
        let t = std::time::Instant::now();
        let outcomes = ids
            .iter()
            .map(|&id| {
                let out = match read {
                    Some(read) if id == SourceId::Zvelo => {
                        transport::call_with(&self.sim, id, query, || {
                            sources.zvelo.search_read(query, read)
                        })
                    }
                    _ => {
                        let source = sources.get(id).expect("ASdb-five source present");
                        transport::call(&self.sim, source, query)
                    }
                };
                metrics.record_source_outcome(&out);
                out
            })
            .collect();
        metrics.record_fanout(t.elapsed());
        outcomes
    }

    /// Stage 1: query the ASN-indexed sources (PeeringDB, IPinfo).
    /// PeeringDB's network type is only consulted when its call succeeded
    /// — a degraded PeeringDB disables the shortcut rather than silently
    /// answering from data the transport never delivered.
    pub fn stage1(&self, sources: &SourceSet, asn: Asn, metrics: &PipelineMetrics) -> Stage1 {
        let outcomes = self.calls(sources, &STAGE1, &Query::by_asn(asn), None, metrics);
        let network_type = if outcomes[0].is_degraded() {
            None
        } else {
            sources
                .get(SourceId::PeeringDb)
                .and_then(|s| s.network_type(asn))
        };
        Stage1 {
            outcomes,
            network_type,
        }
    }

    /// Stage 3: query the web sources (D&B, Crunchbase, Zvelo), merge with
    /// the stage-1 outcomes into stable [`SourceId::ASDB_FIVE`] order, and
    /// resolve everything against the match policy. Zvelo reads the
    /// query's domain itself.
    pub fn stage3(
        &self,
        sources: &SourceSet,
        query: &Query,
        stage1: Stage1,
        policy: &MatchPolicy<'_>,
        metrics: &PipelineMetrics,
    ) -> FanoutOutcome {
        self.stage3_read(sources, query, None, stage1, policy, metrics)
    }

    /// [`SourceFanout::stage3`] where `read`, when given, is the record's
    /// one read of `query.domain`: Zvelo scores it
    /// ([`Zvelo::search_read`]) rather than reading the site again, and a
    /// failed read is its no-match. The call still goes through the
    /// transport, so faults, retries and counters are those of `stage3`.
    pub fn stage3_read(
        &self,
        sources: &SourceSet,
        query: &Query,
        read: Option<&Result<PageRead, FetchError>>,
        stage1: Stage1,
        policy: &MatchPolicy<'_>,
        metrics: &PipelineMetrics,
    ) -> FanoutOutcome {
        let mut outcomes = self.calls(sources, &STAGE3, query, read, metrics);
        outcomes.extend(stage1.outcomes);
        SourceFanout::resolve(outcomes, policy, metrics)
    }

    /// Finalize stage-1 accounting when the PeeringDB ISP shortcut ends
    /// the pipeline before stage 3. Both ASN calls were already issued, so
    /// both must resolve: PeeringDB's answer (the shortcut's own evidence)
    /// counts as its match, and IPinfo's already-computed result is
    /// matched / rejected / no-matched under the domain-free policy
    /// instead of being silently dropped — without this, per-source
    /// `queries` exceed `matches + rejects + no_match` and the Table 8
    /// bookkeeping never reconciles.
    pub fn finalize_shortcut(&self, stage1: Stage1, metrics: &PipelineMetrics) -> FanoutOutcome {
        let policy = MatchPolicy {
            reject_entity_disagreement: false,
            chosen_domain: None,
        };
        SourceFanout::resolve(stage1.outcomes, &policy, metrics)
    }

    /// Resolve raw outcomes against the policy, source-agnostically: each
    /// successful call becomes exactly one of match / reject / no-match
    /// (recorded), each degraded call lands in `degraded`. Together with
    /// call-time accounting this keeps the per-source invariant
    /// `queries == matches + rejects + no_match + timeouts + failures`.
    pub fn resolve(
        outcomes: Vec<SourceOutcome>,
        policy: &MatchPolicy<'_>,
        metrics: &PipelineMetrics,
    ) -> FanoutOutcome {
        let mut matches = Vec::new();
        let mut degraded = Vec::new();
        for o in outcomes {
            match o.kind {
                OutcomeKind::Matched(m) => {
                    if policy.rejects(&m) {
                        metrics.record_source_reject(o.source);
                    } else {
                        metrics.record_source_match(o.source);
                        matches.push(m);
                    }
                }
                OutcomeKind::NoMatch => {}
                OutcomeKind::TimedOut | OutcomeKind::Failed => degraded.push(o.source),
            }
        }
        FanoutOutcome { matches, degraded }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_taxonomy::CategorySet;
    use asdb_worldgen::WorldConfig;

    #[test]
    fn builds_and_dispatches() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(5)));
        let s = SourceSet::build(&w, WorldSeed::new(6));
        assert!(s.get(SourceId::Dnb).is_some());
        assert!(s.get(SourceId::ZoomInfo).is_none());
        // An ASN-only query can only hit the two networking sources.
        let asn = w.ases[0].asn;
        let hits = s.search_all(&Query::by_asn(asn));
        for h in &hits {
            assert!(matches!(h.source, SourceId::PeeringDb | SourceId::Ipinfo));
        }
    }

    #[test]
    fn dropped_sources_stay_excluded_from_the_fanout() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(5)));
        let s = SourceSet::build(&w, WorldSeed::new(6));
        let metrics = PipelineMetrics::new();
        // At rate 1 every called source is degraded, so `degraded` lists
        // exactly the sources the fan-out calls.
        let f = SourceFanout::with_fault_rate(WorldSeed::new(9), 1.0);
        let rec = &w.ases[0];
        let stage1 = f.stage1(&s, rec.asn, &metrics);
        let policy = MatchPolicy {
            reject_entity_disagreement: false,
            chosen_domain: None,
        };
        let out = f.stage3(
            &s,
            &Query::by_name(&rec.parsed.name),
            stage1,
            &policy,
            &metrics,
        );
        assert_eq!(out.degraded, SourceId::ASDB_FIVE.to_vec());
        assert!(out.matches.is_empty());
    }

    #[test]
    fn seeded_faults_replay_identically() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(5)));
        let s = SourceSet::build(&w, WorldSeed::new(6));
        let policy = MatchPolicy {
            reject_entity_disagreement: false,
            chosen_domain: None,
        };
        let recs = &w.ases[..100];
        let fanout =
            |f: &SourceFanout, rec: &asdb_worldgen::AsRecord, metrics: &PipelineMetrics| {
                let stage1 = f.stage1(&s, rec.asn, metrics);
                // Order-stable collection: PeeringDB then IPinfo, always.
                assert_eq!(stage1.outcomes[0].source, SourceId::PeeringDb);
                assert_eq!(stage1.outcomes[1].source, SourceId::Ipinfo);
                let network_type = stage1.network_type;
                let query = Query {
                    asn: Some(rec.asn),
                    ..Query::by_name(&rec.parsed.name)
                };
                let out = f.stage3(&s, &query, stage1, &policy, metrics);
                (network_type, out.matches, out.degraded)
            };
        let retries = |metrics: &PipelineMetrics| {
            let snap = metrics.snapshot(&metrics.build_cache());
            snap.counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("source.") && name.ends_with(".retries"))
                .collect::<Vec<_>>()
        };
        // Pure fault draws make equal seeds bit-identical, faults and
        // retries included, whatever order the records arrive in.
        let (a, metrics_a) = (
            SourceFanout::with_fault_rate(WorldSeed::new(7), 0.3),
            PipelineMetrics::new(),
        );
        let (b, metrics_b) = (
            SourceFanout::with_fault_rate(WorldSeed::new(7), 0.3),
            PipelineMetrics::new(),
        );
        let forward: Vec<_> = recs.iter().map(|r| fanout(&a, r, &metrics_a)).collect();
        let mut backward: Vec<_> = recs
            .iter()
            .rev()
            .map(|r| fanout(&b, r, &metrics_b))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(retries(&metrics_a), retries(&metrics_b));
        let retried: u64 = retries(&metrics_a).iter().map(|(_, n)| n).sum();
        assert!(retried > 0, "30% faults never retried");
        let degraded: usize = forward.iter().map(|f| f.2.len()).sum();
        assert!(degraded > 0, "30% faults never degraded a source");
    }

    #[test]
    fn fault_free_fanout_matches_a_direct_search_loop() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(5)));
        let s = SourceSet::build(&w, WorldSeed::new(6));
        let metrics = PipelineMetrics::new();
        let f = SourceFanout::new(WorldSeed::new(8));
        let mut matched = 0usize;
        for rec in w.ases.iter().take(80) {
            let domain = rec.parsed.candidate_domains().into_iter().next();
            let query = Query {
                asn: Some(rec.asn),
                name: Some(rec.parsed.name.clone()),
                domain: domain.clone(),
                ..Query::default()
            };
            let policy = MatchPolicy {
                reject_entity_disagreement: true,
                chosen_domain: domain.as_ref(),
            };
            let stage1 = f.stage1(&s, rec.asn, &metrics);
            let out = f.stage3(&s, &query, stage1, &policy, &metrics);
            let direct: Vec<SourceMatch> = SourceId::ASDB_FIVE
                .iter()
                .filter_map(|id| {
                    let source = s.get(*id).expect("ASdb-five source");
                    if STAGE1.contains(id) {
                        source.search(&Query::by_asn(rec.asn))
                    } else {
                        source.search(&query)
                    }
                })
                .filter(|m| !policy.rejects(m))
                .collect();
            assert_eq!(out.matches, direct, "{}", rec.asn);
            assert!(out.degraded.is_empty(), "no faults injected");
            matched += direct.len();
        }
        assert!(matched > 0, "no source ever matched");
    }

    #[test]
    fn stage3_outcomes_follow_asdb_five_order() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(5)));
        let s = SourceSet::build(&w, WorldSeed::new(6));
        let metrics = PipelineMetrics::new();
        let f = SourceFanout::new(WorldSeed::new(8));
        let policy = MatchPolicy {
            reject_entity_disagreement: false,
            chosen_domain: None,
        };
        // Stage 1 runs first, yet its sources' matches follow stage 3's.
        let mut merged = 0usize;
        for rec in w.ases.iter().take(100) {
            let stage1 = f.stage1(&s, rec.asn, &metrics);
            let query = Query::by_name(&rec.parsed.name);
            let out = f.stage3(&s, &query, stage1, &policy, &metrics);
            let rank = |m: &SourceMatch| SourceId::ASDB_FIVE.iter().position(|&id| id == m.source);
            let order: Vec<_> = out.matches.iter().map(rank).collect();
            assert!(
                order.windows(2).all(|p| p[0] < p[1]),
                "{}: {order:?}",
                rec.asn
            );
            let from_stage1 = out.matches.iter().any(|m| STAGE1.contains(&m.source));
            let from_stage3 = out.matches.iter().any(|m| STAGE3.contains(&m.source));
            merged += usize::from(from_stage1 && from_stage3);
            assert!(out.degraded.is_empty(), "no faults injected");
        }
        assert!(merged > 0, "no record matched in both stages");
    }

    #[test]
    fn empty_category_matches_are_rejected_with_counters() {
        let metrics = PipelineMetrics::new();
        let cache = metrics.build_cache();
        let empty_match = SourceMatch {
            source: SourceId::Dnb,
            entity: None,
            domain: None,
            raw_label: "untranslatable".into(),
            categories: CategorySet::new(),
            confidence: None,
        };
        let outcome = SourceOutcome {
            source: SourceId::Dnb,
            kind: OutcomeKind::Matched(empty_match),
            retries: 0,
        };
        metrics.record_source_outcome(&outcome);
        let policy = MatchPolicy {
            reject_entity_disagreement: true,
            chosen_domain: None,
        };
        let out = SourceFanout::resolve(vec![outcome], &policy, &metrics);
        assert!(out.matches.is_empty());
        assert!(out.degraded.is_empty());
        let snap = metrics.snapshot(&cache);
        assert_eq!(snap.counter("source.dnb.queries"), 1);
        assert_eq!(snap.counter("source.dnb.rejects"), 1);
        assert_eq!(snap.counter("source.dnb.matches"), 0);
    }

    #[test]
    fn degraded_outcomes_skip_match_accounting() {
        let metrics = PipelineMetrics::new();
        let cache = metrics.build_cache();
        let outcome = SourceOutcome {
            source: SourceId::Zvelo,
            kind: OutcomeKind::TimedOut,
            retries: 2,
        };
        metrics.record_source_outcome(&outcome);
        let policy = MatchPolicy {
            reject_entity_disagreement: true,
            chosen_domain: None,
        };
        let out = SourceFanout::resolve(vec![outcome], &policy, &metrics);
        assert_eq!(out.degraded, vec![SourceId::Zvelo]);
        let snap = metrics.snapshot(&cache);
        assert_eq!(snap.counter("source.zvelo.queries"), 1);
        assert_eq!(snap.counter("source.zvelo.timeouts"), 1);
        assert_eq!(snap.counter("source.zvelo.retries"), 2);
        assert_eq!(snap.counter("source.zvelo.matches"), 0);
        assert_eq!(snap.counter("source.zvelo.rejects"), 0);
    }
}
