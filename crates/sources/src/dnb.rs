//! Simulated Dun & Bradstreet.
//!
//! "D&B allows searching for companies by name, address, phone, and domain.
//! In response, their service returns a single company's information (e.g.,
//! DUNS#, a unique company identifier) and a 1–10 confidence score. For
//! bulk access, there is no control over which company is chosen if
//! multiple companies share the same name or address" (§3.5).
//!
//! The search returns the best-matching entry with a confidence code
//! derived from match quality plus editorial noise; Figure 2's property —
//! codes below 6 are right less than half the time, codes ≥ 6 at least 80%
//! — emerges because wrong entities only ever match at middling similarity.

use crate::profile::{self};
use crate::registry::{emit_naics_label, profile_covers, BusinessRegistry, RegistryEntry};
use crate::{DataSource, Query, SourceId, SourceMatch};
use asdb_model::{ConfidenceCode, OrgId, WorldSeed};
use asdb_worldgen::World;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The margin below which a runner-up makes a name match ambiguous: the
/// penalty is `(AMBIGUITY_SPAN − margin) × 1.3`, zero at a wider margin.
pub const AMBIGUITY_SPAN: f64 = 0.18;

/// The lowest best name score that can yield a match: quality is at most
/// the best plus the 0.10 address bonus, and a match needs quality 0.55.
pub const MIN_MATCHABLE_BEST: f64 = 0.45;

/// The simulated D&B service.
#[derive(Debug, Clone)]
pub struct Dnb {
    registry: BusinessRegistry,
    seed: WorldSeed,
}

impl Dnb {
    /// Build over a world.
    pub fn build(world: &World, seed: WorldSeed) -> Dnb {
        let p = profile::DNB;
        let registry = BusinessRegistry::build(
            &world.orgs,
            seed.derive("dnb"),
            move |o, rng| profile_covers(&p, o, rng),
            move |o, rng| emit_naics_label(&p, o, rng),
        );
        Dnb {
            registry,
            seed: seed.derive("dnb-search"),
        }
    }

    /// Number of listed organizations.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the listing is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// The listing its searches run on.
    pub fn registry(&self) -> &BusinessRegistry {
        &self.registry
    }

    /// Match quality → confidence code, with ±1 editorial noise. The
    /// mapping is deliberately steep near the top: only near-exact,
    /// unambiguous matches reach codes 9–10, and the sub-0.7 quality zone
    /// (where homonym mismatches live) lands below the reliability
    /// threshold — producing Figure 2's accuracy-by-code shape.
    fn confidence(&self, quality: f64, name: &str) -> ConfidenceCode {
        let mut rng = StdRng::seed_from_u64(self.seed.derive("conf").derive(name).value());
        let base = (2.0 + 9.0 * (quality - 0.55) / 0.45).round() as i32;
        let noisy = (base + rng.random_range(-1..=1)).clamp(1, 10);
        ConfidenceCode::new(noisy as u8).expect("clamped to range")
    }

    /// Full search result including the confidence code, even below any
    /// threshold — Table 5's "Conf ≥ 1" row uses everything.
    pub fn search_with_confidence(&self, query: &Query) -> Option<SourceMatch> {
        // Domain search is the strongest key.
        if let Some(d) = &query.domain {
            if let Some(e) = self.registry.by_domain(d) {
                return Some(self.to_match(e, 0.97, &d.to_string()));
            }
        }
        let name = query.name.as_deref()?;
        let (entry, best, runner_up) = self.registry.best_two_name_match(name)?;
        self.name_match(query, name, entry, best, runner_up)
    }

    /// The match a name search yields from its best entry, that entry's
    /// score and the runner-up's score: the ambiguity penalty, the address
    /// check and the bulk-API threshold.
    pub fn name_match(
        &self,
        query: &Query,
        name: &str,
        entry: &RegistryEntry,
        best: f64,
        runner_up: f64,
    ) -> Option<SourceMatch> {
        // Ambiguity penalty: when a second company scores nearly as well,
        // the matcher cannot know which record is meant, and the returned
        // confidence reflects that (this is what pushes homonym mismatches
        // below the Figure 2 reliability threshold).
        let margin = (best - runner_up).max(0.0);
        let ambiguity = (AMBIGUITY_SPAN - margin).clamp(0.0, AMBIGUITY_SPAN) * 1.3;
        let mut quality = best - ambiguity;
        // An address hit nudges quality up; a mismatch nudges down.
        if let (Some(addr), city) = (&query.address, &entry.city) {
            if addr.to_lowercase().contains(&city.to_lowercase()) {
                quality = (quality + 0.10).min(1.0);
            } else {
                quality = (quality - 0.05).max(0.0);
            }
        }
        if quality < 0.55 {
            return None; // not even a bulk-API hit
        }
        Some(self.to_match(entry, quality, name))
    }

    fn to_match(&self, entry: &RegistryEntry, quality: f64, key: &str) -> SourceMatch {
        SourceMatch {
            source: SourceId::Dnb,
            entity: Some(entry.org),
            domain: entry.domain.clone(),
            raw_label: format!("NAICS {}", entry.raw_label),
            categories: entry.categories.clone(),
            confidence: Some(self.confidence(quality, key)),
        }
    }
}

impl DataSource for Dnb {
    fn id(&self) -> SourceId {
        SourceId::Dnb
    }

    fn lookup_org(&self, org: OrgId) -> Option<SourceMatch> {
        let e = self.registry.by_org(org)?;
        Some(SourceMatch {
            source: SourceId::Dnb,
            entity: Some(e.org),
            domain: e.domain.clone(),
            raw_label: format!("NAICS {}", e.raw_label),
            categories: e.categories.clone(),
            confidence: Some(ConfidenceCode::MAX),
        })
    }

    fn search(&self, query: &Query) -> Option<SourceMatch> {
        self.search_with_confidence(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use asdb_worldgen::WorldConfig;

    fn setup() -> (World, Dnb) {
        let w = World::generate(WorldConfig::small(WorldSeed::new(11)));
        let d = Dnb::build(&w, WorldSeed::new(12));
        (w, d)
    }

    #[test]
    fn covers_about_82_percent() {
        let (w, d) = setup();
        let frac = d.len() as f64 / w.orgs.len() as f64;
        assert!((frac - 0.82).abs() < 0.07, "coverage = {frac}");
    }

    #[test]
    fn exact_name_search_hits_right_entity_with_high_confidence() {
        let (w, d) = setup();
        let mut checked = 0;
        for org in &w.orgs {
            let Some(m) = d.search(&Query::by_name(org.legal_name.as_str())) else {
                continue;
            };
            if m.entity == Some(org.id) {
                assert!(
                    m.confidence.unwrap().value() >= 7,
                    "exact match got conf {}",
                    m.confidence.unwrap()
                );
                checked += 1;
            }
            if checked > 30 {
                break;
            }
        }
        assert!(checked > 10, "too few exact matches to evaluate");
    }

    #[test]
    fn domain_search_is_precise() {
        let (w, d) = setup();
        let org = w
            .orgs
            .iter()
            .find(|o| o.domain.is_some() && d.lookup_org(o.id).is_some())
            .unwrap();
        let m = d
            .search(&Query::by_domain(org.domain.clone().unwrap()))
            .unwrap();
        assert_eq!(m.entity, Some(org.id));
        assert!(m.confidence.unwrap().value() >= 8);
    }

    #[test]
    fn garbage_names_return_none_or_low_confidence() {
        let (_, d) = setup();
        let m = d.search(&Query::by_name("zzzz qqqq completely unknown entity"));
        if let Some(m) = m {
            assert!(
                m.confidence.unwrap().value() <= 6,
                "conf = {:?}",
                m.confidence
            );
        }
    }

    #[test]
    fn confidence_separates_right_from_wrong(/* Figure 2's shape */) {
        let (w, d) = setup();
        let mut by_band = [(0usize, 0usize); 2]; // [low (<6), high (>=6)]
        for rec in &w.ases {
            let org = w.org_of(rec.asn).unwrap();
            let q = Query {
                asn: Some(rec.asn),
                name: Some(rec.parsed.name.clone()),
                domain: None,
                address: rec.parsed.address.clone(),
                phone: rec.parsed.phone.clone(),
            };
            if let Some(m) = d.search(&q) {
                let right = m.entity == Some(org.id);
                let band = usize::from(m.confidence.unwrap().is_reliable());
                by_band[band].0 += usize::from(right);
                by_band[band].1 += 1;
            }
        }
        let high_acc = by_band[1].0 as f64 / by_band[1].1.max(1) as f64;
        assert!(high_acc >= 0.80, "conf>=6 accuracy = {high_acc}");
        if by_band[0].1 >= 10 {
            let low_acc = by_band[0].0 as f64 / by_band[0].1 as f64;
            assert!(low_acc < high_acc, "low {low_acc} vs high {high_acc}");
        }
    }

    #[test]
    fn manual_lookup_only_for_covered_orgs() {
        let (w, d) = setup();
        let covered = w
            .orgs
            .iter()
            .filter(|o| d.lookup_org(o.id).is_some())
            .count();
        assert_eq!(covered, d.len());
    }
}
