//! Simulated ZoomInfo: NAICS labels like D&B, but noisier (Table 4: 70%
//! layer-1, 61% layer-2 correctness) — one of the two sources ASdb drops
//! ("neither data source markets full data access to academic
//! researchers", §3.5). Implemented anyway to reproduce the §3 evaluation.

use crate::profile;
use crate::registry::{emit_naics_label, profile_covers, BusinessRegistry};
use crate::{DataSource, Query, SourceId, SourceMatch};
use asdb_model::{OrgId, WorldSeed};
use asdb_worldgen::World;

/// The simulated ZoomInfo service.
#[derive(Debug, Clone)]
pub struct ZoomInfo {
    registry: BusinessRegistry,
}

impl ZoomInfo {
    /// Build over a world.
    pub fn build(world: &World, seed: WorldSeed) -> ZoomInfo {
        let p = profile::ZOOMINFO;
        let registry = BusinessRegistry::build(
            &world.orgs,
            seed.derive("zoominfo"),
            move |o, rng| profile_covers(&p, o, rng),
            move |o, rng| emit_naics_label(&p, o, rng),
        );
        ZoomInfo { registry }
    }

    /// Number of listed organizations.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the listing is empty.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }
}

impl DataSource for ZoomInfo {
    fn id(&self) -> SourceId {
        SourceId::ZoomInfo
    }

    fn lookup_org(&self, org: OrgId) -> Option<SourceMatch> {
        let e = self.registry.by_org(org)?;
        Some(SourceMatch {
            source: SourceId::ZoomInfo,
            entity: Some(e.org),
            domain: e.domain.clone(),
            raw_label: format!("NAICS {}", e.raw_label),
            categories: e.categories.clone(),
            confidence: None,
        })
    }

    fn search(&self, query: &Query) -> Option<SourceMatch> {
        if let Some(d) = &query.domain {
            if let Some(e) = self.registry.by_domain(d) {
                return self.lookup_org(e.org);
            }
        }
        let name = query.name.as_deref()?;
        let (entry, _) = self.registry.best_name_match_at_least(name, 0.60)?;
        self.lookup_org(entry.org)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use asdb_worldgen::WorldConfig;

    #[test]
    fn coverage_and_accuracy_sit_between_dnb_and_crunchbase() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(31)));
        let z = ZoomInfo::build(&w, WorldSeed::new(32));
        let frac = z.len() as f64 / w.orgs.len() as f64;
        assert!(frac > 0.55 && frac < 0.80, "coverage = {frac}");

        let (mut ok, mut n) = (0usize, 0usize);
        for org in &w.orgs {
            if let Some(m) = z.lookup_org(org.id) {
                ok += usize::from(m.categories.overlaps_l1(&org.truth()));
                n += 1;
            }
        }
        let l1 = ok as f64 / n.max(1) as f64;
        assert!((l1 - 0.74).abs() < 0.12, "L1 accuracy = {l1}");
    }
}
