//! Simulated Crunchbase.
//!
//! "Crunchbase provides a bulk dataset that can be queried by name and/or
//! domain. For all ASes with an available domain, Crunchbase achieves a
//! 100% matching accuracy and 12% coverage … To query ASes with no
//! available domains, we search Crunchbase using a tokenized version of the
//! AS name; Crunchbase achieves 95% matching accuracy" (§3.5). Coverage
//! skews to startups and US companies; labels use Crunchbase's own category
//! scheme (37% overall coverage, strong non-tech precision, weak tech
//! differentiation — Tables 3/4/11).

use crate::profile;
use crate::registry::{correctness_for, BusinessRegistry};
use crate::{DataSource, Query, SourceId, SourceMatch};
use asdb_model::{OrgId, WorldSeed};
use asdb_taxonomy::schemes::{Scheme, CRUNCHBASE};
use asdb_taxonomy::{Category, CategorySet, Layer2};
use asdb_worldgen::{Organization, World};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::RngExt;

/// The simulated Crunchbase service.
#[derive(Debug, Clone)]
pub struct Crunchbase {
    registry: BusinessRegistry,
}

/// Emit a scheme label under a profile: a category covering the truth when
/// correct, a same-L1 or cross-L1 wrong category otherwise.
pub(crate) fn emit_scheme_label(
    scheme: &'static Scheme,
    profile: &profile::SourceProfile,
    org: &Organization,
    rng: &mut StdRng,
) -> (String, CategorySet) {
    let target: Layer2 = match org.secondary {
        Some(s) if rng.random_bool(0.25) => s,
        _ => org.category,
    };
    // Two-stage draw, mirroring `emit_naics_label`: layer-1 first, then
    // layer-2 conditionally.
    let l1_right = rng.random_bool(profile.l1_correct);
    let p_l2_given_l1 = (correctness_for(profile, target) / profile.l1_correct).clamp(0.0, 1.0);
    let correct = l1_right && rng.random_bool(p_l2_given_l1);
    let chosen = if correct {
        let covering = scheme.covering(Category::l2(target));
        covering.choose(rng).copied().cloned()
    } else {
        None
    };
    let truth = org.truth();
    let cat = match chosen {
        Some(c) => c,
        None => {
            let stay_l1 = l1_right;
            let pool: Vec<_> = scheme
                .categories
                .iter()
                .filter(|c| {
                    let set = c.to_naicslite();
                    let has_l1 = set.layer1s().contains(&target.layer1);
                    let has_l2 = set.overlaps_l2(&truth);
                    if correct {
                        // Scheme had no covering category (rare): fall back
                        // to same-L1.
                        has_l1
                    } else if stay_l1 {
                        // Wrong within the family: none of the true
                        // subcategories, the secondary one included.
                        has_l1 && !has_l2
                    } else {
                        !has_l1
                    }
                })
                .collect();
            pool.choose(rng)
                .copied()
                .or_else(|| scheme.categories.first())
                .expect("scheme non-empty")
                .clone()
        }
    };
    (cat.name.to_owned(), cat.to_naicslite())
}

impl Crunchbase {
    /// Build over a world.
    pub fn build(world: &World, seed: WorldSeed) -> Crunchbase {
        let p = profile::CRUNCHBASE;
        let registry = BusinessRegistry::build(
            &world.orgs,
            seed.derive("crunchbase"),
            move |o, rng| {
                // Startup/US skew: startups are near-certain members;
                // everyone else draws at a reduced rate so the marginal
                // coverage still matches the profile.
                let base = if o.is_tech() {
                    p.coverage_tech
                } else {
                    p.coverage_nontech
                };
                let adjusted = if o.startup {
                    (base * 2.5).min(0.98)
                } else if o.country.as_str() == "US" {
                    base * 1.3
                } else {
                    base * 0.75
                };
                rng.random_bool(adjusted.min(1.0))
            },
            move |o, rng| emit_scheme_label(&CRUNCHBASE, &p, o, rng),
        );
        Crunchbase { registry }
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
}

impl DataSource for Crunchbase {
    fn id(&self) -> SourceId {
        SourceId::Crunchbase
    }

    fn lookup_org(&self, org: OrgId) -> Option<SourceMatch> {
        let e = self.registry.by_org(org)?;
        Some(SourceMatch {
            source: SourceId::Crunchbase,
            entity: Some(e.org),
            domain: e.domain.clone(),
            raw_label: e.raw_label.clone(),
            categories: e.categories.clone(),
            confidence: None,
        })
    }

    fn search(&self, query: &Query) -> Option<SourceMatch> {
        // Domain query: exact, precise.
        if let Some(d) = &query.domain {
            if let Some(e) = self.registry.by_domain(d) {
                return self.lookup_org(e.org);
            }
        }
        // Tokenized-name query: demands near-exact token overlap, which is
        // what makes it 95% precise but low-coverage.
        let name = query.name.as_deref()?;
        let (entry, _) = self.registry.best_name_match_at_least(name, 0.82)?;
        self.lookup_org(entry.org)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use asdb_worldgen::WorldConfig;

    fn setup() -> (World, Crunchbase) {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(21)));
        let c = Crunchbase::build(&w, WorldSeed::new(22));
        (w, c)
    }

    #[test]
    fn coverage_is_lowest_of_business_sources() {
        let (w, c) = setup();
        let frac = c.len() as f64 / w.orgs.len() as f64;
        assert!(frac > 0.20 && frac < 0.50, "coverage = {frac}");
    }

    #[test]
    fn startups_are_overrepresented() {
        let (w, c) = setup();
        let (mut s_cov, mut s_n, mut o_cov, mut o_n) = (0usize, 0usize, 0usize, 0usize);
        for org in &w.orgs {
            let covered = c.lookup_org(org.id).is_some();
            if org.startup {
                s_cov += usize::from(covered);
                s_n += 1;
            } else {
                o_cov += usize::from(covered);
                o_n += 1;
            }
        }
        let s_rate = s_cov as f64 / s_n.max(1) as f64;
        let o_rate = o_cov as f64 / o_n.max(1) as f64;
        assert!(s_rate > o_rate, "startup {s_rate} vs other {o_rate}");
    }

    #[test]
    fn domain_query_is_exact() {
        let (w, c) = setup();
        let mut n = 0;
        for org in &w.orgs {
            if let (Some(d), Some(_)) = (&org.domain, c.lookup_org(org.id)) {
                let m = c.search(&Query::by_domain(d.clone())).unwrap();
                assert_eq!(
                    m.entity,
                    Some(org.id),
                    "domain matching must be 100% precise"
                );
                n += 1;
                if n > 40 {
                    break;
                }
            }
        }
        assert!(n > 10);
    }

    #[test]
    fn name_query_requires_high_similarity() {
        let (_, c) = setup();
        assert!(c
            .search(&Query::by_name("completely unrelated gibberish"))
            .is_none());
    }

    #[test]
    fn nontech_labels_are_precise() {
        let (w, c) = setup();
        let (mut ok, mut n) = (0usize, 0usize);
        for org in &w.orgs {
            if org.is_tech() {
                continue;
            }
            if let Some(m) = c.lookup_org(org.id) {
                ok += usize::from(m.categories.overlaps_l1(&org.truth()));
                n += 1;
            }
        }
        let rate = ok as f64 / n.max(1) as f64;
        assert!(rate > 0.70, "non-tech L1 accuracy = {rate}");
    }
}
