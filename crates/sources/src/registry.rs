//! The shared business-registry machinery behind D&B, Crunchbase, ZoomInfo,
//! and Clearbit: coverage sampling, label emission with calibrated
//! confusion, and similarity-based search.

use crate::dnb::{AMBIGUITY_SPAN, MIN_MATCHABLE_BEST};
use crate::profile::SourceProfile;
use asdb_entity::similarity::{BOUND_SLACK, UNSHARED_JW_WEIGHT};
use asdb_entity::NormName;
use asdb_model::{Domain, FxHashMap, OrgId, WorldSeed};
use asdb_taxonomy::naicslite::known;
use asdb_taxonomy::translate::{naics_candidates, naics_to_naicslite};
use asdb_taxonomy::{CategorySet, Layer1, Layer2, NaicsCode};
use asdb_worldgen::Organization;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// One listed organization inside a business registry.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// Which real organization this entry describes.
    pub org: OrgId,
    /// The name as listed (usually the legal name).
    pub listed_name: String,
    /// The domain the registry has on file.
    pub domain: Option<Domain>,
    /// City on file.
    pub city: String,
    /// The source's raw label (NAICS codes or scheme category names).
    pub raw_label: String,
    /// The NAICSlite translation of the label.
    pub categories: CategorySet,
}

/// An in-memory registry with org/domain/name indexes.
#[derive(Debug, Clone, Default)]
pub struct BusinessRegistry {
    entries: Vec<RegistryEntry>,
    /// Each entry's listed name, normalized once at build time.
    names: Vec<NormName>,
    /// Every listed-name token, interned as an index into `postings`.
    /// Built from the registry's own names and probed with every query
    /// name's tokens: the fast hasher's kind of table.
    token_ids: FxHashMap<String, u32>,
    /// Per token id, the ascending indexes of the entries whose listed
    /// name has that token.
    postings: Vec<Vec<u32>>,
    by_org: HashMap<OrgId, usize>,
    by_domain: HashMap<Domain, usize>,
}

/// The running result of a name scan: the best entry so far (the lower
/// index wins a tie) and the best score among all other scored entries.
#[derive(Debug, Clone, Copy, Default)]
struct Leaders {
    best: Option<(usize, f64)>,
    second: f64,
}

impl Leaders {
    /// Fold in one scored entry. The result does not depend on the order
    /// entries are offered in.
    fn offer(&mut self, i: usize, s: f64) {
        match self.best {
            Some((bi, bs)) if s > bs || (s == bs && i < bi) => {
                self.second = bs;
                self.best = Some((i, s));
            }
            Some(_) => self.second = self.second.max(s),
            None => self.best = Some((i, s)),
        }
    }
}

impl BusinessRegistry {
    /// Build a registry from the organization population: `cover` decides
    /// membership, `label` produces the stored label.
    pub fn build(
        orgs: &[Organization],
        seed: WorldSeed,
        mut cover: impl FnMut(&Organization, &mut StdRng) -> bool,
        mut label: impl FnMut(&Organization, &mut StdRng) -> (String, CategorySet),
    ) -> BusinessRegistry {
        let mut reg = BusinessRegistry::default();
        for (i, org) in orgs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed.derive_index("entry", i as u64).value());
            if !cover(org, &mut rng) {
                continue;
            }
            let (raw_label, categories) = label(org, &mut rng);
            let idx = reg.entries.len();
            let name = NormName::new(org.legal_name.as_str());
            // Tokens are deduplicated per name and entries arrive in index
            // order, so every postings list is strictly ascending.
            for token in name.tokens() {
                let next = reg.postings.len() as u32;
                let id = *reg.token_ids.entry(token.clone()).or_insert(next);
                if id == next {
                    reg.postings.push(Vec::new());
                }
                reg.postings[id as usize].push(idx as u32);
            }
            reg.names.push(name);
            reg.entries.push(RegistryEntry {
                org: org.id,
                listed_name: org.legal_name.as_str().to_owned(),
                domain: org.domain.clone(),
                city: org.city.clone(),
                raw_label,
                categories,
            });
            reg.by_org.insert(org.id, idx);
            if let Some(d) = &org.domain {
                reg.by_domain.entry(d.registrable()).or_insert(idx);
            }
        }
        reg
    }

    /// Number of listed organizations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Manual lookup by exact organization.
    pub fn by_org(&self, org: OrgId) -> Option<&RegistryEntry> {
        self.by_org.get(&org).map(|&i| &self.entries[i])
    }

    /// Exact (registrable) domain lookup.
    pub fn by_domain(&self, domain: &Domain) -> Option<&RegistryEntry> {
        self.by_domain
            .get(&domain.registrable())
            .map(|&i| &self.entries[i])
    }

    /// Best name match with its similarity score, the first entry winning
    /// a tie, when that score is at least `min`; `None` otherwise. Entries
    /// whose score bound falls below `min`, or below the best so far, are
    /// skipped unscored.
    pub fn best_name_match_at_least(&self, name: &str, min: f64) -> Option<(&RegistryEntry, f64)> {
        let leaders = self.scan(&NormName::new(name), |l| {
            l.best.map_or(min, |(_, bs)| bs.max(min))
        });
        let (i, s) = leaders.best.filter(|&(_, s)| s >= min)?;
        Some((&self.entries[i], s))
    }

    /// Best name match plus the runner-up's score — the margin between the
    /// two is the matching engine's ambiguity signal ("there is no control
    /// over which company is chosen if multiple companies share the same
    /// name", §3.5; ambiguous matches get low confidence codes).
    ///
    /// The search is capped to what D&B reads. A best below
    /// [`MIN_MATCHABLE_BEST`] never yields a D&B match, and a runner-up
    /// more than [`AMBIGUITY_SPAN`] below the best adds no ambiguity
    /// penalty. So entries whose score bound falls below the runner-up,
    /// below the best minus the span, or below `MIN_MATCHABLE_BEST −
    /// AMBIGUITY_SPAN` are skipped unscored. When the best is at least
    /// `MIN_MATCHABLE_BEST`, the entry and its score are exact, and so is
    /// the runner-up whenever it lies within the span; otherwise the
    /// returned runner-up may be lower than the true one, but still more
    /// than the span below the best. A best below `MIN_MATCHABLE_BEST` may
    /// come back as another entry, a lower runner-up, or `None`.
    pub fn best_two_name_match(&self, name: &str) -> Option<(&RegistryEntry, f64, f64)> {
        let leaders = self.scan(&NormName::new(name), |l| {
            let below_best = l.best.map_or(0.0, |(_, bs)| bs - AMBIGUITY_SPAN);
            l.second
                .max(below_best)
                .max(MIN_MATCHABLE_BEST - AMBIGUITY_SPAN)
        });
        let (i, s) = leaders.best?;
        Some((&self.entries[i], s, leaders.second))
    }

    /// The scan core behind both searches. An entry is scored only when
    /// its score bound reaches `floor` of the leaders so far, so `floor`
    /// must never exceed the score of an entry the caller needs exactly.
    ///
    /// Entries that share a token with the query are found through the
    /// postings: concatenating the query tokens' lists and counting runs
    /// of equal indexes (ScanCount) gives each such candidate's exact
    /// shared-token count, from which the token terms follow without a
    /// merge walk. Candidates are scored highest bound first, so the floor
    /// rises early and the scan stops at the first bound below it. Every
    /// other entry shares no token, so it scores at most
    /// [`UNSHARED_JW_WEIGHT`]: those are visited second, in index order,
    /// and only while the floor still lets that through. A query without
    /// tokens scores through the token terms of empty sets, so it visits
    /// every entry.
    fn scan(&self, query: &NormName, floor: impl Fn(&Leaders) -> f64) -> Leaders {
        let mut leaders = Leaders::default();
        let mut hits: Vec<u32> = query
            .tokens()
            .iter()
            .filter_map(|t| self.token_ids.get(t))
            .flat_map(|&id| self.postings[id as usize].iter().copied())
            .collect();
        hits.sort_unstable();
        let mut candidates: Vec<(f64, usize, usize)> = hits
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let (i, shared) = (run[0] as usize, run.len());
                (
                    query.similarity_bound_sharing(&self.names[i], shared),
                    i,
                    shared,
                )
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        for &(bound, i, shared) in &candidates {
            if bound + BOUND_SLACK < floor(&leaders) {
                break;
            }
            leaders.offer(i, query.similarity_sharing(&self.names[i], shared));
        }
        let has_tokens = !query.tokens().is_empty();
        hits.dedup();
        let mut hits = hits.into_iter().peekable();
        for (i, listed) in self.names.iter().enumerate() {
            if hits.next_if_eq(&(i as u32)).is_some() {
                continue;
            }
            if has_tokens && floor(&leaders) > UNSHARED_JW_WEIGHT + BOUND_SLACK {
                break;
            }
            if query.similarity_bound_sharing(listed, 0) + BOUND_SLACK >= floor(&leaders) {
                leaders.offer(i, query.similarity_sharing(listed, 0));
            }
        }
        leaders
    }

    /// Iterate entries.
    pub fn iter(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter()
    }
}

/// Coverage draw for a standard profile.
pub fn profile_covers(profile: &SourceProfile, org: &Organization, rng: &mut StdRng) -> bool {
    let p = if org.is_tech() {
        profile.coverage_tech
    } else {
        profile.coverage_nontech
    };
    rng.random_bool(p)
}

/// The per-class correctness probability a profile assigns to a label of
/// `class`: the org's primary category, or its secondary one when the label
/// describes that line of business.
pub fn correctness_for(profile: &SourceProfile, class: Layer2) -> f64 {
    if class == known::isp() {
        profile.l2_correct_isp
    } else if class == known::hosting() {
        profile.l2_correct_hosting
    } else if class.layer1.is_tech() {
        profile.l2_correct_tech
    } else {
        profile.l2_correct_nontech
    }
}

/// Emit a NAICS-code label for an organization under a profile: correct
/// with the probability of the labeled class, otherwise the documented
/// confusion (interchangeable tech codes; sibling codes within the sector;
/// a cross-sector escape at rate `1 - l1_correct`). A confused label never
/// names any of the org's true subcategories.
pub fn emit_naics_label(
    profile: &SourceProfile,
    org: &Organization,
    rng: &mut StdRng,
) -> (String, CategorySet) {
    // Multi-service orgs sometimes get labeled by their secondary line of
    // business — accurate, but a source of nuanced disagreement.
    let target: Layer2 = match org.secondary {
        Some(s) if rng.random_bool(0.25) => s,
        _ => org.category,
    };
    // Two-stage draw: first whether the layer-1 family is right (the
    // profile's `l1_correct` is the *marginal* layer-1 accuracy), then —
    // conditionally — whether the layer-2 subcategory is right too.
    let l1_right = rng.random_bool(profile.l1_correct);
    let p_l2_given_l1 = (correctness_for(profile, target) / profile.l1_correct).clamp(0.0, 1.0);
    let correct = l1_right && rng.random_bool(p_l2_given_l1);
    let truth = org.truth();
    let code: NaicsCode = if correct {
        // Prefer candidates whose translation actually lands back on the
        // target subcategory; some categories (computer security, §3.2:
        // NAICS "has no code for computer security organizations") are
        // inexpressible, in which case the nearest candidate is used and
        // the label is simply imprecise — as it is for the real services.
        let cands = naics_candidates(target);
        let expressive: Vec<NaicsCode> = cands
            .iter()
            .copied()
            .filter(|c| naics_to_naicslite(*c).layer2s().contains(&target))
            .collect();
        *expressive
            .choose(rng)
            .or_else(|| cands.first())
            .expect("every layer2 has candidates")
    } else if !l1_right {
        // Cross-sector escape: a wholly wrong code.
        random_cross_sector_code(target.layer1, rng)
    } else if target.layer1 == Layer1::ComputerAndIT {
        // The interchangeable-tech-code failure: ISPs and hosting providers
        // get one of the three §3.3 codes, or the hosting/data-processing
        // code, without regard to which subcategory is right.
        let pool: Vec<u32> = [517911u32, 541512, 519190, 518210]
            .into_iter()
            // Never accidentally emit a code that is actually correct, for
            // the secondary line of business either.
            .filter(|c| !naics_to_naicslite(NaicsCode::six(*c)).overlaps_l2(&truth))
            .collect();
        NaicsCode::six(*pool.choose(rng).unwrap_or(&519190))
    } else {
        // Wrong sibling within the right sector.
        wrong_sibling(target, &truth, rng)
    };
    (code.to_string(), naics_to_naicslite(code))
}

/// A code from a different layer-1 family.
fn random_cross_sector_code(avoid: Layer1, rng: &mut StdRng) -> NaicsCode {
    for _ in 0..32 {
        let l1 = *Layer1::ALL.choose(rng).expect("non-empty");
        if l1 == avoid || l1 == Layer1::Other {
            continue;
        }
        let subs: Vec<Layer2> = l1.layer2_iter().collect();
        let l2 = *subs.choose(rng).expect("non-empty");
        if let Some(code) = naics_candidates(l2).first() {
            return *code;
        }
    }
    NaicsCode::six(541611)
}

/// A code for a *different* subcategory of the same layer-1 family, naming
/// none of the `truth` subcategories.
fn wrong_sibling(target: Layer2, truth: &CategorySet, rng: &mut StdRng) -> NaicsCode {
    let siblings: Vec<Layer2> = target
        .layer1
        .layer2_iter()
        .filter(|l2| *l2 != target)
        .collect();
    for _ in 0..16 {
        if let Some(s) = siblings.choose(rng) {
            let cands = naics_candidates(*s);
            if let Some(c) = cands.choose(rng) {
                // The candidate must not translate back onto a true label.
                if !naics_to_naicslite(*c).overlaps_l2(truth) {
                    return *c;
                }
            }
        }
    }
    NaicsCode::six(541611)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile;
    use asdb_model::WorldSeed;
    use asdb_worldgen::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::small(WorldSeed::new(77)))
    }

    fn dnb_like(w: &World) -> BusinessRegistry {
        let p = profile::DNB;
        BusinessRegistry::build(
            &w.orgs,
            WorldSeed::new(1),
            move |o, rng| profile_covers(&p, o, rng),
            move |o, rng| emit_naics_label(&p, o, rng),
        )
    }

    #[test]
    fn coverage_tracks_profile() {
        let w = world();
        let reg = dnb_like(&w);
        let frac = reg.len() as f64 / w.orgs.len() as f64;
        // Blend of 76% tech / 94% non-tech at 64% tech mix ≈ 82%.
        assert!((frac - 0.82).abs() < 0.06, "coverage = {frac}");
    }

    #[test]
    fn lookups_work() {
        let w = world();
        let reg = dnb_like(&w);
        let entry = reg.iter().next().unwrap();
        assert_eq!(reg.by_org(entry.org).unwrap().org, entry.org);
        if let Some(d) = &entry.domain {
            assert_eq!(reg.by_domain(d).unwrap().org, entry.org);
        }
    }

    #[test]
    fn best_name_match_finds_exact_names() {
        let w = world();
        let reg = dnb_like(&w);
        let entry = reg.iter().nth(3).unwrap().clone();
        let (found, score) = reg
            .best_name_match_at_least(&entry.listed_name, 0.0)
            .unwrap();
        assert_eq!(found.org, entry.org);
        assert!(score > 0.95);
    }

    #[test]
    fn leaders_do_not_depend_on_visiting_order() {
        use rand::check::{self, vec_of, CASES};
        use rand::seq::SliceRandom;
        check::cases(
            CASES,
            |rng| {
                // Few distinct scores, so ties are common.
                let scored = vec_of(rng, 1..12, |r| [0.0, 0.5, 0.75, 1.0][r.random_range(0..4)]);
                let mut order: Vec<usize> = (0..scored.len()).collect();
                order.shuffle(rng);
                (scored, order)
            },
            |(scored, order)| {
                let (mut in_order, mut shuffled) = (Leaders::default(), Leaders::default());
                for (i, &s) in scored.iter().enumerate() {
                    in_order.offer(i, s);
                }
                for &i in &order {
                    shuffled.offer(i, scored[i]);
                }
                let first_best = scored.iter().copied().fold(f64::MIN, f64::max);
                let i = scored.iter().position(|&s| s == first_best).unwrap();
                assert_eq!(in_order.best, Some((i, first_best)));
                assert_eq!(shuffled.best, in_order.best);
                assert_eq!(shuffled.second.to_bits(), in_order.second.to_bits());
            },
        );
    }

    #[test]
    fn emission_accuracy_tracks_profile() {
        let w = world();
        let reg = dnb_like(&w);
        let mut isp = (0usize, 0usize);
        let mut hosting = (0usize, 0usize);
        let mut nontech = (0usize, 0usize);
        for e in reg.iter() {
            let org = w.org(e.org).unwrap();
            let truth = org.truth();
            let ok = e.categories.overlaps_l2(&truth);
            if org.category == known::isp() {
                isp.0 += usize::from(ok);
                isp.1 += 1;
            } else if org.category == known::hosting() {
                hosting.0 += usize::from(ok);
                hosting.1 += 1;
            } else if !org.is_tech() {
                nontech.0 += usize::from(ok);
                nontech.1 += 1;
            }
        }
        let rate = |(a, b): (usize, usize)| a as f64 / b.max(1) as f64;
        // Small-world tolerances are generous; the shape is what matters.
        assert!((rate(isp) - 0.70).abs() < 0.12, "isp = {:?}", rate(isp));
        assert!(rate(hosting) < 0.70, "hosting = {:?}", rate(hosting));
        assert!(rate(nontech) > 0.75, "nontech = {:?}", rate(nontech));
        assert!(rate(nontech) > rate(hosting), "hosting must be hardest");
    }

    #[test]
    fn l1_errors_are_rare() {
        let w = world();
        let reg = dnb_like(&w);
        let mut ok = 0usize;
        let mut n = 0usize;
        for e in reg.iter() {
            let org = w.org(e.org).unwrap();
            n += 1;
            ok += usize::from(e.categories.overlaps_l1(&org.truth()));
        }
        let rate = ok as f64 / n as f64;
        assert!(rate > 0.90, "l1 accuracy = {rate}");
    }

    #[test]
    fn registry_is_deterministic() {
        let w = world();
        let a = dnb_like(&w);
        let b = dnb_like(&w);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.org, y.org);
            assert_eq!(x.raw_label, y.raw_label);
        }
    }
}
