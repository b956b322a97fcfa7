//! Differential tests of the pruned registry name search against the
//! original string-based scorer and linear scan, which live here and only
//! here as the oracle.
//!
//! The search normalizes every listed name once, finds the entries that
//! share a token with the query through token postings, scores entries
//! through [`NormName`], and skips an entry when an upper bound on its
//! score cannot reach the scan's floor. These tests pin that the
//! normalized score is bit-equal to the oracle's, that the bound never
//! undercuts the score, and that over whole standard worlds and over small
//! random registries the pruned searches return what the linear scan
//! returns: exactly for Crunchbase's thresholded search, and for D&B's
//! runner-up search exactly wherever D&B reads it, with D&B's match built
//! from either result equal.

use asdb_entity::{name_similarity, NormName};
use asdb_model::org::LEGAL_SUFFIXES;
use asdb_model::WorldSeed;
use asdb_sources::crunchbase::Crunchbase;
use asdb_sources::dnb::{Dnb, AMBIGUITY_SPAN, MIN_MATCHABLE_BEST};
use asdb_sources::registry::BusinessRegistry;
use asdb_sources::Query;
use asdb_taxonomy::CategorySet;
use asdb_worldgen::{World, WorldConfig};
use rand::check::{self, any_string, class_string, vec_of};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

/// The oracle scorer: the string-based `name_similarity` the normalized
/// one replaced, with its Jaro, Jaro–Winkler and token-set helpers. A
/// name's inputs (its lowercased chars and token set) are [`Prepared`]
/// once, so a scan over a registry does not rebuild them per pair; every
/// step of the score is the original's.
///
/// [`Prepared`]: oracle::Prepared
mod oracle {
    use std::collections::BTreeSet;

    /// What the scorer reads of one name: the chars of the lowercased
    /// name, and the token set of the lowercased name.
    pub struct Prepared {
        chars: Vec<char>,
        tokens: BTreeSet<String>,
    }

    impl Prepared {
        pub fn new(name: &str) -> Prepared {
            let lower = name.to_lowercase();
            Prepared {
                chars: lower.chars().collect(),
                tokens: tokens(&lower),
            }
        }
    }

    pub fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        jaro_chars(&a, &b)
    }

    fn jaro_chars(a: &[char], b: &[char]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_taken = vec![false; b.len()];
        let mut matches_a: Vec<char> = Vec::with_capacity(a.len());
        let mut match_positions_b: Vec<usize> = Vec::with_capacity(a.len());
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            let lo = lo.min(hi);
            let in_window = b[lo..hi].iter().zip(&mut b_taken[lo..hi]);
            for (j, (&cb, taken)) in (lo..).zip(in_window) {
                if cb == ca && !*taken {
                    *taken = true;
                    matches_a.push(ca);
                    match_positions_b.push(j);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let mut b_matches: Vec<(usize, char)> =
            match_positions_b.iter().map(|&j| (j, b[j])).collect();
        b_matches.sort_by_key(|(j, _)| *j);
        let t = matches_a
            .iter()
            .zip(b_matches.iter().map(|(_, c)| c))
            .filter(|(x, y)| x != y)
            .count() as f64
            / 2.0;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    fn jaro_winkler(a: &[char], b: &[char]) -> f64 {
        let j = jaro_chars(a, b);
        let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }

    fn token_jaccard(ta: &BTreeSet<String>, tb: &BTreeSet<String>) -> f64 {
        if ta.is_empty() && tb.is_empty() {
            return 1.0;
        }
        if ta.is_empty() || tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(tb).count() as f64;
        let union = ta.union(tb).count() as f64;
        inter / union
    }

    fn tokens(s: &str) -> BTreeSet<String> {
        s.split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() >= 2)
            .map(str::to_lowercase)
            .filter(|t| !asdb_model::org::LEGAL_SUFFIXES.contains(&t.as_str()))
            .collect()
    }

    pub fn name_similarity(a: &str, b: &str) -> f64 {
        similarity(&Prepared::new(a), &Prepared::new(b))
    }

    pub fn similarity(a: &Prepared, b: &Prepared) -> f64 {
        let jw = jaro_winkler(&a.chars, &b.chars);
        let jac = token_jaccard(&a.tokens, &b.tokens);
        let (ta, tb) = (&a.tokens, &b.tokens);
        let subset_bonus =
            if !ta.is_empty() && !tb.is_empty() && (ta.is_subset(tb) || tb.is_subset(ta)) {
                0.85
            } else {
                0.0
            };
        let jw_weighted = if jac > 0.0 { jw } else { jw * 0.75 };
        jw_weighted.max(jac).max(subset_bonus)
    }
}

/// The oracle's score of `name` against every entry of `reg`, in index
/// order.
fn scores(reg: &BusinessRegistry, name: &str) -> Vec<f64> {
    let name = oracle::Prepared::new(name);
    reg.iter()
        .map(|e| oracle::similarity(&name, &oracle::Prepared::new(&e.listed_name)))
        .collect()
}

/// The oracle search: the linear scan that scored every entry, given the
/// scores in index order, returning the first best entry's index, its
/// score and the runner-up's score.
fn linear_best_two(scores: impl IntoIterator<Item = f64>) -> Option<(usize, f64, f64)> {
    let mut best: Option<(usize, f64)> = None;
    let mut second: f64 = 0.0;
    for (i, s) in scores.into_iter().enumerate() {
        match best {
            Some((_, bs)) if bs >= s => {
                if s > second {
                    second = s;
                }
            }
            Some((_, bs)) => {
                second = bs;
                best = Some((i, s));
            }
            None => best = Some((i, s)),
        }
    }
    best.map(|(i, s)| (i, s, second))
}

fn index_of(reg: &BusinessRegistry, entry: &asdb_sources::registry::RegistryEntry) -> usize {
    reg.iter()
        .position(|e| std::ptr::eq(e, entry))
        .expect("entry belongs to the registry")
}

/// D&B's capped runner-up search against the oracle's `(entry, best,
/// runner-up)`. When the oracle best can yield a match (it is at least
/// [`MIN_MATCHABLE_BEST`]), the entry and best are bit-equal, and so is the
/// runner-up whenever it lies within [`AMBIGUITY_SPAN`] of the best — the
/// only range the ambiguity penalty reads. A runner-up further down may
/// come back lower, but only when the oracle's is beyond the span by more
/// than the bound slack, where either one gives no penalty.
fn assert_capped(pruned: Option<(usize, f64, f64)>, oracle: Option<(usize, f64, f64)>, what: &str) {
    let Some((i, best, second)) = oracle.filter(|&(_, best, _)| best >= MIN_MATCHABLE_BEST) else {
        return;
    };
    let (pi, pbest, psecond) = pruned.unwrap_or_else(|| panic!("{what}: no match"));
    assert_eq!((pi, pbest.to_bits()), (i, best.to_bits()), "{what}");
    if second >= best - AMBIGUITY_SPAN {
        assert_eq!(psecond.to_bits(), second.to_bits(), "{what}");
    } else {
        assert!(psecond <= second, "{what}: runner-up {psecond} > {second}");
        assert!(
            psecond == second || second + 1e-9 < best - AMBIGUITY_SPAN,
            "{what}: runner-up {psecond} vs {second}"
        );
    }
}

/// Every AS name of one standard world, searched as the pipeline's stage 3
/// sends it (`Query::name` is the parsed WHOIS name, with its address),
/// against D&B's runner-up search and Crunchbase's thresholded one.
fn check_world(seed: u64) {
    let world = World::generate(WorldConfig::standard(WorldSeed::new(seed)));
    let build_seed = WorldSeed::new(seed).derive("sources");
    let dnb = Dnb::build(&world, build_seed);
    let crunchbase = Crunchbase::build(&world, build_seed);
    // The two registries share most listed names: each distinct one is
    // prepared once and scored once per query, and each entry reads its
    // name's score.
    let listed: Vec<&str> = dnb
        .registry()
        .iter()
        .chain(crunchbase.registry().iter())
        .map(|e| e.listed_name.as_str())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let prepared: Vec<_> = listed.iter().map(|n| oracle::Prepared::new(n)).collect();
    let slots = |reg: &BusinessRegistry| -> Vec<usize> {
        reg.iter()
            .map(|e| {
                listed
                    .binary_search(&e.listed_name.as_str())
                    .expect("listed")
            })
            .collect()
    };
    let (dnb_slots, crunchbase_slots) = (slots(dnb.registry()), slots(crunchbase.registry()));
    let mut queries: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for r in &world.ases {
        let address = r.parsed.address.as_deref();
        queries
            .entry(r.parsed.name.as_str())
            .or_default()
            .insert(address);
    }
    for (name, addresses) in queries {
        let query = oracle::Prepared::new(name);
        let score: Vec<f64> = prepared
            .iter()
            .map(|listed| oracle::similarity(&query, listed))
            .collect();
        let reg = dnb.registry();
        let pruned = reg
            .best_two_name_match(name)
            .map(|(e, s, r)| (index_of(reg, e), s, r));
        let linear = linear_best_two(dnb_slots.iter().map(|&k| score[k]));
        assert_capped(pruned, linear, &format!("D&B, seed {seed}, name {name:?}"));
        for address in addresses {
            let query = Query {
                address: address.map(str::to_owned),
                ..Query::by_name(name)
            };
            let expected = linear.and_then(|(i, best, second)| {
                let entry = reg.iter().nth(i).expect("oracle index");
                dnb.name_match(&query, name, entry, best, second)
            });
            assert_eq!(
                dnb.search_with_confidence(&query),
                expected,
                "D&B match, seed {seed}, query {query:?}"
            );
        }

        let reg = crunchbase.registry();
        let pruned = reg
            .best_name_match_at_least(name, 0.82)
            .map(|(e, s)| (index_of(reg, e), s.to_bits()));
        let linear = linear_best_two(crunchbase_slots.iter().map(|&k| score[k]))
            .filter(|&(_, s, _)| s >= 0.82)
            .map(|(i, s, _)| (i, s.to_bits()));
        assert_eq!(pruned, linear, "Crunchbase, seed {seed}, name {name:?}");
    }
}

#[test]
fn pruned_searches_equal_the_linear_scan_on_standard_worlds() {
    std::thread::scope(|scope| {
        for seed in 1..=3 {
            scope.spawn(move || check_world(seed));
        }
    });
}

/// A name as WHOIS and registries spell them, or degenerate: real-looking
/// words, legal suffixes, 1-char tokens, non-ASCII fragments, or nothing.
fn draw_name(rng: &mut StdRng) -> String {
    match rng.random_range(0u32..4) {
        0 => any_string(rng, 0..=40),
        1 => class_string(rng, "a-zA-Z0-9 .,&-", 0..=30),
        _ => {
            let words = vec_of(rng, 0..6, |r| match r.random_range(0u32..5) {
                0 => LEGAL_SUFFIXES[r.random_range(0..LEGAL_SUFFIXES.len())].to_uppercase(),
                1 => class_string(r, "a-zA-Z0-9", 1..=1),
                2 => any_string(r, 1..=4),
                _ => class_string(r, "a-z", 2..=9),
            });
            let sep = [" ", ", ", "-", " & "][rng.random_range(0..4)];
            words.join(sep)
        }
    }
}

#[test]
fn normalized_score_is_bit_equal_and_bounded() {
    check::cases(
        4096,
        |rng| (draw_name(rng), draw_name(rng)),
        |(a, b)| {
            let expected = oracle::name_similarity(&a, &b);
            let (na, nb) = (NormName::new(&a), NormName::new(&b));
            let score = na.similarity(&nb);
            assert_eq!(score.to_bits(), expected.to_bits(), "{score} vs {expected}");
            assert_eq!(name_similarity(&a, &b).to_bits(), expected.to_bits());
            assert_eq!(
                asdb_entity::jaro(&a, &b).to_bits(),
                oracle::jaro(&a, &b).to_bits()
            );
            let bound = na.similarity_bound(&nb);
            assert!(bound >= score, "bound {bound} < score {score}");
            // A floor the score reaches never prunes.
            assert_eq!(na.similarity_at_least(&nb, score), Some(score));
        },
    );
}

#[test]
fn degenerate_names_score_like_the_oracle() {
    // Empty token sets on both sides: Jaccard is 1.0.
    for (a, b) in [
        ("", ""),
        ("", "Acme"),
        ("Inc", "LLC"),
        ("a b c", "x y"),
        ("Corp", ""),
        ("Ltd.", "Ltd."),
        ("Üñí Çødé GmbH", "üñí çødé"),
        ("\u{212A}elvin", "kelvin"),
    ] {
        let expected = oracle::name_similarity(a, b);
        assert_eq!(
            name_similarity(a, b).to_bits(),
            expected.to_bits(),
            "{a:?} {b:?}"
        );
        let (na, nb) = (NormName::new(a), NormName::new(b));
        assert!(na.similarity_bound(&nb) >= expected, "{a:?} {b:?}");
    }
}

/// Standard worlds have no listed name without tokens, and few exact ties
/// on either side of the split between entries that share a query token
/// and entries that do not. Small random registries of degenerate names,
/// with forced duplicates, cover both: the empty-token query's full pass,
/// and ties visited out of index order.
#[test]
fn pruned_searches_equal_the_linear_scan_on_small_random_registries() {
    let world = World::generate(WorldConfig::small(WorldSeed::new(5)));
    check::cases(
        1024,
        |rng| {
            let mut names: Vec<String> = Vec::new();
            for _ in 0..rng.random_range(1..=40) {
                let name = match names.len() {
                    n if n > 0 && rng.random_bool(0.3) => names[rng.random_range(0..n)].clone(),
                    _ => draw_name(rng),
                };
                names.push(name);
            }
            let query = if rng.random_bool(0.3) {
                names[rng.random_range(0..names.len())].clone()
            } else {
                draw_name(rng)
            };
            (names, query)
        },
        |(names, query)| {
            let orgs: Vec<_> = world
                .orgs
                .iter()
                .zip(&names)
                .map(|(org, name)| {
                    let mut org = org.clone();
                    org.legal_name = asdb_model::OrgName::new(name);
                    org
                })
                .collect();
            let reg = BusinessRegistry::build(
                &orgs,
                WorldSeed::new(1),
                |_, _| true,
                |_, _| (String::new(), CategorySet::new()),
            );
            let linear = linear_best_two(scores(&reg, &query));
            for min in [0.0, 0.60, 0.82] {
                let pruned = reg
                    .best_name_match_at_least(&query, min)
                    .map(|(e, s)| (index_of(&reg, e), s.to_bits()));
                let expected = linear
                    .filter(|&(_, s, _)| s >= min)
                    .map(|(i, s, _)| (i, s.to_bits()));
                assert_eq!(pruned, expected, "at least {min}");
            }
            let pruned = reg
                .best_two_name_match(&query)
                .map(|(e, s, r)| (index_of(&reg, e), s, r));
            assert_capped(pruned, linear, "best two");
        },
    );
}
