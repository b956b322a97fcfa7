//! NAICS → NAICSlite translation (§3.2).
//!
//! "We translate all NAICS categories to NAICSlite … this translation can be
//! done automatically." The translation is longest-prefix based: a 6-digit
//! code first looks for an exact entry, then its 5-, 4-, 3-, and 2-digit
//! prefixes. A single NAICS code may map to *several* NAICSlite categories —
//! that is precisely the ambiguity the paper blames for 58–67% of D&B's and
//! Zvelo's inaccurate matches ("D&B uses three different NAICS codes
//! interchangeably to classify both ISPs and hosting providers: 517911,
//! 541512, and 519190").
//!
//! The reverse direction, [`naics_candidates`], lists plausible NAICS codes
//! for each NAICSlite layer-2 category; the simulated expert labelers and
//! business databases draw from these lists.

use crate::naics::NaicsCode;
use crate::naicslite::{Category, CategorySet, Layer1, Layer2};
use asdb_model::FxHashMap;
use std::sync::OnceLock;

/// One translation rule: a NAICS prefix and the NAICSlite categories it
/// implies. More-specific (longer) prefixes win over shorter ones.
struct Rule {
    value: u32,
    digits: u8,
    targets: &'static [(Layer1, Option<u8>)],
}

const fn rule(value: u32, digits: u8, targets: &'static [(Layer1, Option<u8>)]) -> Rule {
    Rule {
        value,
        digits,
        targets,
    }
}

use Layer1::*;

/// The rule table. Order is irrelevant; longest matching prefix wins and all
/// rules of that length apply.
static RULES: &[Rule] = &[
    // ---- Sector-level fallbacks (2 digits) --------------------------------
    rule(11, 2, &[(Agriculture, Some(0))]),
    rule(21, 2, &[(Agriculture, Some(2))]),
    rule(22, 2, &[(Utilities, Some(5))]),
    rule(23, 2, &[(Construction, Some(3))]),
    rule(31, 2, &[(Manufacturing, Some(6))]),
    rule(32, 2, &[(Manufacturing, Some(6))]),
    rule(33, 2, &[(Manufacturing, Some(6))]),
    rule(42, 2, &[(Retail, Some(2))]),
    rule(44, 2, &[(Retail, Some(2))]),
    rule(45, 2, &[(Retail, Some(2))]),
    rule(48, 2, &[(Freight, Some(7))]),
    rule(49, 2, &[(Freight, Some(7))]),
    // Sector 51 ("Information") at 2-digit granularity reads as media /
    // publishing — the reason Clearbit's sector prefixes lose the tech
    // signal (Table 4: 6% tech recall).
    rule(51, 2, &[(Media, Some(5))]),
    rule(52, 2, &[(Finance, Some(4))]),
    rule(53, 2, &[(Construction, Some(2))]),
    rule(54, 2, &[(Service, Some(0))]),
    rule(55, 2, &[(Service, Some(0))]),
    rule(56, 2, &[(Service, Some(4))]),
    rule(61, 2, &[(Education, Some(5))]),
    rule(62, 2, &[(HealthCare, Some(3))]),
    rule(71, 2, &[(Entertainment, Some(6))]),
    rule(72, 2, &[(Travel, Some(7))]),
    rule(81, 2, &[(Service, Some(4))]),
    rule(92, 2, &[(Government, Some(3))]),
    // ---- Agriculture / mining ---------------------------------------------
    rule(111, 3, &[(Agriculture, Some(0))]),
    rule(1114, 4, &[(Agriculture, Some(1))]),
    rule(112, 3, &[(Agriculture, Some(4))]),
    rule(113, 3, &[(Agriculture, Some(3))]),
    rule(212, 3, &[(Agriculture, Some(2))]),
    rule(211, 3, &[(Agriculture, Some(2))]),
    rule(324, 3, &[(Agriculture, Some(2))]),
    // ---- Utilities -----------------------------------------------------------
    rule(2211, 4, &[(Utilities, Some(0))]),
    rule(221121, 6, &[(Utilities, Some(0))]),
    rule(221122, 6, &[(Utilities, Some(0))]),
    rule(22121, 5, &[(Utilities, Some(1))]),
    rule(221210, 6, &[(Utilities, Some(1))]),
    rule(221310, 6, &[(Utilities, Some(2))]),
    rule(221320, 6, &[(Utilities, Some(3))]),
    rule(221330, 6, &[(Utilities, Some(4))]),
    // ---- Construction / real estate --------------------------------------------
    rule(236, 3, &[(Construction, Some(0))]),
    rule(237, 3, &[(Construction, Some(1))]),
    rule(531, 3, &[(Construction, Some(2))]),
    // ---- Manufacturing ------------------------------------------------------------
    rule(3361, 4, &[(Manufacturing, Some(0))]),
    rule(311, 3, &[(Manufacturing, Some(1))]),
    rule(312, 3, &[(Manufacturing, Some(1))]),
    rule(313, 3, &[(Manufacturing, Some(2))]),
    rule(315, 3, &[(Manufacturing, Some(2))]),
    rule(333, 3, &[(Manufacturing, Some(3))]),
    rule(325, 3, &[(Manufacturing, Some(4))]),
    rule(334, 3, &[(Manufacturing, Some(5))]),
    rule(335, 3, &[(Manufacturing, Some(5))]),
    // ---- Retail / wholesale ----------------------------------------------------------
    rule(445, 3, &[(Retail, Some(0))]),
    rule(448, 3, &[(Retail, Some(1))]),
    rule(454110, 6, &[(Retail, Some(2))]),
    // ---- Transportation & postal --------------------------------------------------------
    rule(481, 3, &[(Freight, Some(1)), (Travel, Some(0))]),
    rule(481111, 6, &[(Travel, Some(0))]),
    rule(481212, 6, &[(Freight, Some(1))]),
    rule(482, 3, &[(Freight, Some(2)), (Travel, Some(1))]),
    rule(483, 3, &[(Freight, Some(3)), (Travel, Some(2))]),
    rule(484, 3, &[(Freight, Some(4))]),
    rule(485, 3, &[(Freight, Some(6))]),
    rule(487210, 6, &[(Entertainment, Some(5))]),
    rule(491, 3, &[(Freight, Some(0))]),
    rule(492, 3, &[(Freight, Some(0))]),
    rule(927110, 6, &[(Freight, Some(5))]),
    // ---- Information sector: the interesting part ------------------------------------------
    // ISPs and phone providers share wired-carrier codes — NAICS "combines
    // ISPs and phone providers in one code" (§3.2).
    rule(
        517311,
        6,
        &[(ComputerAndIT, Some(0)), (ComputerAndIT, Some(1))],
    ),
    rule(
        517312,
        6,
        &[(ComputerAndIT, Some(1)), (ComputerAndIT, Some(0))],
    ),
    rule(517410, 6, &[(ComputerAndIT, Some(6))]),
    rule(
        517919,
        6,
        &[
            (ComputerAndIT, Some(0)),
            (ComputerAndIT, Some(8)),
            (ComputerAndIT, Some(9)),
        ],
    ),
    // The three codes D&B uses "interchangeably to classify both ISPs and
    // hosting providers" (§3.3). The *translation* of each code is specific
    // — resellers, systems design, other information services — which is
    // exactly why D&B's interchangeable use of them destroys layer-2
    // accuracy: the translated label lands on the wrong subcategory.
    rule(
        517911,
        6,
        &[(ComputerAndIT, Some(0)), (ComputerAndIT, Some(1))],
    ),
    rule(
        541512,
        6,
        &[(ComputerAndIT, Some(5)), (ComputerAndIT, Some(4))],
    ),
    rule(519190, 6, &[(ComputerAndIT, Some(9))]),
    // "data processing has the same NAICS code as hosting provider" (§3.2).
    rule(
        518210,
        6,
        &[(ComputerAndIT, Some(2)), (ComputerAndIT, Some(9))],
    ),
    rule(
        519130,
        6,
        &[(Media, Some(1)), (Media, Some(0)), (ComputerAndIT, Some(7))],
    ),
    rule(511210, 6, &[(ComputerAndIT, Some(4))]),
    rule(5112, 4, &[(ComputerAndIT, Some(4))]),
    rule(5111, 4, &[(Media, Some(2))]),
    rule(5121, 4, &[(Media, Some(3))]),
    rule(5122, 4, &[(Media, Some(3))]),
    rule(5151, 4, &[(Media, Some(4))]),
    rule(519120, 6, &[(Entertainment, Some(0))]),
    // ---- Professional / technical services ---------------------------------------------------
    rule(
        541511,
        6,
        &[(ComputerAndIT, Some(4)), (ComputerAndIT, Some(5))],
    ),
    rule(
        541513,
        6,
        &[(ComputerAndIT, Some(2)), (ComputerAndIT, Some(5))],
    ),
    rule(541519, 6, &[(ComputerAndIT, Some(9))]),
    rule(541690, 6, &[(Service, Some(0)), (ComputerAndIT, Some(5))]),
    rule(5411, 4, &[(Service, Some(0))]),
    rule(54121, 5, &[(Finance, Some(2))]),
    rule(541611, 6, &[(Service, Some(0))]),
    rule(54171, 5, &[(Education, Some(3))]),
    rule(54172, 5, &[(Education, Some(3))]),
    // ---- Finance ---------------------------------------------------------------------------------
    rule(5221, 4, &[(Finance, Some(0))]),
    rule(5222, 4, &[(Finance, Some(0))]),
    rule(5223, 4, &[(Finance, Some(0))]),
    rule(5241, 4, &[(Finance, Some(1))]),
    rule(5242, 4, &[(Finance, Some(1))]),
    rule(5239, 4, &[(Finance, Some(3))]),
    rule(5251, 4, &[(Finance, Some(3))]),
    // ---- Education -----------------------------------------------------------------------------------
    rule(611110, 6, &[(Education, Some(0))]),
    rule(611310, 6, &[(Education, Some(1))]),
    rule(6114, 4, &[(Education, Some(2))]),
    rule(6115, 4, &[(Education, Some(2))]),
    rule(6116, 4, &[(Education, Some(2))]),
    rule(611420, 6, &[(Education, Some(2)), (Education, Some(4))]),
    // ---- Health care & social assistance ----------------------------------------------------------------
    rule(622, 3, &[(HealthCare, Some(0))]),
    rule(6215, 4, &[(HealthCare, Some(1))]),
    rule(623, 3, &[(HealthCare, Some(2))]),
    rule(621610, 6, &[(HealthCare, Some(2))]),
    rule(624, 3, &[(Service, Some(3))]),
    // ---- Arts & entertainment ---------------------------------------------------------------------------
    rule(712110, 6, &[(Entertainment, Some(3))]),
    rule(712130, 6, &[(Entertainment, Some(3))]),
    rule(7112, 4, &[(Entertainment, Some(1))]),
    rule(7111, 4, &[(Entertainment, Some(1))]),
    rule(713110, 6, &[(Entertainment, Some(2))]),
    rule(713210, 6, &[(Entertainment, Some(4))]),
    rule(713940, 6, &[(Entertainment, Some(2))]),
    // ---- Accommodation & food ------------------------------------------------------------------------------
    rule(721110, 6, &[(Travel, Some(3))]),
    rule(721211, 6, &[(Travel, Some(4))]),
    rule(721310, 6, &[(Travel, Some(5))]),
    rule(722, 3, &[(Travel, Some(6))]),
    // ---- Government -------------------------------------------------------------------------------------------
    rule(928110, 6, &[(Government, Some(0))]),
    rule(9221, 4, &[(Government, Some(1))]),
    rule(921, 3, &[(Government, Some(2))]),
    rule(923, 3, &[(Government, Some(2))]),
    // ---- Nonprofits / religious / advocacy ---------------------------------------------------------------------
    rule(813110, 6, &[(Nonprofits, Some(0))]),
    rule(813311, 6, &[(Nonprofits, Some(1))]),
    rule(813312, 6, &[(Nonprofits, Some(2))]),
    rule(8134, 4, &[(Nonprofits, Some(3))]),
    rule(8133, 4, &[(Nonprofits, Some(1))]),
    // ---- Misc services ---------------------------------------------------------------------------------------------
    rule(5616, 4, &[(Service, Some(1))]),
    rule(5617, 4, &[(Service, Some(1))]),
    rule(8111, 4, &[(Service, Some(1))]),
    rule(8121, 4, &[(Service, Some(2))]),
    rule(8123, 4, &[(Service, Some(2))]),
];

/// Translate a NAICS code to its NAICSlite categories by longest-prefix
/// match. Returns an empty set only for codes in no known sector.
///
/// The rules are resolved once into a table keyed by prefix (see
/// `prefix_table`); a call probes it from the code's own length down to
/// its sector.
pub fn naics_to_naicslite(code: NaicsCode) -> CategorySet {
    let table = prefix_table();
    (2..=code.digits())
        .rev()
        .find_map(|n| table.get(&code.prefix(n)))
        .cloned()
        .unwrap_or_default()
}

/// Every rule prefix with the union of the targets of all rules at that
/// prefix. All rules of a code's longest matching length share that one
/// prefix, so its entry is the code's translation. Rules whose prefix is
/// not a valid code never match and are left out.
fn prefix_table() -> &'static FxHashMap<NaicsCode, CategorySet> {
    static TABLE: OnceLock<FxHashMap<NaicsCode, CategorySet>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: FxHashMap<NaicsCode, CategorySet> = FxHashMap::default();
        for r in RULES {
            let Ok(prefix) = NaicsCode::new(r.value, r.digits) else {
                continue;
            };
            let set = table.entry(prefix).or_default();
            for (l1, idx) in r.targets {
                match idx {
                    Some(i) => {
                        if let Some(l2) = Layer2::new(*l1, *i) {
                            set.insert(Category::l2(l2));
                        }
                    }
                    None => set.insert(Category::l1(*l1)),
                }
            }
        }
        table
    })
}

/// Plausible NAICS codes for a NAICSlite layer-2 category — the codes an
/// expert labeler or business database would assign to an organization of
/// that type. Several categories share codes or have near-synonym siblings;
/// this is deliberate (it reproduces NAICS's redundancy, Figure 1).
pub fn naics_candidates(l2: Layer2) -> Vec<NaicsCode> {
    let codes: &[u32] = match (l2.layer1, l2.index()) {
        (ComputerAndIT, 0) => &[517311, 517911, 517919],
        (ComputerAndIT, 1) => &[517312, 517311],
        (ComputerAndIT, 2) => &[518210, 541513],
        (ComputerAndIT, 3) => &[541512, 541519],
        (ComputerAndIT, 4) => &[511210, 541511],
        (ComputerAndIT, 5) => &[541512, 541511, 541690],
        (ComputerAndIT, 6) => &[517410],
        (ComputerAndIT, 7) => &[519130],
        (ComputerAndIT, 8) => &[517919, 518210],
        (ComputerAndIT, 9) => &[519190, 541519, 518210],
        (Media, 0) => &[512110, 519130],
        (Media, 1) => &[519130],
        (Media, 2) => &[511110, 511130],
        (Media, 3) => &[512110, 512250],
        (Media, 4) => &[515120, 515111],
        (Media, 5) => &[51],
        (Finance, 0) => &[522110, 522210, 522292],
        (Finance, 1) => &[524113, 524210],
        (Finance, 2) => &[541211, 541214],
        (Finance, 3) => &[523920, 525110],
        (Finance, 4) => &[52, 522320],
        (Education, 0) => &[611110],
        (Education, 1) => &[611310],
        (Education, 2) => &[611420, 611691, 611512],
        (Education, 3) => &[541715, 541720],
        (Education, 4) => &[611420],
        (Education, 5) => &[61],
        (Service, 0) => &[541110, 541611, 541690],
        (Service, 1) => &[561720, 561730, 811111],
        (Service, 2) => &[812111, 812310],
        (Service, 3) => &[624221, 624410],
        (Service, 4) => &[56, 81],
        (Agriculture, 0) => &[111110, 112111],
        (Agriculture, 1) => &[111419],
        (Agriculture, 2) => &[212114, 211120, 324110],
        (Agriculture, 3) => &[113310],
        (Agriculture, 4) => &[112111, 112511],
        (Agriculture, 5) => &[11],
        (Nonprofits, 0) => &[813110],
        (Nonprofits, 1) => &[813311, 813410],
        (Nonprofits, 2) => &[813312],
        (Nonprofits, 3) => &[813410, 813311],
        (Construction, 0) => &[236115, 236220],
        (Construction, 1) => &[237310, 237130],
        (Construction, 2) => &[531210, 531110],
        (Construction, 3) => &[23],
        (Entertainment, 0) => &[519120],
        (Entertainment, 1) => &[711211, 711130],
        (Entertainment, 2) => &[713110, 713940],
        (Entertainment, 3) => &[712110, 712130],
        (Entertainment, 4) => &[713210],
        (Entertainment, 5) => &[487210],
        (Entertainment, 6) => &[71],
        (Utilities, 0) => &[221122, 221121],
        (Utilities, 1) => &[221210],
        (Utilities, 2) => &[221310],
        (Utilities, 3) => &[221320],
        (Utilities, 4) => &[221330],
        (Utilities, 5) => &[22],
        (HealthCare, 0) => &[622110],
        (HealthCare, 1) => &[621511],
        (HealthCare, 2) => &[623110, 621610],
        (HealthCare, 3) => &[62],
        (Travel, 0) => &[481111],
        (Travel, 1) => &[482111],
        (Travel, 2) => &[483111],
        (Travel, 3) => &[721110],
        (Travel, 4) => &[721211],
        (Travel, 5) => &[721310],
        (Travel, 6) => &[722511],
        (Travel, 7) => &[72],
        (Freight, 0) => &[491110, 492110],
        (Freight, 1) => &[481212],
        (Freight, 2) => &[482111],
        (Freight, 3) => &[483111],
        (Freight, 4) => &[484121],
        (Freight, 5) => &[927110],
        (Freight, 6) => &[485210],
        (Freight, 7) => &[48, 49],
        (Government, 0) => &[928110],
        (Government, 1) => &[922120],
        (Government, 2) => &[921110, 923130],
        (Government, 3) => &[92],
        (Retail, 0) => &[445110],
        (Retail, 1) => &[448120],
        (Retail, 2) => &[454110, 423430],
        (Manufacturing, 0) => &[336111],
        (Manufacturing, 1) => &[311230],
        (Manufacturing, 2) => &[313210],
        (Manufacturing, 3) => &[333120],
        (Manufacturing, 4) => &[325412],
        (Manufacturing, 5) => &[334111, 334413, 334416, 335911],
        (Manufacturing, 6) => &[31, 33],
        (Other, _) => &[541611],
        _ => &[],
    };
    codes
        .iter()
        .map(|&c| {
            if c < 100 {
                NaicsCode::sector_code(c)
            } else {
                NaicsCode::six(c)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naicslite::known;

    #[test]
    fn cited_ambiguous_codes_translate_to_disjoint_tech_subcategories() {
        // 517911/541512/519190 are all tech codes, but each translates to a
        // *different* layer-2 set — so a source using them interchangeably
        // for ISPs and hosting providers gets layer-2 labels wrong, which
        // is the paper's explanation for D&B's poor tech recall.
        let sets: Vec<_> = [517911u32, 541512, 519190]
            .into_iter()
            .map(|c| naics_to_naicslite(NaicsCode::six(c)))
            .collect();
        for set in &sets {
            assert!(set.layer1s().contains(&Layer1::ComputerAndIT));
        }
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                assert!(
                    !sets[i].overlaps_l2(&sets[j]),
                    "code sets {i} and {j} overlap at layer 2"
                );
            }
        }
        // And only 517911 lands on ISP; none land on hosting.
        assert!(sets[0].layer2s().contains(&known::isp()));
        assert!(!sets[1].layer2s().contains(&known::isp()));
        for set in &sets {
            assert!(!set.layer2s().contains(&known::hosting()));
        }
    }

    #[test]
    fn hosting_and_data_processing_share_a_code() {
        // "data processing has the same NAICS code as hosting provider".
        let set = naics_to_naicslite(NaicsCode::six(518210));
        assert!(set.layer2s().contains(&known::hosting()));
    }

    #[test]
    fn isps_and_phone_share_a_code() {
        let set = naics_to_naicslite(NaicsCode::six(517311));
        let l2s = set.layer2s();
        assert!(l2s.contains(&known::isp()));
        assert!(l2s.contains(&known::phone()));
    }

    /// The translation before the prefix table: a scan of every rule,
    /// validating each rule's prefix on every call.
    fn naics_to_naicslite_scan(code: NaicsCode) -> CategorySet {
        let mut best_len: Option<u8> = None;
        let mut out = CategorySet::new();
        for r in RULES {
            let Ok(prefix) = NaicsCode::new(r.value, r.digits) else {
                continue;
            };
            if r.digits <= code.digits() && prefix.is_prefix_of(code) {
                match best_len {
                    Some(l) if r.digits < l => continue,
                    Some(l) if r.digits > l => {
                        out = CategorySet::new();
                        best_len = Some(r.digits);
                    }
                    None => best_len = Some(r.digits),
                    _ => {}
                }
                for (l1, idx) in r.targets {
                    match idx {
                        Some(i) => {
                            if let Some(l2) = Layer2::new(*l1, *i) {
                                out.insert(Category::l2(l2));
                            }
                        }
                        None => out.insert(Category::l1(*l1)),
                    }
                }
            }
        }
        out
    }

    #[test]
    fn prefix_table_matches_rule_scan() {
        use rand::RngExt;
        let catalog = crate::naics::CATALOG.iter().map(|(code, _, _)| {
            NaicsCode::new(*code, (code.ilog10() + 1) as u8).expect("catalog codes are valid")
        });
        let candidates = Layer2::all().flat_map(naics_candidates);
        let rules = RULES
            .iter()
            .filter_map(|r| NaicsCode::new(r.value, r.digits).ok());
        let mut checked = 0usize;
        for code in catalog.chain(candidates).chain(rules) {
            assert_eq!(
                naics_to_naicslite(code),
                naics_to_naicslite_scan(code),
                "{code}"
            );
            checked += 1;
        }
        assert!(checked > 300, "only {checked} listed codes");
        rand::check::cases(
            20_000,
            |rng| {
                let digits = rng.random_range(2..=6u8);
                let lo = 10u32.pow(u32::from(digits) - 1);
                let value = rng.random_range(lo..lo * 10);
                NaicsCode::new(value, digits).expect("in range")
            },
            |code| {
                assert_eq!(
                    naics_to_naicslite(code),
                    naics_to_naicslite_scan(code),
                    "{code}"
                )
            },
        );
    }

    #[test]
    fn longest_prefix_wins() {
        // 517911 has an exact rule; sector 51's fallback must not apply.
        let set = naics_to_naicslite(NaicsCode::six(517911));
        assert!(!set.layer1s().contains(&Layer1::Media));
        // An uncatalogued 51xxxx code falls back to the sector rule.
        let set = naics_to_naicslite(NaicsCode::six(516999));
        assert!(!set.is_empty());
    }

    #[test]
    fn every_catalog_code_translates() {
        for (code, _, _) in crate::naics::CATALOG {
            let digits = (code.ilog10() + 1) as u8;
            let c = NaicsCode::new(*code, digits).unwrap();
            let set = naics_to_naicslite(c);
            assert!(!set.is_empty(), "catalog code {code} has no translation");
        }
    }

    #[test]
    fn every_layer2_has_candidates() {
        for l2 in Layer2::all() {
            let cands = naics_candidates(l2);
            assert!(!cands.is_empty(), "{l2} has no NAICS candidates");
        }
    }

    #[test]
    fn candidates_roundtrip_to_their_layer1() {
        // Every candidate code, translated forward, must include its source
        // layer-1 category — otherwise labeler simulation would emit labels
        // the translation layer contradicts.
        for l2 in Layer2::all() {
            if l2.layer1 == Layer1::Other {
                continue; // "Other" borrows a generic services code.
            }
            for c in naics_candidates(l2) {
                let set = naics_to_naicslite(c);
                assert!(
                    set.layer1s().contains(&l2.layer1),
                    "candidate {c} for {l2} translates to {set}"
                );
            }
        }
    }

    #[test]
    fn unknown_sector_yields_empty() {
        let set = naics_to_naicslite(NaicsCode::new(99, 2).unwrap());
        assert!(set.is_empty());
    }
}
