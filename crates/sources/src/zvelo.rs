//! Simulated Zvelo: a *real* website classifier over the synthetic web.
//!
//! "Zvelo can only be queried by a working domain; thus, Zvelo's coverage
//! is directly dependent on the identification of the correct domain
//! associated with each AS" (§3.5). Zvelo "operates a real-time website
//! classifier" and "runs an existing production-grade machine learning
//! classifier whose goal is to differentiate between over 100 business
//! categories" (§4.1).
//!
//! The simulation actually scrapes the generated site (root page plus
//! keyword internal pages), machine-translates it, and scores it against
//! per-category vocabulary centroids — so domain-selection mistakes,
//! parked pages, text-in-images, and misleading vocabulary all propagate
//! into Zvelo's output exactly as they do for the real service. On top of
//! the content classifier sits Zvelo's *taxonomy mapping* noise
//! ([`crate::profile::ZVELO`]): hosting sites usually end up under generic
//! internet/technology labels (25% hosting recall vs 81% ISP). The labels
//! each layer-2 category can map to are looked up in the scheme once, when
//! the service is built; a classification only draws among them.

use crate::profile;
use crate::{DataSource, Query, SourceId, SourceMatch};
use asdb_model::{Domain, FxHashMap, OrgId, WorldSeed};
use asdb_taxonomy::naicslite::known;
use asdb_taxonomy::schemes::{SchemeCategory, ZVELO};
use asdb_taxonomy::{CategorySet, Layer2};
use asdb_textml::for_each_word;
use asdb_websim::scraper::{scrape, ScrapeConfig};
use asdb_websim::vocab::vocabulary;
use asdb_websim::{SimWeb, Translator};
use asdb_worldgen::World;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The simulated Zvelo service.
#[derive(Debug, Clone)]
pub struct Zvelo {
    /// The world's web, shared: Zvelo fetches each site itself (§3.5)
    /// without owning a copy of the pages.
    web: Arc<SimWeb>,
    org_domain: HashMap<OrgId, Domain>,
    scrape_config: ScrapeConfig,
    translator: Translator,
    index: VocabIndex,
    /// The taxonomy mapping of every layer-2 category the scorer returns.
    mappings: BTreeMap<Layer2, SchemeMapping>,
    /// The label of a parked page.
    parked: (String, CategorySet),
    /// The seed the per-domain mapping draws derive from.
    map_seed: WorldSeed,
}

impl Zvelo {
    /// Build over a world.
    pub fn build(world: &World, seed: WorldSeed) -> Zvelo {
        let org_domain = world
            .orgs
            .iter()
            .filter_map(|o| o.domain.clone().map(|d| (o.id, d)))
            .collect();
        let labels: Vec<_> = ZVELO.categories.iter().map(label).collect();
        Zvelo {
            web: Arc::clone(&world.web),
            org_domain,
            scrape_config: ScrapeConfig::default(),
            translator: Translator::new(0.03, seed.derive("zvelo-mt")),
            index: VocabIndex::build(vocabulary),
            mappings: Layer2::all()
                .map(|l2| (l2, SchemeMapping::build(l2, &labels)))
                .collect(),
            parked: label(ZVELO.category("Parked Domains").expect("scheme has it")),
            map_seed: seed.derive("zvelo").derive("map"),
        }
    }

    /// The simulated web Zvelo scrapes: the world's own, shared.
    pub fn web(&self) -> &SimWeb {
        &self.web
    }

    /// Classify a domain's website content. `None` when the site is
    /// unreachable/nonexistent.
    pub fn classify_domain(&self, domain: &Domain) -> Option<(String, CategorySet)> {
        let result = scrape(&self.web, domain, &self.scrape_config).ok()?;
        let english = self.translator.translate(&result.text);
        match self.index.top_category(&english) {
            Some(top) => Some(self.map_to_scheme(top, domain)),
            None => Some(self.parked.clone()),
        }
    }

    /// Zvelo's taxonomy mapping with the calibrated ambiguity noise: the
    /// draws of [`SchemeMapping`]'s rule, seeded per domain.
    fn map_to_scheme(&self, top: Layer2, domain: &Domain) -> (String, CategorySet) {
        let mapping = &self.mappings[&top];
        let mut rng = StdRng::seed_from_u64(self.map_seed.derive(domain.as_str()).value());
        if rng.random_bool(mapping.kept_prob) {
            if let Some(kept) = &mapping.kept {
                return kept.clone();
            }
        }
        mapping
            .alternatives
            .choose(&mut rng)
            .expect("every mapping has alternatives")
            .clone()
    }
}

/// A Zvelo label with its NAICSlite mapping.
fn label(cat: &SchemeCategory) -> (String, CategorySet) {
    (cat.name.to_owned(), cat.to_naicslite())
}

/// The labels Zvelo's taxonomy mapping can give one scored layer-2
/// category, precomputed from the [`ZVELO`] scheme. With probability
/// `kept_prob` the category keeps its own label, the first scheme label
/// covering it. Otherwise, or when no label covers it, it gets a uniformly
/// drawn alternative: a same-layer-1 label that does not cover it (right
/// neighborhood, wrong subcategory). The shipped scheme has such a label
/// for every layer-2 category.
#[derive(Debug, Clone)]
struct SchemeMapping {
    kept_prob: f64,
    kept: Option<(String, CategorySet)>,
    alternatives: Vec<(String, CategorySet)>,
}

impl SchemeMapping {
    /// The mapping of `top`, from `labels`: every [`ZVELO`] label in
    /// scheme order.
    fn build(top: Layer2, labels: &[(String, CategorySet)]) -> SchemeMapping {
        let profile = profile::ZVELO;
        let kept_prob = if top == known::hosting() {
            profile.hosting_kept
        } else if top == known::isp() {
            profile.isp_kept
        } else if top.layer1.is_tech() {
            0.62
        } else {
            profile.nontech_kept
        };
        let covers = |cats: &CategorySet| cats.iter().any(|c| c.layer2 == Some(top));
        let alternatives: Vec<_> = labels
            .iter()
            .filter(|(_, cats)| cats.iter().any(|c| c.layer1 == top.layer1) && !covers(cats))
            .cloned()
            .collect();
        assert!(
            !alternatives.is_empty(),
            "every layer-2 category has a same-layer-1 sibling label in the scheme"
        );
        SchemeMapping {
            kept_prob,
            kept: labels.iter().find(|(_, cats)| covers(cats)).cloned(),
            alternatives,
        }
    }
}

/// The number of layer-2 categories Zvelo's content classifier scores.
const N_LAYER2: usize = 95;

/// A page with fewer distinct tokens than this is parked.
const MIN_DISTINCT_TOKENS: usize = 8;

/// The most distinct vocabulary words [`VocabIndex`] holds (the websim
/// vocabulary has 732): a page's hit words are marked in a bitset of this
/// many bits on the stack.
const MAX_SLOTS: usize = 4096;

/// The vocabulary-centroid scorer behind Zvelo's content classifier: an
/// inverted index from each vocabulary word to the layer-2 categories that
/// list it, with how many times each lists it.
///
/// A category scores `hits / sqrt(vocabulary length)`, where `hits` counts
/// its vocabulary entries (duplicates counting each time) that occur among
/// the page's distinct words ([`asdb_textml::for_each_word`]: lowercased
/// alphanumeric runs of two or more bytes, stopwords and numbers kept).
/// The index finds every category's hits with one lookup per word.
#[derive(Debug, Clone)]
struct VocabIndex {
    /// Word → slot in `postings`: fixed at build and probed with every
    /// word of every page, so it takes the fast hasher.
    slots: FxHashMap<&'static str, usize>,
    /// Per word slot: `(category index in Layer2::all() order, times listed)`.
    postings: Vec<Vec<(u8, u32)>>,
    /// `sqrt(vocabulary length)` per category.
    norms: [f64; N_LAYER2],
    /// The categories in `Layer2::all()` order.
    categories: [Layer2; N_LAYER2],
}

impl VocabIndex {
    /// Index the vocabulary `vocab` gives each layer-2 category.
    fn build(vocab: impl Fn(Layer2) -> &'static [&'static str]) -> VocabIndex {
        let categories: Vec<Layer2> = Layer2::all().collect();
        let categories: [Layer2; N_LAYER2] = categories.try_into().expect("95 layer-2 categories");
        let mut slots: FxHashMap<&'static str, usize> = FxHashMap::default();
        let mut postings: Vec<Vec<(u8, u32)>> = Vec::new();
        let mut norms = [0.0; N_LAYER2];
        for (c, &l2) in categories.iter().enumerate() {
            let words = vocab(l2);
            norms[c] = (words.len() as f64).sqrt();
            for &w in words {
                let slot = *slots.entry(w).or_insert_with(|| {
                    postings.push(Vec::new());
                    postings.len() - 1
                });
                match postings[slot].last_mut() {
                    Some((last, n)) if *last as usize == c => *n += 1,
                    _ => postings[slot].push((c as u8, 1)),
                }
            }
        }
        assert!(
            postings.len() <= MAX_SLOTS,
            "{} vocabulary words",
            postings.len()
        );
        VocabIndex {
            slots,
            postings,
            norms,
            categories,
        }
    }

    /// The best-scoring category for a page's English text; `None` when the
    /// page is parked (fewer than eight distinct tokens, or no vocabulary
    /// hit at all). Ties go to the earlier category in `Layer2::all()`.
    ///
    /// Each slot is one distinct word, so eight slots hit already make
    /// eight distinct tokens; only a page with fewer hits counts its
    /// distinct tokens in a second pass.
    fn top_category(&self, english: &str) -> Option<Layer2> {
        let mut hits = [0usize; N_LAYER2];
        let mut seen = [0u64; MAX_SLOTS / 64];
        let mut n_seen = 0usize;
        let mut buf = String::new();
        for_each_word(english, &mut buf, |token| {
            if let Some(&slot) = self.slots.get(token) {
                let (word, bit) = (slot / 64, 1u64 << (slot % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    n_seen += 1;
                    for &(c, n) in &self.postings[slot] {
                        hits[c as usize] += n as usize;
                    }
                }
            }
        });
        if n_seen < MIN_DISTINCT_TOKENS && !has_distinct_tokens(english, MIN_DISTINCT_TOKENS) {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        for (c, (&h, &norm)) in hits.iter().zip(&self.norms).enumerate() {
            let score = h as f64 / norm;
            match best {
                Some((s, _)) if s >= score => {}
                _ => best = Some((score, c)),
            }
        }
        let (score, top) = best.expect("95 categories scored");
        if score <= 0.0 {
            return None;
        }
        Some(self.categories[top])
    }
}

/// Whether `english` has at least `n` distinct words
/// ([`asdb_textml::for_each_word`]'s, the parked check's tokens).
fn has_distinct_tokens(english: &str, n: usize) -> bool {
    let mut distinct: Vec<String> = Vec::with_capacity(n);
    let mut buf = String::new();
    for_each_word(english, &mut buf, |token| {
        if distinct.len() < n && !distinct.iter().any(|d| d == token) {
            distinct.push(token.to_owned());
        }
    });
    distinct.len() >= n
}

impl DataSource for Zvelo {
    fn id(&self) -> SourceId {
        SourceId::Zvelo
    }

    fn lookup_org(&self, org: OrgId) -> Option<SourceMatch> {
        // Manual protocol: the researcher supplies the correct domain.
        let domain = self.org_domain.get(&org)?;
        let (raw_label, categories) = self.classify_domain(domain)?;
        Some(SourceMatch {
            source: SourceId::Zvelo,
            entity: Some(org),
            domain: Some(domain.clone()),
            raw_label,
            categories,
            confidence: None,
        })
    }

    fn search(&self, query: &Query) -> Option<SourceMatch> {
        let domain = query.domain.as_ref()?;
        let (raw_label, categories) = self.classify_domain(domain)?;
        Some(SourceMatch {
            source: SourceId::Zvelo,
            entity: None, // Zvelo knows pages, not companies.
            domain: Some(domain.clone()),
            raw_label,
            categories,
            confidence: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use asdb_taxonomy::Category;
    use asdb_worldgen::WorldConfig;
    use rand::check::{self, class_string, CASES};
    use std::collections::HashSet;

    /// The scorer before the index: a `HashSet` of the page's lowercased
    /// tokens probed word by word for every category's vocabulary. Kept
    /// here only as the differential oracle for [`VocabIndex`].
    fn top_category_hashset(
        vocab: impl Fn(Layer2) -> &'static [&'static str],
        english: &str,
    ) -> Option<Layer2> {
        let tokens: HashSet<String> = english
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() >= 2)
            .map(str::to_lowercase)
            .collect();
        if tokens.len() < 8 {
            return None;
        }
        let mut best: Option<(f64, Layer2)> = None;
        for l2 in Layer2::all() {
            let words = vocab(l2);
            let hits = words.iter().filter(|w| tokens.contains(**w)).count();
            let score = hits as f64 / (words.len() as f64).sqrt();
            match best {
                Some((s, _)) if s >= score => {}
                _ => best = Some((score, l2)),
            }
        }
        let (score, top) = best.expect("95 categories scored");
        (score > 0.0).then_some(top)
    }

    /// [`Zvelo::classify_domain`] over [`top_category_hashset`].
    fn classify_domain_hashset(z: &Zvelo, domain: &Domain) -> Option<(String, CategorySet)> {
        let result = scrape(&z.web, domain, &z.scrape_config).ok()?;
        let english = z.translator.translate(&result.text);
        match top_category_hashset(vocabulary, &english) {
            Some(top) => Some(z.map_to_scheme(top, domain)),
            None => {
                let cat = ZVELO.category("Parked Domains").expect("scheme has it");
                Some((cat.name.to_owned(), cat.to_naicslite()))
            }
        }
    }

    /// The indexed scorer returns what the `HashSet` scorer returns on every
    /// domain of three standard worlds.
    #[test]
    fn index_matches_hashset_scorer_on_standard_worlds() {
        for s in 1..=3 {
            let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
            let z = Zvelo::build(&w, WorldSeed::new(s).derive("sources"));
            let mut classified = 0usize;
            for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
                let got = z.classify_domain(domain);
                assert_eq!(
                    got,
                    classify_domain_hashset(&z, domain),
                    "seed {s}, {domain}"
                );
                classified += usize::from(got.is_some());
            }
            assert!(classified > 1_000, "seed {s}: only {classified} classified");
        }
    }

    /// The taxonomy mapping before [`SchemeMapping`]: the covering and
    /// sibling labels looked up in the scheme on every call. `seed` is the
    /// service's `zvelo` seed. Kept here only as the differential oracle
    /// for [`Zvelo::map_to_scheme`].
    fn map_to_scheme_oracle(
        seed: WorldSeed,
        top: Layer2,
        domain: &Domain,
    ) -> (String, CategorySet) {
        let profile = profile::ZVELO;
        let mut rng = StdRng::seed_from_u64(seed.derive("map").derive(domain.as_str()).value());
        let kept_prob = if top == known::hosting() {
            profile.hosting_kept
        } else if top == known::isp() {
            profile.isp_kept
        } else if top.layer1.is_tech() {
            0.62
        } else {
            profile.nontech_kept
        };
        if rng.random_bool(kept_prob) {
            if let Some(cat) = ZVELO.covering(Category::l2(top)).first() {
                return (cat.name.to_owned(), cat.to_naicslite());
            }
        }
        let fallback_names: &[&str] = if top.layer1.is_tech() {
            &["Internet Services", "Technology (General)"]
        } else {
            &["Business Services", "News and Media", "Shopping"]
        };
        let siblings = ZVELO.covering_l1(top.layer1);
        let pick = siblings
            .iter()
            .filter(|c| !c.to_naicslite().layer2s().contains(&top))
            .collect::<Vec<_>>();
        if let Some(cat) = pick.choose(&mut rng) {
            return (cat.name.to_owned(), cat.to_naicslite());
        }
        let name = fallback_names
            .choose(&mut rng)
            .copied()
            .unwrap_or("Business Services");
        let cat = ZVELO.category(name).expect("fallbacks exist in scheme");
        (cat.name.to_owned(), cat.to_naicslite())
    }

    /// The precomputed mapping returns the oracle's label for every
    /// layer-2 category, not only those the standard worlds top-score,
    /// across 50 domains each, and reaches both the kept label and the
    /// alternatives. (Every category of the shipped scheme has a
    /// same-layer-1 sibling label, so the generic fallbacks are never
    /// drawn.)
    #[test]
    fn precomputed_mapping_matches_oracle_on_every_category() {
        let seed = WorldSeed::new(52);
        let (_, z) = setup();
        let domains: Vec<Domain> = (0..50)
            .map(|i| Domain::new(&format!("site{i}.example")).expect("a valid domain"))
            .collect();
        let (mut kept, mut alternative) = (0usize, 0usize);
        for top in Layer2::all() {
            let mapping = &z.mappings[&top];
            for domain in &domains {
                let got = z.map_to_scheme(top, domain);
                assert_eq!(
                    got,
                    map_to_scheme_oracle(seed.derive("zvelo"), top, domain),
                    "{top}, {domain}"
                );
                kept += usize::from(mapping.kept.as_ref() == Some(&got));
                alternative += usize::from(mapping.alternatives.contains(&got));
            }
        }
        assert!(
            kept > 500 && alternative > 500,
            "kept {kept}, alternative {alternative}"
        );
    }

    /// A made-up vocabulary: `Layer2::all()`'s first three categories list
    /// the given words, every other category one word no test page uses.
    fn toy_vocab(
        first: [&'static [&'static str]; 3],
    ) -> impl Fn(Layer2) -> &'static [&'static str] + Clone {
        let order: Vec<Layer2> = Layer2::all().collect();
        move |l2| match order
            .iter()
            .position(|&c| c == l2)
            .expect("a layer-2 category")
        {
            i @ 0..=2 => first[i],
            _ => &["unused"],
        }
    }

    /// The index over [`toy_vocab`], and the categories in index order.
    fn toy_index(first: [&'static [&'static str]; 3]) -> (VocabIndex, Vec<Layer2>) {
        (VocabIndex::build(toy_vocab(first)), Layer2::all().collect())
    }

    /// Chars that stress the word splitter: ASCII letters of both cases,
    /// digits, ASCII separators including `_`, a no-break space, two-byte
    /// letters, the final-sigma letter, the Kelvin sign (folds to ASCII
    /// `k`), dotted capital I (folds to two chars), a combining mark and a
    /// non-ASCII digit.
    const WORD_CHARS: &str = "A-Za-z0-9_' \u{A0}ÉßΣ\u{212A}\u{130}\u{301}\u{663}-";

    /// The index and the `HashSet` scorer agree on text mixing runs of
    /// [`WORD_CHARS`] with vocabulary words in random case, both for the
    /// real vocabulary and for a toy one whose words that text spells
    /// (`k` from the Kelvin sign, `i̇` from dotted capital I).
    #[test]
    fn index_matches_hashset_scorer_on_tricky_chars() {
        let toy = toy_vocab([
            &["é", "σ", "k", "ab"],
            &["ß", "i\u{307}", "\u{663}", "\u{663}\u{663}"],
            &["é", "ß", "k"],
        ]);
        let real = VocabIndex::build(vocabulary);
        let toy_index = VocabIndex::build(toy.clone());
        let categories: Vec<Layer2> = Layer2::all().collect();
        let mut scored = [0usize; 2];
        check::cases(
            CASES,
            |rng| {
                let mut text = String::new();
                for _ in 0..rng.random_range(0..32) {
                    if rng.random_bool(0.4) {
                        let words = vocabulary(*categories.choose(rng).expect("categories"));
                        let word = *words.choose(rng).expect("a vocabulary word");
                        match rng.random_range(0..3) {
                            0 => text.push_str(word),
                            1 => text.push_str(&word.to_uppercase()),
                            _ => text.push_str(&word.replacen('k', "\u{212A}", 1)),
                        }
                    } else {
                        text.push_str(&class_string(rng, WORD_CHARS, 0..=6));
                    }
                    text.push_str(&class_string(rng, " _\u{A0}\u{301}-", 1..=1));
                }
                text
            },
            |text| {
                let got = [real.top_category(&text), toy_index.top_category(&text)];
                assert_eq!(got[0], top_category_hashset(vocabulary, &text));
                assert_eq!(got[1], top_category_hashset(&toy, &text));
                for (n, top) in scored.iter_mut().zip(got) {
                    *n += usize::from(top.is_some());
                }
            },
        );
        // Both vocabularies score a fair share of the texts, not only park.
        assert!(
            scored.iter().all(|&n| n >= 16),
            "scored {scored:?} of {CASES}"
        );
    }

    /// Eight distinct filler tokens, none in any toy vocabulary.
    const FILLER: &str = "aa bb cc dd ee ff gg hh";

    #[test]
    fn index_counts_a_word_listed_twice_twice() {
        // Category 1 lists "cloud" twice: one token gives it 2 / sqrt(4)
        // = 1.0, beating category 0's 1 / sqrt(2) ~ 0.71 from "cloud" too.
        let (index, order) = toy_index([
            &["cloud", "server"],
            &["cloud", "cloud", "rack", "power"],
            &["farm"],
        ]);
        assert_eq!(
            index.top_category(&format!("{FILLER} cloud")),
            Some(order[1])
        );
        // A page naming the word once or many times scores the same.
        assert_eq!(
            index.top_category(&format!("{FILLER} cloud Cloud cloud")),
            Some(order[1])
        );
    }

    #[test]
    fn index_ties_go_to_the_earlier_category() {
        let (index, order) =
            toy_index([&["alpha", "beta"], &["gamma", "delta"], &["alpha", "gamma"]]);
        // Categories 0 and 2 tie at 1 / sqrt(2); category 0 is earlier.
        assert_eq!(
            index.top_category(&format!("{FILLER} alpha")),
            Some(order[0])
        );
        // Categories 0 and 2 tie at two hits; category 1 has one.
        assert_eq!(
            index.top_category(&format!("{FILLER} beta alpha gamma")),
            Some(order[0])
        );
        // Categories 1 and 2 tie at two hits; category 0 has one.
        assert_eq!(
            index.top_category(&format!("{FILLER} gamma delta alpha")),
            Some(order[1])
        );
    }

    #[test]
    fn index_parks_pages_below_eight_distinct_lowercased_tokens() {
        let (index, order) = toy_index([&["cloud"], &["rack"], &["farm"]]);
        // Seven distinct tokens once case is folded (nine raw spellings).
        let seven = "Cloud CLOUD cloud aa bb cc dd ee ff";
        assert_eq!(index.top_category(seven), None);
        assert_eq!(index.top_category(&format!("{seven} gg")), Some(order[0]));
        // One-byte tokens do not count toward the eight.
        assert_eq!(index.top_category(&format!("{seven} g h i")), None);
        // Eight distinct tokens but no vocabulary hit: parked too.
        assert_eq!(index.top_category(FILLER), None);
    }

    fn setup() -> (World, Zvelo) {
        let w = World::generate(WorldConfig::small(WorldSeed::new(51)));
        let z = Zvelo::build(&w, WorldSeed::new(52));
        (w, z)
    }

    #[test]
    fn classifies_live_sites_only() {
        let (w, z) = setup();
        let live = w
            .orgs
            .iter()
            .find(|o| o.live_site && o.domain.is_some())
            .unwrap();
        assert!(z
            .search(&Query::by_domain(live.domain.clone().unwrap()))
            .is_some());
        let dead = w
            .orgs
            .iter()
            .find(|o| !o.live_site && o.domain.is_some())
            .unwrap();
        assert!(z
            .search(&Query::by_domain(dead.domain.clone().unwrap()))
            .is_none());
    }

    #[test]
    fn isp_sites_usually_classified_as_isp() {
        let (w, z) = setup();
        let (mut ok, mut n) = (0usize, 0usize);
        for org in &w.orgs {
            if org.category != known::isp() || !org.live_site {
                continue;
            }
            if let Some(m) = z.lookup_org(org.id) {
                ok += usize::from(m.categories.layer2s().contains(&known::isp()));
                n += 1;
            }
        }
        let rate = ok as f64 / n.max(1) as f64;
        assert!(n >= 20, "sample too small: {n}");
        assert!(rate > 0.55, "ISP recall = {rate}");
    }

    #[test]
    fn hosting_sites_usually_lose_their_label() {
        let (w, z) = setup();
        let (mut kept, mut tech, mut n) = (0usize, 0usize, 0usize);
        for org in &w.orgs {
            if org.category != known::hosting() || !org.live_site {
                continue;
            }
            if let Some(m) = z.lookup_org(org.id) {
                kept += usize::from(m.categories.layer2s().contains(&known::hosting()));
                tech += usize::from(m.categories.any_tech());
                n += 1;
            }
        }
        if n >= 8 {
            let kept_rate = kept as f64 / n as f64;
            let tech_rate = tech as f64 / n as f64;
            assert!(kept_rate < 0.60, "hosting kept = {kept_rate}");
            assert!(tech_rate > 0.70, "still tech at L1 = {tech_rate}");
        }
    }

    #[test]
    fn parked_sites_get_parked_label() {
        let (w, z) = setup();
        if let Some(org) = w
            .orgs
            .iter()
            .find(|o| o.live_site && o.quirks.parked && o.domain.is_some())
        {
            let m = z.lookup_org(org.id).unwrap();
            assert!(
                m.raw_label.contains("Parked") || m.raw_label.contains("Business"),
                "label = {}",
                m.raw_label
            );
        }
    }

    #[test]
    fn classification_is_deterministic() {
        let (w, z) = setup();
        let org = w
            .orgs
            .iter()
            .find(|o| o.live_site && o.domain.is_some())
            .unwrap();
        let a = z.lookup_org(org.id).unwrap();
        let b = z.lookup_org(org.id).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nontech_sites_get_plausible_l1() {
        let (w, z) = setup();
        let (mut ok, mut n) = (0usize, 0usize);
        for org in &w.orgs {
            if org.is_tech() || !org.live_site || org.quirks.misleading_vocab {
                continue;
            }
            if let Some(m) = z.lookup_org(org.id) {
                ok += usize::from(m.categories.overlaps_l1(&org.truth()));
                n += 1;
            }
        }
        let rate = ok as f64 / n.max(1) as f64;
        assert!(rate > 0.60, "non-tech L1 = {rate} (n = {n})");
    }
}
