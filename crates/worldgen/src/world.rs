//! World generation: organizations → AS registrations → WHOIS → websites.

use crate::config::WorldConfig;
use crate::mix::CategoryMix;
use crate::names;
use crate::org::{AsRecord, Organization};
use asdb_model::country::Region;
use asdb_model::{Asn, Date, Domain, Email, OrgId, OrgName, Rir, Url, WorldSeed};
use asdb_rir::dialect::{self, Address, Registration};
use asdb_rir::{extract, ParsedWhois};
use asdb_taxonomy::{Layer1, Layer2};
use asdb_websim::{Language, SimWeb, SiteQuirks, SiteSpec, Website};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Shared NOC/contact-service domains that appear in the WHOIS of *many*
/// unrelated ASes — the reason §5.1's step 3 filters out "domains that
/// appear in ≥ 100 ASes".
pub static SHARED_NOC_DOMAINS: [&str; 4] = [
    "noc-services.net",
    "ip-admin.org",
    "managed-whois.com",
    "asn-contact.net",
];

/// The fully generated universe.
#[derive(Debug, Clone)]
pub struct World {
    /// The configuration it was generated from.
    pub config: WorldConfig,
    /// All organizations.
    pub orgs: Vec<Organization>,
    /// All AS registrations.
    pub ases: Vec<AsRecord>,
    /// The simulated web hosting every live site, built once and shared
    /// with everything that scrapes it (`Arc::clone`, never a deep copy).
    pub web: Arc<SimWeb>,
    asn_index: HashMap<Asn, usize>,
    org_index: HashMap<OrgId, usize>,
    domain_as_count: Arc<HashMap<Domain, usize>>,
}

impl World {
    /// Generate a world. Deterministic per config (including its seed).
    ///
    /// One loop makes every random draw, in a fixed order, and collects
    /// each live site's spec and each AS's registration. Then a scoped
    /// helper serializes and extracts every AS's WHOIS while the calling
    /// thread generates every site. Both are pure functions of what the
    /// loop drew, so the world does not depend on the threads' timing.
    /// The sites stay on the calling thread because their pages are most
    /// of a world's memory and live as long as it does: glibc gives each
    /// thread its own malloc arena, and pages generated on other threads
    /// left freed memory stranded in their arenas from one world to the
    /// next.
    pub fn generate(config: WorldConfig) -> World {
        let seed = config.seed;
        let mix = CategoryMix::calibrated();
        let mut mix_rng = CategoryMix::rng(seed);
        let mut rng = StdRng::seed_from_u64(seed.derive("world").value());

        let mut orgs = Vec::with_capacity(config.n_orgs);
        let mut drawn = Vec::new();
        let mut specs = Vec::new();
        let mut web = SimWeb::new();
        let mut next_asn: u32 = 1_000;
        let base_date = Date::from_ymd(2020, 10, 1).expect("static date");

        let mut used_domains: std::collections::HashSet<Domain> = std::collections::HashSet::new();
        let mut used_names: std::collections::HashSet<String> = std::collections::HashSet::new();
        for i in 0..config.n_orgs {
            let category = mix.sample(&mut mix_rng);
            let mut org = build_org(i as u64, category, &config, &mut rng, seed);
            // Distinct legal entities carry distinct legal names; the
            // syllable fabricator can collide, so disambiguate with the
            // city (and, in the limit, the org index) — exactly how real
            // homonym companies differ ("Acme Corp" vs "Acme Corp of
            // Springfield").
            if !used_names.insert(org.legal_name.normalized()) {
                let was_legal = org.whois_name == org.legal_name;
                let mut renamed =
                    OrgName::new(&format!("{} {}", org.legal_name.as_str(), org.city));
                if !used_names.insert(renamed.normalized()) {
                    renamed = OrgName::new(&format!("{} {}", org.legal_name.as_str(), i));
                    used_names.insert(renamed.normalized());
                }
                org.legal_name = renamed.clone();
                if was_legal {
                    org.whois_name = renamed;
                }
            }
            // Two organizations must never share a primary domain; on a
            // fabrication collision, disambiguate with the org index.
            if let Some(d) = &org.domain {
                if !used_domains.insert(d.clone()) {
                    let label = d.leftmost_label();
                    let tld = d.tld();
                    let unique = Domain::new(&format!("{label}{i}.{tld}"))
                        .expect("disambiguated domain stays valid");
                    used_domains.insert(unique.clone());
                    org.domain = Some(unique);
                }
            }
            // Note the website; it is generated after the loop.
            if let (Some(domain), true) = (&org.domain, org.live_site) {
                specs.push(SiteSpec {
                    domain: domain.clone(),
                    org_name: org.legal_name.as_str().to_owned(),
                    category: org.category,
                    language: org.language,
                    quirks: org.quirks,
                });
            } else if let Some(domain) = &org.domain {
                web.register_unreachable(domain.clone());
            }
            // Register 1 + geometric extra ASes.
            let mut n_ases = 1usize;
            while rng.random_bool(config.extra_as_rate) && n_ases < 12 {
                n_ases += 1;
            }
            for k in 0..n_ases {
                let asn = Asn::new(next_asn);
                next_asn += rng.random_range(1..40u32);
                let registered = base_date.plus_days(-(rng.random_range(0..7000i32)));
                drawn.push(build_as_record(
                    &org, asn, registered, k, &config, &mut rng, &orgs,
                ));
            }
            orgs.push(org);
        }

        let parsed: Vec<ParsedWhois> = std::thread::scope(|scope| {
            let whois = scope.spawn(|| {
                drawn
                    .iter()
                    .map(|d| extract(&dialect::serialize(d.rir, &d.registration)))
                    .collect()
            });
            for spec in &specs {
                web.host(Website::generate(spec, seed));
            }
            whois
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        let ases: Vec<AsRecord> = drawn
            .into_iter()
            .zip(parsed)
            .map(|(d, parsed)| AsRecord {
                asn: d.registration.asn,
                org: d.org,
                rir: d.rir,
                registered: d.registered,
                registration: d.registration,
                parsed,
            })
            .collect();

        let asn_index = ases.iter().enumerate().map(|(i, a)| (a.asn, i)).collect();
        let org_index = orgs.iter().enumerate().map(|(i, o)| (o.id, i)).collect();
        let mut domain_as_count: HashMap<Domain, usize> = HashMap::new();
        for a in &ases {
            for d in a.parsed.candidate_domains() {
                *domain_as_count.entry(d).or_insert(0) += 1;
            }
        }
        World {
            config,
            orgs,
            ases,
            web: Arc::new(web),
            asn_index,
            org_index,
            domain_as_count: Arc::new(domain_as_count),
        }
    }

    /// The AS record for an ASN.
    pub fn as_record(&self, asn: Asn) -> Option<&AsRecord> {
        self.asn_index.get(&asn).map(|&i| &self.ases[i])
    }

    /// The organization owning an ASN.
    pub fn org_of(&self, asn: Asn) -> Option<&Organization> {
        let rec = self.as_record(asn)?;
        self.org(rec.org)
    }

    /// An organization by id.
    pub fn org(&self, id: OrgId) -> Option<&Organization> {
        self.org_index.get(&id).map(|&i| &self.orgs[i])
    }

    /// How many ASes a candidate domain appears in (WHOIS-wide) — the §5.1
    /// step-3 statistic.
    pub fn domain_as_count(&self, domain: &Domain) -> usize {
        self.domain_as_count
            .get(&domain.registrable())
            .copied()
            .unwrap_or(0)
    }

    /// The WHOIS-wide `registrable domain → AS count` map behind
    /// [`World::domain_as_count`], for holders that share it
    /// (`Arc::clone`, never a deep copy).
    pub fn domain_as_counts(&self) -> &Arc<HashMap<Domain, usize>> {
        &self.domain_as_count
    }

    /// All ASNs in registration order.
    pub fn asns(&self) -> Vec<Asn> {
        self.ases.iter().map(|a| a.asn).collect()
    }

    /// Draw `n` distinct ASNs uniformly at random (a "random sample of
    /// registered ASes", the Gold Standard sampling process).
    pub fn sample_asns(&self, n: usize, label: &str) -> Vec<Asn> {
        let mut rng =
            StdRng::seed_from_u64(self.config.seed.derive("sample").derive(label).value());
        let mut pool = self.asns();
        let n = n.min(pool.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let i = rng.random_range(0..pool.len());
            out.push(pool.swap_remove(i));
        }
        out
    }

    /// ASNs whose owner's primary layer-1 category matches, for stratified
    /// sampling (the Uniform Gold Standard).
    pub fn asns_in_layer1(&self, l1: Layer1) -> Vec<Asn> {
        self.ases
            .iter()
            .filter(|a| {
                self.org(a.org)
                    .map(|o| o.category.layer1 == l1)
                    .unwrap_or(false)
            })
            .map(|a| a.asn)
            .collect()
    }
}

fn region_for(category: Layer2, rng: &mut StdRng) -> Region {
    // Slight regional skew: tech everywhere, with Europe/APNIC heavy for
    // ISPs (RIPE is the largest registry).
    let _ = category;
    let weights: [(Region, f64); 5] = [
        (Region::Europe, 0.38),
        (Region::NorthAmerica, 0.25),
        (Region::AsiaPacific, 0.20),
        (Region::LatinAmerica, 0.10),
        (Region::Africa, 0.07),
    ];
    let u: f64 = rng.random_range(0.0..1.0);
    let mut acc = 0.0;
    for (r, w) in weights {
        acc += w;
        if u < acc {
            return r;
        }
    }
    Region::Europe
}

fn build_org(
    index: u64,
    category: Layer2,
    config: &WorldConfig,
    rng: &mut StdRng,
    seed: WorldSeed,
) -> Organization {
    let region = region_for(category, rng);
    let identity = names::fabricate(index, category, region, seed);
    let whois_name = if rng.random_bool(config.whois.name_variant_rate) {
        OrgName::new(&names::whois_variant(&identity.legal_name, index, seed))
    } else {
        OrgName::new(&identity.legal_name)
    };

    // Secondary category: multi-service tech orgs and the occasional
    // cross-sector org (the online-learning-service kind of case).
    let secondary = if category.layer1 == Layer1::ComputerAndIT && rng.random_bool(0.18) {
        let options = [
            Layer2::new(Layer1::ComputerAndIT, 0),
            Layer2::new(Layer1::ComputerAndIT, 1),
            Layer2::new(Layer1::ComputerAndIT, 2),
        ];
        options
            .into_iter()
            .flatten()
            .filter(|l2| *l2 != category)
            .collect::<Vec<_>>()
            .choose(rng)
            .copied()
    } else if rng.random_bool(0.05) {
        // Cross-L1 nuance: an org that genuinely straddles sectors.
        match category.layer1 {
            Layer1::Education => Layer2::new(Layer1::Media, 1),
            Layer1::Media => Layer2::new(Layer1::ComputerAndIT, 9),
            Layer1::Finance => Layer2::new(Layer1::ComputerAndIT, 4),
            _ => None,
        }
    } else {
        None
    };

    // Domain presence: hosting providers are the most likely to lack one
    // ("17% of all hosting providers do not have domains").
    let domainless_rate =
        if category == Layer2::new(Layer1::ComputerAndIT, 2).expect("hosting index valid") {
            0.17
        } else {
            0.08
        };
    let domain = (!rng.random_bool(domainless_rate)).then(|| identity.domain.clone());
    let live_site = domain.is_some() && rng.random_bool(config.web.live_site_rate);

    let language = if rng.random_bool(config.web.non_english_rate) && region != Region::NorthAmerica
    {
        *Language::NON_ENGLISH
            .choose(rng)
            .expect("non-empty language list")
    } else {
        Language::English
    };
    let quirks = SiteQuirks {
        text_in_images: rng.random_bool(config.web.text_in_images_rate),
        unlinked_internal: rng.random_bool(config.web.unlinked_internal_rate),
        parked: rng.random_bool(config.web.parked_rate),
        placeholder: rng.random_bool(config.web.placeholder_rate),
        misleading_vocab: !category.layer1.is_tech()
            && rng.random_bool(config.web.misleading_vocab_rate),
    };

    let u: f64 = rng.random_range(0.0..0.999);
    let employees = (10.0 * (1.0 / (1.0 - u)).powf(0.9)) as u32 + 1;
    let founded_year = 1960 + rng.random_range(0..62i32);
    let startup = identity.country.as_str() == "US" && founded_year >= 2005 && employees < 500;

    Organization {
        id: OrgId::new(index),
        legal_name: OrgName::new(&identity.legal_name),
        whois_name,
        category,
        secondary,
        country: identity.country,
        domain,
        live_site,
        language,
        quirks,
        street: identity.street,
        city: identity.city,
        phone: format!("+{}-555-{:04}", rng.random_range(1..99u32), index % 10_000),
        founded: Date::from_ymd(founded_year, 1 + (index % 12) as u32, 1).expect("valid month"),
        employees,
        startup,
    }
}

/// An AS registration as the draw loop leaves it: everything an
/// [`AsRecord`] holds except the parsed WHOIS.
struct Drawn {
    org: OrgId,
    rir: Rir,
    registered: Date,
    registration: Registration,
}

fn build_as_record(
    org: &Organization,
    asn: Asn,
    registered: Date,
    as_index: usize,
    config: &WorldConfig,
    rng: &mut StdRng,
    prior_orgs: &[Organization],
) -> Drawn {
    let rir = Rir::for_region(org.country.region());
    let as_name = format!(
        "{}-AS{}",
        org.legal_name
            .tokens()
            .first()
            .cloned()
            .unwrap_or_else(|| "net".into())
            .to_uppercase(),
        if as_index == 0 {
            String::new()
        } else {
            format!("-{as_index}")
        }
    );

    let mut reg = Registration::bare(asn, &as_name);
    if rng.random_bool(config.whois.org_name_rate) {
        reg.org_name = Some(org.whois_name.as_str().to_owned());
    }
    if rng.random_bool(config.whois.descr_rate) {
        reg.descr = Some(format!("{} backbone", org.legal_name));
    }
    if rng.random_bool(config.whois.address_rate) {
        reg.address = Some(Address {
            street: org.street.clone(),
            city: org.city.clone(),
            state: String::new(),
            postal: format!("{:05}", asn.value() % 100_000),
        });
        reg.obfuscate_address =
            rir == Rir::Afrinic && rng.random_bool(config.whois.afrinic_obfuscate_rate);
    }
    // Phone is registry-driven: APNIC and ARIN publish for 100% of ASes.
    if matches!(rir, Rir::Apnic | Rir::Arin) {
        reg.phone = Some(org.phone.clone());
    }
    if rng.random_bool(config.whois.country_rate) {
        reg.country = Some(org.country);
    }

    // Domain signal: abuse/tech emails + occasional remark URLs.
    let has_signal = rng.random_bool(config.whois.domain_signal_rate);
    if has_signal {
        // Possibly point at the *wrong* org's domain (entity disagreement).
        let contact_domain: Option<Domain> =
            if rng.random_bool(config.wrong_domain_rate) && !prior_orgs.is_empty() {
                let other = &prior_orgs[rng.random_range(0..prior_orgs.len())];
                other.domain.clone()
            } else {
                org.domain.clone()
            };
        if let Some(d) = contact_domain {
            if let Ok(e) = Email::new(&format!("abuse@{d}")) {
                reg.abuse_emails.push(e);
            }
            if let Ok(e) = Email::new(&format!("noc@{d}")) {
                reg.tech_emails.push(e);
            }
            if rng.random_bool(config.whois.remark_url_rate) {
                reg.remark_urls
                    .push(Url::root(Domain::new(&format!("www.{d}")).unwrap_or(d)));
            }
        }
        // Upstream-provider contacts: many ASes list their transit
        // provider's NOC alongside their own ("the correct organization
        // domain is often present within multiple abuse contact emails",
        // §3.3) — the reason the paper needs the three domain-selection
        // heuristics of Table 5 at all. Upstream domains appear in dozens
        // of customer ASes, below the 100-AS filter threshold.
        let upstream_pool: Vec<&Domain> = prior_orgs
            .iter()
            .filter(|o| o.category.layer1 == Layer1::ComputerAndIT)
            .take(30)
            .filter_map(|o| o.domain.as_ref())
            .collect();
        if !upstream_pool.is_empty() && rng.random_bool(0.35) {
            let up = upstream_pool[rng.random_range(0..upstream_pool.len())];
            if let Ok(e) = Email::new(&format!("noc@{up}")) {
                reg.tech_emails.push(e);
            }
        }
        // Shared NOC-service contacts (appear across hundreds of ASes).
        if rng.random_bool(0.15) {
            let shared = SHARED_NOC_DOMAINS
                .choose(rng)
                .expect("non-empty shared list");
            if let Ok(e) = Email::new(&format!("support@{shared}")) {
                reg.abuse_emails.push(e);
            }
        }
        // Public email contacts (Gmail et al.), filtered by §5.1 step 2.
        if rng.random_bool(config.whois.public_email_contact_rate) {
            if let Ok(e) = Email::new(&format!(
                "admin.{}@gmail.com",
                org.legal_name
                    .tokens()
                    .first()
                    .cloned()
                    .unwrap_or_else(|| "noc".into())
            )) {
                reg.abuse_emails.push(e);
            }
        }
    }

    Drawn {
        org: org.id,
        rir,
        registered,
        registration: reg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_taxonomy::naicslite::known;
    use asdb_websim::Fetcher;

    fn small_world() -> World {
        World::generate(WorldConfig::small(WorldSeed::new(1234)))
    }

    #[test]
    fn generates_configured_org_count() {
        let w = small_world();
        assert_eq!(w.orgs.len(), 300);
        assert!(w.ases.len() >= 300, "every org has at least one AS");
        assert!(w.ases.len() < 450, "geometric extras stay modest");
    }

    #[test]
    fn parsed_whois_is_the_extract_of_each_registration() {
        let w = small_world();
        for rec in &w.ases {
            let want = extract(&dialect::serialize(rec.rir, &rec.registration));
            assert_eq!(rec.parsed, want, "{}", rec.asn);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_world();
        let b = small_world();
        assert_eq!(a.ases.len(), b.ases.len());
        assert_eq!(a.orgs[17].legal_name, b.orgs[17].legal_name);
        assert_eq!(a.ases[42].asn, b.ases[42].asn);
    }

    #[test]
    fn tech_fraction_near_calibration() {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(7)));
        let tech = w.orgs.iter().filter(|o| o.is_tech()).count();
        let frac = tech as f64 / w.orgs.len() as f64;
        assert!((frac - 0.64).abs() < 0.04, "tech fraction = {frac}");
    }

    #[test]
    fn isp_is_largest_category() {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(8)));
        let mut counts: HashMap<Layer2, usize> = HashMap::new();
        for o in &w.orgs {
            *counts.entry(o.category).or_insert(0) += 1;
        }
        let isp = counts.get(&known::isp()).copied().unwrap_or(0);
        for (l2, c) in &counts {
            if *l2 != known::isp() {
                assert!(isp >= *c, "{l2} ({c}) outweighs ISP ({isp})");
            }
        }
    }

    #[test]
    fn whois_field_rates_close_to_paper() {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(9)));
        let n = w.ases.len() as f64;
        let with_org = w
            .ases
            .iter()
            .filter(|a| a.registration.org_name.is_some())
            .count() as f64;
        let with_addr = w
            .ases
            .iter()
            .filter(|a| a.registration.address.is_some())
            .count() as f64;
        let with_signal = w
            .ases
            .iter()
            .filter(|a| a.parsed.has_domain_signal())
            .count() as f64;
        assert!(
            (with_org / n - 0.80).abs() < 0.03,
            "org rate {}",
            with_org / n
        );
        assert!(
            (with_addr / n - 0.617).abs() < 0.04,
            "addr rate {}",
            with_addr / n
        );
        // LACNIC drops all contacts, so the parsed signal rate is slightly
        // below the raw 87.1% registration rate.
        assert!(
            with_signal / n > 0.70 && with_signal / n < 0.90,
            "domain signal rate {}",
            with_signal / n
        );
    }

    #[test]
    fn lookups_are_consistent() {
        let w = small_world();
        for rec in w.ases.iter().take(50) {
            let org = w.org_of(rec.asn).expect("owner resolves");
            assert_eq!(org.id, rec.org);
            assert_eq!(w.as_record(rec.asn).unwrap().asn, rec.asn);
        }
        assert!(w.as_record(Asn::new(999_999_999)).is_none());
    }

    #[test]
    fn shared_noc_domains_have_high_as_counts() {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(10)));
        let mut any_high = false;
        for d in SHARED_NOC_DOMAINS {
            let count = w.domain_as_count(&Domain::new(d).unwrap());
            if count >= 100 {
                any_high = true;
            }
        }
        assert!(
            any_high,
            "at least one shared domain must exceed the 100-AS threshold"
        );
        // Ordinary org domains stay far below it.
        let sample_org = w.orgs.iter().find(|o| o.domain.is_some()).unwrap();
        assert!(w.domain_as_count(sample_org.domain.as_ref().unwrap()) < 100);
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let w = small_world();
        let a = w.sample_asns(150, "gold");
        let b = w.sample_asns(150, "gold");
        assert_eq!(a, b);
        let uniq: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(uniq.len(), a.len());
        let c = w.sample_asns(150, "test");
        assert_ne!(a, c);
    }

    #[test]
    fn live_sites_are_hosted() {
        let w = small_world();
        let live_orgs = w
            .orgs
            .iter()
            .filter(|o| o.live_site && o.domain.is_some())
            .count();
        assert!(live_orgs > 0);
        assert_eq!(w.web.len(), live_orgs);
        // Each hosted site is the one its own spec generates, and every
        // other org domain resolves but never answers.
        for org in &w.orgs {
            let Some(domain) = &org.domain else { continue };
            if !org.live_site {
                let root = w.web.fetch(domain, "/");
                assert_eq!(root.unwrap_err(), asdb_websim::FetchError::Unreachable);
                continue;
            }
            let spec = SiteSpec {
                domain: domain.clone(),
                org_name: org.legal_name.as_str().to_owned(),
                category: org.category,
                language: org.language,
                quirks: org.quirks,
            };
            let want = Website::generate(&spec, w.config.seed);
            assert_eq!(w.web.site(domain), Some(&want), "{domain}");
        }
    }

    #[test]
    fn rir_matches_country_region() {
        let w = small_world();
        for rec in w.ases.iter().take(100) {
            let org = w.org_of(rec.asn).unwrap();
            assert_eq!(rec.rir, Rir::for_region(org.country.region()));
        }
    }

    #[test]
    fn asns_in_layer1_filters_correctly() {
        let w = small_world();
        for asn in w.asns_in_layer1(Layer1::Finance) {
            assert_eq!(w.org_of(asn).unwrap().category.layer1, Layer1::Finance);
        }
    }

    #[test]
    fn non_english_rate_close_to_half() {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(11)));
        let with_site: Vec<_> = w.orgs.iter().filter(|o| o.live_site).collect();
        let foreign = with_site
            .iter()
            .filter(|o| o.language != Language::English)
            .count();
        let frac = foreign as f64 / with_site.len() as f64;
        // Config says 49% but NorthAmerica is forced English, so the
        // effective rate is a bit lower.
        assert!(frac > 0.30 && frac < 0.55, "non-english = {frac}");
    }
}
