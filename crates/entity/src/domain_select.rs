//! The §5.1 domain-extraction algorithm.
//!
//! > "(1) pool domains from RIR metadata and ASN-queryable data source
//! > matches; (2) remove all domains that belong to a hand-curated list of
//! > the top 10 email domains (e.g., Gmail); (3) if at least one provided
//! > domain appears in < 100 ASes, filter out domains that appear in ≥ 100
//! > ASes; (4) choose from the remaining pool of domains using 'most
//! > similar' domain matching (91% accuracy, 85% coverage)."
//!
//! Table 5 also evaluates the *random* and *least common* strategies; all
//! three are implemented so the entity-resolution experiment can reproduce
//! the comparison.

use crate::similarity::NormName;
use asdb_model::{Domain, WorldSeed};
use asdb_websim::html;
use asdb_websim::Fetcher;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The domain-count threshold of step 3: domains appearing in ≥ 100 ASes
/// are shared contact services, not organization domains.
pub const COMMON_DOMAIN_THRESHOLD: usize = 100;

/// How to pick from the filtered candidate pool (Table 5's three rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainStrategy {
    /// Uniformly random choice (70% accuracy in the paper).
    Random,
    /// "least common domain" — fewest WHOIS appearances (90%).
    LeastCommon,
    /// "most similar domain" — homepage title (or domain string, when the
    /// site is unreachable) most similar to the AS name (91%).
    MostSimilar,
}

/// A candidate pool, carrying each domain's WHOIS-wide AS count.
#[derive(Debug, Clone, Default)]
pub struct DomainCandidates {
    entries: Vec<(Domain, usize)>,
}

impl DomainCandidates {
    /// Build a pool; duplicates are collapsed (keeping the first count).
    pub fn new(domains: impl IntoIterator<Item = (Domain, usize)>) -> DomainCandidates {
        let mut entries: Vec<(Domain, usize)> = Vec::new();
        for (d, c) in domains {
            let d = d.registrable();
            if !entries.iter().any(|(e, _)| *e == d) {
                entries.push((d, c));
            }
        }
        DomainCandidates { entries }
    }

    /// Number of candidates before filtering.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Steps 2–3: drop public email domains; then, if any sub-threshold
    /// domain remains, drop the ≥-threshold ones.
    pub fn filtered(&self) -> Vec<(Domain, usize)> {
        let no_email: Vec<(Domain, usize)> = self
            .entries
            .iter()
            .filter(|(d, _)| !d.is_public_email_domain())
            .cloned()
            .collect();
        let any_rare = no_email.iter().any(|(_, c)| *c < COMMON_DOMAIN_THRESHOLD);
        if any_rare {
            no_email
                .into_iter()
                .filter(|(_, c)| *c < COMMON_DOMAIN_THRESHOLD)
                .collect()
        } else {
            no_email
        }
    }
}

/// Run the full §5.1 algorithm: filter the pool and pick per strategy.
///
/// `reference_name` is the AS/organization name to compare homepage titles
/// against; `fetcher` is consulted only for [`DomainStrategy::MostSimilar`].
pub fn select_domain<F: Fetcher>(
    candidates: &DomainCandidates,
    reference_name: &str,
    strategy: DomainStrategy,
    fetcher: &F,
    seed: WorldSeed,
) -> Option<Domain> {
    let pool = candidates.filtered();
    if pool.is_empty() {
        return None;
    }
    if pool.len() == 1 {
        return Some(pool[0].0.clone());
    }
    match strategy {
        DomainStrategy::Random => {
            let mut rng =
                StdRng::seed_from_u64(seed.derive("domain-random").derive(reference_name).value());
            Some(pool[rng.random_range(0..pool.len())].0.clone())
        }
        DomainStrategy::LeastCommon => pool
            .iter()
            .min_by_key(|(d, c)| (*c, d.as_str().to_owned()))
            .map(|(d, _)| d.clone()),
        DomainStrategy::MostSimilar => {
            // The AS name is normalized once for every candidate's two
            // scores (`NormName::similarity` is `name_similarity`).
            let reference = NormName::new(reference_name);
            let similarity = |other: &str| reference.similarity(&NormName::new(other));
            let mut best: Option<(f64, Domain)> = None;
            for (d, _) in &pool {
                let title = homepage_title(fetcher, d)
                    .unwrap_or_else(|| d.as_str().replace(['.', '-'], " "));
                let score = similarity(&title)
                    // Tie-break toward name/domain affinity as well.
                    .max(similarity(d.leftmost_label()) * 0.98);
                match &best {
                    Some((s, _)) if *s >= score => {}
                    _ => best = Some((score, d.clone())),
                }
            }
            best.map(|(_, d)| d)
        }
    }
}

/// Fetch a domain's homepage title ("or, for unreachable sites, the domain
/// itself is used" — the caller handles the fallback).
pub fn homepage_title<F: Fetcher>(fetcher: &F, domain: &Domain) -> Option<String> {
    let fetched = fetcher.fetch(domain, "/").ok()?;
    let title = html::title(&fetched.markup);
    (!title.is_empty()).then(|| title.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use asdb_taxonomy::naicslite::known;
    use asdb_websim::{Language, SimWeb, SiteQuirks, SiteSpec, Website};

    fn dom(s: &str) -> Domain {
        Domain::new(s).unwrap()
    }

    fn web_with(org: &str, domain: &str) -> SimWeb {
        let mut web = SimWeb::new();
        web.host(Website::generate(
            &SiteSpec {
                domain: dom(domain),
                org_name: org.into(),
                category: known::isp(),
                language: Language::English,
                quirks: SiteQuirks::default(),
            },
            WorldSeed::new(5),
        ));
        web
    }

    #[test]
    fn public_email_domains_removed() {
        let c = DomainCandidates::new([(dom("gmail.com"), 5000), (dom("acmenet.com"), 2)]);
        let f = c.filtered();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].0.as_str(), "acmenet.com");
    }

    #[test]
    fn common_domains_filtered_only_when_rare_exists() {
        // Rare + common → common dropped.
        let c = DomainCandidates::new([(dom("noc-services.net"), 800), (dom("acmenet.com"), 2)]);
        assert_eq!(c.filtered().len(), 1);
        // Only common → kept (better than nothing).
        let c = DomainCandidates::new([(dom("noc-services.net"), 800)]);
        assert_eq!(c.filtered().len(), 1);
    }

    #[test]
    fn registrable_normalization_dedupes() {
        let c = DomainCandidates::new([
            (dom("www.acmenet.com"), 2),
            (dom("acmenet.com"), 2),
            (dom("mail.acmenet.com"), 3),
        ]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn most_similar_picks_title_match() {
        // Two plausible candidates; only the right one's homepage title
        // matches the org name.
        let web = web_with("Acmenet Communications", "acmenet.com");
        let c = DomainCandidates::new([(dom("unrelated-host.org"), 3), (dom("acmenet.com"), 2)]);
        let picked = select_domain(
            &c,
            "Acmenet Communications",
            DomainStrategy::MostSimilar,
            &web,
            WorldSeed::new(1),
        )
        .unwrap();
        assert_eq!(picked.as_str(), "acmenet.com");
    }

    #[test]
    fn most_similar_falls_back_to_domain_string() {
        // No sites hosted at all: the domain string itself is compared.
        let web = SimWeb::new();
        let c = DomainCandidates::new([(dom("zzz-unrelated.org"), 3), (dom("acmenet.com"), 3)]);
        let picked = select_domain(
            &c,
            "ACMENET",
            DomainStrategy::MostSimilar,
            &web,
            WorldSeed::new(1),
        )
        .unwrap();
        assert_eq!(picked.as_str(), "acmenet.com");
    }

    #[test]
    fn least_common_picks_rarest() {
        let web = SimWeb::new();
        let c = DomainCandidates::new([
            (dom("shared-noc.net"), 90),
            (dom("acmenet.com"), 2),
            (dom("other.org"), 10),
        ]);
        let picked = select_domain(
            &c,
            "whatever",
            DomainStrategy::LeastCommon,
            &web,
            WorldSeed::new(1),
        )
        .unwrap();
        assert_eq!(picked.as_str(), "acmenet.com");
    }

    #[test]
    fn random_is_deterministic_per_seed_and_name() {
        let web = SimWeb::new();
        let c = DomainCandidates::new([(dom("a.com"), 1), (dom("b.com"), 1), (dom("c.com"), 1)]);
        let p1 = select_domain(
            &c,
            "X Corp",
            DomainStrategy::Random,
            &web,
            WorldSeed::new(9),
        );
        let p2 = select_domain(
            &c,
            "X Corp",
            DomainStrategy::Random,
            &web,
            WorldSeed::new(9),
        );
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_pool_returns_none() {
        let web = SimWeb::new();
        let c = DomainCandidates::new([(dom("gmail.com"), 9000)]);
        assert!(select_domain(
            &c,
            "X",
            DomainStrategy::MostSimilar,
            &web,
            WorldSeed::new(1)
        )
        .is_none());
        let empty = DomainCandidates::default();
        assert!(empty.is_empty());
        assert!(
            select_domain(&empty, "X", DomainStrategy::Random, &web, WorldSeed::new(1)).is_none()
        );
    }

    #[test]
    fn singleton_pool_short_circuits() {
        let web = SimWeb::new();
        let c = DomainCandidates::new([(dom("only.com"), 1)]);
        for strat in [
            DomainStrategy::Random,
            DomainStrategy::LeastCommon,
            DomainStrategy::MostSimilar,
        ] {
            assert_eq!(
                select_domain(&c, "X", strat, &web, WorldSeed::new(1))
                    .unwrap()
                    .as_str(),
                "only.com"
            );
        }
    }
}
