//! ASdb's ML component: the two binary website classifiers (§4.1).
//!
//! "We introduce two binary classifiers trained to identify hosting
//! provider and ISP websites." Both follow Figure 3: scrape the domain
//! (root + keyword internal pages), translate to English, count-vectorize,
//! TF-IDF, SGD ensemble. The two share everything up to the ensembles: the
//! vectorizer and TF-IDF are fit on the same corpus and never see labels
//! or seeds, so one fitted [`TextFeaturizer`] serves both and a page is
//! featurized once.

use asdb_model::{Domain, WorldSeed};
use asdb_taxonomy::naicslite::known;
use asdb_textml::pipeline::PipelineConfig;
use asdb_textml::{SgdEnsemble, TextFeaturizer};
use asdb_websim::scraper::{scrape, ScrapeConfig};
use asdb_websim::{FetchError, Fetcher, PageRead, Translator};
use asdb_worldgen::World;

/// The two trained classifiers plus the shared scraping, translation and
/// featurization stack.
#[derive(Debug, Clone)]
pub struct MlClassifiers {
    featurizer: TextFeaturizer,
    isp: SgdEnsemble,
    hosting: SgdEnsemble,
    scrape_config: ScrapeConfig,
    translator: Translator,
}

/// One domain's ML verdicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlVerdict {
    /// P(the site is an ISP's).
    pub p_isp: f32,
    /// P(the site is a hosting provider's).
    pub p_hosting: f32,
}

impl MlVerdict {
    /// Hard ISP verdict at 0.5.
    pub fn is_isp(&self) -> bool {
        self.p_isp > 0.5
    }

    /// Hard hosting verdict at 0.5.
    pub fn is_hosting(&self) -> bool {
        self.p_hosting > 0.5
    }

    /// Whether either detector fired.
    pub fn fired(&self) -> bool {
        self.is_isp() || self.is_hosting()
    }
}

impl MlClassifiers {
    /// Assemble the §4.1 training set from a world and train both
    /// classifiers over one shared featurizer, all on the calling thread.
    pub fn train(world: &World, seed: WorldSeed) -> MlClassifiers {
        let translator = Translator::new(
            world.config.web.translation_loss,
            seed.derive("asdb-translate"),
        );
        let scrape_config = ScrapeConfig::default();
        let (docs, isp_labels, hosting_labels) =
            training_corpus(world, &translator, &scrape_config);
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let config = PipelineConfig::asdb_default();
        let (featurizer, features) =
            TextFeaturizer::fit_transform(&doc_refs, config.vectorizer.clone());
        let n_features = featurizer.vocab_len();
        let isp = config.fit_ensemble(&features, &isp_labels, n_features, seed.derive("isp-clf"));
        let hosting = config.fit_ensemble(
            &features,
            &hosting_labels,
            n_features,
            seed.derive("hosting-clf"),
        );
        MlClassifiers {
            featurizer,
            isp,
            hosting,
            scrape_config,
            translator,
        }
    }

    /// Read + classify one domain: [`MlClassifiers::read`], then
    /// [`MlClassifiers::score`]. `None` when the site is unreachable or
    /// yields no text.
    pub fn classify<F: Fetcher>(&self, web: &F, domain: &Domain) -> Option<MlVerdict> {
        self.score(&self.read(web, domain).ok()?)
    }

    /// Read a domain's site with the Figure 3 scraper: its text and
    /// detected language, or the fetch error.
    pub fn read<F: Fetcher>(&self, web: &F, domain: &Domain) -> Result<PageRead, FetchError> {
        PageRead::read(web, domain, &self.scrape_config)
    }

    /// Translate + classify a read page. `None` when it yields no text
    /// (fewer than ten words).
    pub fn score(&self, read: &PageRead) -> Option<MlVerdict> {
        if !read.page.is_substantive() {
            return None;
        }
        let english = self.translator.translate_as(&read.page.text, read.language);
        Some(self.classify_text(&english))
    }

    /// Classify pre-scraped, pre-translated text: the second half of
    /// [`MlClassifiers::classify`]. perfbench's replay calls it on its own
    /// to time inference apart from the scrape. The text is featurized
    /// once for both detectors.
    pub fn classify_text(&self, text: &str) -> MlVerdict {
        let x = self.featurizer.featurize(text);
        MlVerdict {
            p_isp: self.isp.predict_proba(&x),
            p_hosting: self.hosting.predict_proba(&x),
        }
    }
}

/// Assemble the §4.1 training set: "a labeled training set of 225 ASes, of
/// which 150 ASes are random and 75 ASes are sampled from D&B-labeled
/// hosting providers to provide sufficient hosting-class balance"
/// (Table 2). Returns the translated page texts of the scrapable ones with
/// their ISP and hosting labels.
fn training_corpus(
    world: &World,
    translator: &Translator,
    scrape_config: &ScrapeConfig,
) -> (Vec<String>, Vec<bool>, Vec<bool>) {
    // 150 random ASes…
    let mut train_orgs: Vec<_> = world
        .sample_asns(150, "ml-train")
        .into_iter()
        .filter_map(|asn| world.org_of(asn))
        .collect();
    // …plus 75 hosting providers for class balance.
    let hosting_orgs: Vec<_> = world
        .orgs
        .iter()
        .filter(|o| o.category == known::hosting() && o.live_site)
        .take(75)
        .collect();
    train_orgs.extend(hosting_orgs);

    let mut docs: Vec<String> = Vec::new();
    let mut isp_labels: Vec<bool> = Vec::new();
    let mut hosting_labels: Vec<bool> = Vec::new();
    for org in train_orgs {
        let Some(domain) = &org.domain else { continue };
        let Ok(res) = scrape(&world.web, domain, scrape_config) else {
            continue;
        };
        docs.push(translator.translate(&res.text).into_owned());
        let truth = org.truth();
        isp_labels.push(truth.layer2s().contains(&known::isp()));
        hosting_labels.push(truth.layer2s().contains(&known::hosting()));
    }
    (docs, isp_labels, hosting_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_textml::{Metrics, TextPipeline};
    use asdb_websim::SimWeb;
    use asdb_worldgen::WorldConfig;

    /// The detectors before they shared a featurizer: two full pipelines,
    /// each fitting its own vectorizer and TF-IDF on the same corpus. Kept
    /// here only as the differential oracle for [`MlClassifiers`].
    struct TwoPipelines {
        isp: TextPipeline,
        hosting: TextPipeline,
        translator: Translator,
    }

    impl TwoPipelines {
        fn train(world: &World, seed: WorldSeed) -> TwoPipelines {
            let translator = Translator::new(
                world.config.web.translation_loss,
                seed.derive("asdb-translate"),
            );
            let (docs, isp_labels, hosting_labels) =
                training_corpus(world, &translator, &ScrapeConfig::default());
            let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            let mut cfg = PipelineConfig::asdb_default();
            cfg.vectorizer.min_df = 2;
            TwoPipelines {
                isp: TextPipeline::fit(&doc_refs, &isp_labels, cfg.clone(), seed.derive("isp-clf")),
                hosting: TextPipeline::fit(
                    &doc_refs,
                    &hosting_labels,
                    cfg,
                    seed.derive("hosting-clf"),
                ),
                translator,
            }
        }

        fn classify_text(&self, text: &str) -> MlVerdict {
            MlVerdict {
                p_isp: self.isp.predict_proba(text),
                p_hosting: self.hosting.predict_proba(text),
            }
        }

        fn classify(&self, web: &SimWeb, domain: &Domain) -> Option<MlVerdict> {
            let res = scrape(web, domain, &ScrapeConfig::default()).ok()?;
            if !res.is_substantive() {
                return None;
            }
            Some(self.classify_text(&self.translator.translate(&res.text)))
        }
    }

    fn bits(v: MlVerdict) -> (u32, u32) {
        (v.p_isp.to_bits(), v.p_hosting.to_bits())
    }

    /// One shared featurizer gives bit-equal verdicts to two independently
    /// fitted pipelines on every domain of three standard worlds, through
    /// both `classify` and `classify_text` on the untranslated page.
    #[test]
    fn shared_featurizer_matches_two_pipelines_on_standard_worlds() {
        for s in 1..=3 {
            let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
            let seed = WorldSeed::new(s).derive("ml");
            let ml = MlClassifiers::train(&w, seed);
            let oracle = TwoPipelines::train(&w, seed);
            let mut scored = 0usize;
            for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
                let verdict = ml.classify(&w.web, domain);
                assert_eq!(
                    verdict.map(bits),
                    oracle.classify(&w.web, domain).map(bits),
                    "seed {s}, {domain}"
                );
                scored += usize::from(verdict.is_some());
                if let Ok(page) = scrape(&w.web, domain, &ScrapeConfig::default()) {
                    assert_eq!(
                        bits(ml.classify_text(&page.text)),
                        bits(oracle.classify_text(&page.text)),
                        "seed {s}, {domain}"
                    );
                }
            }
            assert!(scored > 1_000, "seed {s}: only {scored} domains scored");
        }
    }

    fn world() -> World {
        World::generate(WorldConfig::standard(WorldSeed::new(2021)))
    }

    #[test]
    fn classifiers_beat_chance_substantially() {
        let w = world();
        let ml = MlClassifiers::train(&w, WorldSeed::new(7));
        // Evaluate on a held-out random sample.
        let test = w.sample_asns(150, "ml-test");
        let mut isp_scores = Vec::new();
        let mut isp_truth = Vec::new();
        let mut host_scores = Vec::new();
        let mut host_truth = Vec::new();
        for asn in test {
            let org = w.org_of(asn).unwrap();
            let Some(domain) = &org.domain else { continue };
            let Some(v) = ml.classify(&w.web, domain) else {
                continue;
            };
            isp_scores.push(v.p_isp);
            isp_truth.push(org.truth().layer2s().contains(&known::isp()));
            host_scores.push(v.p_hosting);
            host_truth.push(org.truth().layer2s().contains(&known::hosting()));
        }
        assert!(isp_scores.len() > 80, "too few scorable sites");
        let isp_auc = Metrics::roc_auc(&isp_scores, &isp_truth);
        let host_auc = Metrics::roc_auc(&host_scores, &host_truth);
        // Paper: ISP AUC .94, hosting .80.
        assert!(isp_auc > 0.85, "ISP AUC = {isp_auc}");
        assert!(host_auc > 0.70, "hosting AUC = {host_auc}");
    }

    #[test]
    fn unreachable_sites_yield_none() {
        let w = world();
        let ml = MlClassifiers::train(&w, WorldSeed::new(8));
        let dead = w
            .orgs
            .iter()
            .find(|o| !o.live_site && o.domain.is_some())
            .unwrap();
        assert!(ml.classify(&w.web, dead.domain.as_ref().unwrap()).is_none());
    }

    #[test]
    fn classify_text_is_deterministic() {
        let w = world();
        let ml = MlClassifiers::train(&w, WorldSeed::new(9));
        let a = ml.classify_text("fiber broadband internet provider coverage plans");
        let b = ml.classify_text("fiber broadband internet provider coverage plans");
        assert_eq!(a, b);
        assert!(a.p_isp > a.p_hosting);
    }
}
