//! The end-to-end text classifier: CountVectorizer → TF-IDF → SGD ensemble
//! (the right half of Figure 3, after scraping and translation). The
//! feature transform is its own type, [`TextFeaturizer`], so several
//! ensembles can share one.

use crate::sgd::{SgdConfig, SgdEnsemble};
use crate::tfidf::TfidfTransformer;
use crate::vectorize::{CountVectorizer, SparseVec, VectorizerConfig};
use asdb_model::WorldSeed;

/// Configuration for [`TextPipeline`].
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Vectorizer settings.
    pub vectorizer: VectorizerConfig,
    /// SGD settings.
    pub sgd: SgdConfig,
    /// Ensemble size.
    pub n_members: usize,
}

impl PipelineConfig {
    /// The configuration used for ASdb's ISP/hosting detectors: a small
    /// ensemble of averaged logistic SGD models. The paper's "model uses 6
    /// CPU cores and 5 seconds to train"; this one fits on one thread in
    /// a few milliseconds.
    pub fn asdb_default() -> PipelineConfig {
        PipelineConfig {
            vectorizer: VectorizerConfig {
                max_features: 20_000,
                min_df: 2,
                max_df_ratio: 0.95,
            },
            sgd: SgdConfig::default(),
            n_members: 3,
        }
    }

    /// Fit this configuration's SGD ensemble on featurized documents.
    pub fn fit_ensemble(
        &self,
        features: &[SparseVec],
        labels: &[bool],
        n_features: usize,
        seed: WorldSeed,
    ) -> SgdEnsemble {
        SgdEnsemble::fit(
            features,
            labels,
            n_features,
            self.sgd.clone(),
            seed,
            self.n_members.max(1),
        )
    }
}

/// A fitted raw-text → TF-IDF feature transform: the "Count Vectorizer"
/// and "TF ID Transformer" boxes of Figure 3. Neither sees labels or
/// seeds, so classifiers trained on the same corpus can share one.
#[derive(Debug, Clone)]
pub struct TextFeaturizer {
    vectorizer: CountVectorizer,
    tfidf: TfidfTransformer,
}

impl TextFeaturizer {
    /// Fit the vocabulary and IDF weights on a corpus and return the
    /// featurized corpus. The vectorizer tokenizes each document once
    /// (borrowed tokens) and replays the stream for the transform pass.
    pub fn fit_transform(
        docs: &[&str],
        config: VectorizerConfig,
    ) -> (TextFeaturizer, Vec<SparseVec>) {
        let mut vectorizer = CountVectorizer::new(config);
        let counts = vectorizer.fit_transform(docs);
        let (tfidf, features) = TfidfTransformer::fit_transform(&counts);
        (TextFeaturizer { vectorizer, tfidf }, features)
    }

    /// Transform a raw document into the fitted feature space.
    pub fn featurize(&self, doc: &str) -> SparseVec {
        self.tfidf.transform(&self.vectorizer.transform(doc))
    }

    /// Featurize through the retained pre-optimization vectorizer and
    /// TF-IDF paths (differential oracle).
    #[cfg(test)]
    pub fn featurize_naive(&self, doc: &str) -> SparseVec {
        self.tfidf
            .transform_naive(&self.vectorizer.transform_naive(doc))
    }

    /// Vocabulary size after fitting.
    pub fn vocab_len(&self) -> usize {
        self.vectorizer.vocab_len()
    }
}

/// A fitted raw-text → binary-verdict classifier: a [`TextFeaturizer`]
/// feeding one SGD ensemble.
#[derive(Debug, Clone)]
pub struct TextPipeline {
    featurizer: TextFeaturizer,
    ensemble: SgdEnsemble,
}

impl TextPipeline {
    /// Fit the full pipeline on labeled documents. The ensemble trains its
    /// members one after another with the O(nnz) lazy-scaled SGD.
    ///
    /// Panics if `docs` and `labels` have different lengths.
    pub fn fit(
        docs: &[&str],
        labels: &[bool],
        config: PipelineConfig,
        seed: WorldSeed,
    ) -> TextPipeline {
        assert_eq!(docs.len(), labels.len(), "docs and labels must be parallel");
        let (featurizer, features) = TextFeaturizer::fit_transform(docs, config.vectorizer.clone());
        let ensemble = config.fit_ensemble(&features, labels, featurizer.vocab_len(), seed);
        TextPipeline {
            featurizer,
            ensemble,
        }
    }

    /// Transform a raw document into the pipeline's feature space.
    pub fn featurize(&self, doc: &str) -> SparseVec {
        self.featurizer.featurize(doc)
    }

    /// The fitted feature transform.
    pub fn featurizer(&self) -> &TextFeaturizer {
        &self.featurizer
    }

    /// Probability that the document belongs to the positive class.
    pub fn predict_proba(&self, doc: &str) -> f32 {
        self.ensemble.predict_proba(&self.featurize(doc))
    }

    /// Hard verdict at the 0.5 threshold.
    pub fn predict(&self, doc: &str) -> bool {
        self.predict_proba(doc) > 0.5
    }

    /// Vocabulary size after fitting.
    pub fn vocab_len(&self) -> usize {
        self.featurizer.vocab_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn isp_docs() -> Vec<&'static str> {
        vec![
            "fast fiber internet for your home broadband coverage unlimited data plans",
            "regional internet service provider broadband dsl coverage network plans",
            "wireless internet provider rural broadband coverage speeds",
            "broadband internet plans fiber coverage provider residential",
            "internet provider broadband fiber dsl plans coverage network",
            "gigabit fiber broadband plans for residential internet coverage",
        ]
    }

    fn other_docs() -> Vec<&'static str> {
        vec![
            "commercial banking accounts loans mortgages branches financial",
            "university campus students faculty research degrees admissions",
            "hospital patient care clinic medical doctors emergency services",
            "farm fresh produce organic agriculture harvest crops seasonal",
            "law firm attorneys litigation corporate counsel legal services",
            "museum exhibits collections tours art history tickets visit",
        ]
    }

    fn fit_toy(seed: u64) -> TextPipeline {
        let mut docs = isp_docs();
        docs.extend(other_docs());
        let labels: Vec<bool> = (0..docs.len()).map(|i| i < isp_docs().len()).collect();
        let mut cfg = PipelineConfig::asdb_default();
        cfg.vectorizer.min_df = 1;
        cfg.sgd.epochs = 40;
        TextPipeline::fit(&docs, &labels, cfg, WorldSeed::new(seed))
    }

    #[test]
    fn separates_isp_text_from_other_text() {
        let p = fit_toy(11);
        assert!(p.predict("broadband fiber internet provider coverage plans"));
        assert!(!p.predict("hospital medical patient clinic doctors"));
    }

    #[test]
    fn probabilities_rank_correctly() {
        let p = fit_toy(12);
        let docs = [
            "fiber broadband internet provider",
            "banking loans financial branches",
        ];
        let probs = docs.map(|d| p.predict_proba(d));
        assert!(probs[0] > probs[1]);
        let labels = [true, false];
        assert!(Metrics::roc_auc(&probs, &labels) > 0.99);
    }

    #[test]
    fn unknown_text_is_near_prior() {
        let p = fit_toy(13);
        // A document with no vocabulary overlap has an empty feature vector;
        // the decision is then the bias alone.
        let prob = p.predict_proba("zzz qqq xxx www");
        assert!((0.0..=1.0).contains(&prob));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fit_toy(9);
        let b = fit_toy(9);
        assert_eq!(
            a.predict_proba("fiber internet provider"),
            b.predict_proba("fiber internet provider"),
        );
    }

    #[test]
    fn featurize_is_normalized() {
        let p = fit_toy(10);
        let x = p.featurize("fiber broadband internet coverage");
        assert!(x.nnz() > 0);
        assert!((x.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn featurize_matches_naive_reference() {
        let p = fit_toy(14);
        for doc in [
            "fiber broadband internet coverage",
            "Hospital MEDICAL patient clinic",
            "zzz qqq unknown words",
            "",
        ] {
            let f = p.featurizer();
            assert_eq!(f.featurize(doc), f.featurize_naive(doc), "{doc:?}");
        }
    }

    /// The featurizer equals the naive tokenizer, vectorizer and TF-IDF
    /// on every scraped page of three standard worlds, raw and translated,
    /// with the vocabulary fitted on all of those texts (so it holds
    /// foreign and cased-then-folded words too).
    #[test]
    fn featurize_matches_naive_on_standard_worlds() {
        use asdb_websim::scraper::{scrape, ScrapeConfig};
        use asdb_websim::Translator;
        use asdb_worldgen::{World, WorldConfig};

        for s in 1..=3 {
            let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
            let translator = Translator::new(w.config.web.translation_loss, WorldSeed::new(s));
            let mut texts = Vec::new();
            for domain in w.orgs.iter().filter_map(|o| o.domain.as_ref()) {
                if let Ok(page) = scrape(&w.web, domain, &ScrapeConfig::default()) {
                    texts.push(translator.translate(&page.text).into_owned());
                    texts.push(page.text);
                }
            }
            assert!(texts.len() > 2_000, "seed {s}: only {} texts", texts.len());
            let docs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (f, features) =
                TextFeaturizer::fit_transform(&docs, PipelineConfig::asdb_default().vectorizer);
            assert!(
                f.vocab_len() > 200,
                "seed {s}: vocabulary of {}",
                f.vocab_len()
            );
            for (doc, x) in docs.iter().zip(&features) {
                let got = f.featurize(doc);
                assert_eq!(got, f.featurize_naive(doc), "seed {s}: {doc:?}");
                assert_eq!(&got, x, "seed {s}: {doc:?}");
            }
        }
    }
}
