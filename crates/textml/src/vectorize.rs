//! Vocabulary building and sparse count vectors.
//!
//! Both the fit and transform paths are allocation-lean: fitting borrows
//! tokens via [`crate::tokenize::tokens`], and transforming borrows words
//! via [`crate::tokenize::for_each_word`]; both look the vocabulary up by
//! `&str`. A document's own `String` is only cloned the first time a token
//! enters the statistics map during fitting. Count vectors are assembled
//! index-ordered and handed to [`SparseVec::from_sorted_counts`],
//! bypassing the pair sort of [`SparseVec::from_pairs`].

use crate::tokenize::{for_each_word, tokens};
use asdb_model::FxHashMap;
use std::borrow::Cow;
use std::collections::HashMap;

/// A sparse feature vector: sorted `(feature_index, value)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    entries: Vec<(u32, f32)>,
}

impl SparseVec {
    /// Build from unsorted pairs; duplicate indices are summed and
    /// zero-sum entries dropped. The input allocation is reused (compacted
    /// in place), so no spare capacity is carried by long-lived vectors.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>) -> SparseVec {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let mut w = 0usize;
        for r in 0..pairs.len() {
            let (i, v) = pairs[r];
            if w > 0 && pairs[w - 1].0 == i {
                pairs[w - 1].1 += v;
            } else {
                pairs[w] = (i, v);
                w += 1;
            }
        }
        pairs.truncate(w);
        pairs.retain(|(_, v)| *v != 0.0);
        SparseVec { entries: pairs }
    }

    /// Build directly from entries that are already strictly
    /// index-ascending with non-zero values — the fast path used by
    /// [`CountVectorizer::transform`], which produces counts index-ordered
    /// from the vocabulary map and therefore needs neither the sort nor
    /// the duplicate merge of [`SparseVec::from_pairs`].
    pub fn from_sorted_counts(entries: Vec<(u32, f32)>) -> SparseVec {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be strictly index-ascending"
        );
        debug_assert!(
            entries.iter().all(|(_, v)| *v != 0.0),
            "entries must be non-zero"
        );
        SparseVec { entries }
    }

    /// The sorted entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Dot product against a dense weight vector. Indices beyond the dense
    /// length contribute nothing (allows vocabulary growth tolerance):
    /// entries are sorted, so one binary partition finds the cutoff and the
    /// in-range prefix is summed branch-free.
    pub fn dot(&self, dense: &[f32]) -> f32 {
        let cut = self
            .entries
            .partition_point(|(i, _)| (*i as usize) < dense.len());
        self.entries[..cut]
            .iter()
            .map(|(i, v)| dense[*i as usize] * v)
            .sum()
    }

    /// [`SparseVec::dot`] against an `f64` accumulator vector (the lazy
    /// SGD trainer keeps its weights in double precision).
    pub fn dot64(&self, dense: &[f64]) -> f64 {
        let cut = self
            .entries
            .partition_point(|(i, _)| (*i as usize) < dense.len());
        self.entries[..cut]
            .iter()
            .map(|(i, v)| dense[*i as usize] * *v as f64)
            .sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|(_, v)| v * v).sum::<f32>().sqrt()
    }

    /// Scale all values in place.
    pub fn scale(&mut self, s: f32) {
        for (_, v) in &mut self.entries {
            *v *= s;
        }
    }

    /// Map values through a function (e.g. IDF weighting).
    pub fn map_values(&self, mut f: impl FnMut(u32, f32) -> f32) -> SparseVec {
        SparseVec {
            entries: self
                .entries
                .iter()
                .map(|(i, v)| (*i, f(*i, *v)))
                .filter(|(_, v)| *v != 0.0)
                .collect(),
        }
    }
}

/// Configuration for [`CountVectorizer`].
#[derive(Debug, Clone)]
pub struct VectorizerConfig {
    /// Keep at most this many features, by collection frequency.
    pub max_features: usize,
    /// Drop tokens appearing in fewer than this many documents.
    pub min_df: usize,
    /// Drop tokens appearing in more than this fraction of documents.
    pub max_df_ratio: f64,
}

impl Default for VectorizerConfig {
    fn default() -> Self {
        VectorizerConfig {
            max_features: 20_000,
            min_df: 2,
            max_df_ratio: 0.95,
        }
    }
}

/// Per-token corpus statistics gathered in a single map during fitting.
/// `last_doc` is a last-seen-doc marker (doc index + 1), which turns
/// document-frequency dedup into one comparison instead of a scan over
/// the document's previously seen tokens.
#[derive(Debug, Clone, Copy)]
struct TokenStats {
    coll: usize,
    df: usize,
    last_doc: usize,
}

/// Converts raw text into sparse word-count vectors over a fitted
/// vocabulary — the "Count Vectorizer" box of Figure 3.
#[derive(Debug, Clone, Default)]
pub struct CountVectorizer {
    /// Token → feature index. Fixed once fitted and probed with every word
    /// of every page, so it takes the fast hasher (see
    /// [`asdb_model::hash`]); the fitting statistics map, which inserts
    /// corpus words, keeps std's.
    vocab: FxHashMap<String, u32>,
    config: VectorizerConfig,
}

impl CountVectorizer {
    /// New, unfitted vectorizer.
    pub fn new(config: VectorizerConfig) -> CountVectorizer {
        CountVectorizer {
            vocab: FxHashMap::default(),
            config,
        }
    }

    /// Fit the vocabulary on a corpus and return the transformed corpus:
    /// apply the document-frequency filters, keep the `max_features` most
    /// frequent tokens, and assign indices in deterministic
    /// (frequency-desc, then lexicographic) order. Tokenizes each document
    /// exactly once: the token stream is kept (mostly borrowed) and
    /// replayed for the transform pass.
    pub fn fit_transform(&mut self, docs: &[&str]) -> Vec<SparseVec> {
        let tokenized: Vec<Vec<Cow<str>>> = docs.iter().map(|d| tokens(d).collect()).collect();
        let mut stats: HashMap<String, TokenStats> = HashMap::new();
        for (d, toks) in tokenized.iter().enumerate() {
            for t in toks {
                Self::bump(&mut stats, t.as_ref(), d + 1);
            }
        }
        self.select_vocab(stats, docs.len());
        tokenized
            .iter()
            .map(|toks| self.vectorize_tokens(toks.iter().map(|c| c.as_ref())))
            .collect()
    }

    /// Count one token occurrence in document `marker` (doc index + 1, so
    /// zero never collides). Allocates the key only on first sight.
    fn bump(stats: &mut HashMap<String, TokenStats>, t: &str, marker: usize) {
        if let Some(s) = stats.get_mut(t) {
            s.coll += 1;
            if s.last_doc != marker {
                s.df += 1;
                s.last_doc = marker;
            }
        } else {
            stats.insert(
                t.to_owned(),
                TokenStats {
                    coll: 1,
                    df: 1,
                    last_doc: marker,
                },
            );
        }
    }

    /// Apply the df filters and frequency ranking to the gathered stats.
    fn select_vocab(&mut self, stats: HashMap<String, TokenStats>, n_docs: usize) {
        let n_docs = n_docs.max(1);
        // Proportional max_df truncates like scikit-learn's int(ratio * n).
        let max_df = (self.config.max_df_ratio * n_docs as f64) as usize;
        let mut candidates: Vec<(String, usize)> = stats
            .into_iter()
            .filter(|(_, s)| s.df >= self.config.min_df && s.df <= max_df)
            .map(|(t, s)| (t, s.coll))
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        candidates.truncate(self.config.max_features);
        self.vocab = candidates
            .into_iter()
            .enumerate()
            .map(|(i, (t, _))| (t, i as u32))
            .collect();
    }

    /// Transform one document into a count vector over the fitted
    /// vocabulary. Unknown tokens are ignored. Words are borrowed (one
    /// reusable case-fold buffer), looked up by `&str`, and counts are
    /// assembled index-ordered into [`SparseVec::from_sorted_counts`].
    pub fn transform(&self, doc: &str) -> SparseVec {
        let mut buf = String::new();
        let mut idxs: Vec<u32> = Vec::new();
        // Every word probes the vocabulary as it is, with no stopword or
        // number check: fitting admits only tokens, so a stopword or a pure
        // number is never in the vocabulary and the probe alone drops it.
        for_each_word(doc, &mut buf, |t| {
            if let Some(&i) = self.vocab.get(t) {
                idxs.push(i);
            }
        });
        Self::counts_from_indices(idxs)
    }

    /// Transform an already-tokenized document (the replay half of
    /// [`CountVectorizer::fit_transform`]).
    fn vectorize_tokens<'a>(&self, toks: impl Iterator<Item = &'a str>) -> SparseVec {
        let mut idxs: Vec<u32> = Vec::new();
        for t in toks {
            if let Some(&i) = self.vocab.get(t) {
                idxs.push(i);
            }
        }
        Self::counts_from_indices(idxs)
    }

    /// Turn a bag of feature indices into a sorted count vector: sorting
    /// the bare `u32`s is the only ordering work, and the run-length pass
    /// feeds [`SparseVec::from_sorted_counts`] directly.
    fn counts_from_indices(mut idxs: Vec<u32>) -> SparseVec {
        idxs.sort_unstable();
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(idxs.len());
        for i in idxs {
            match entries.last_mut() {
                Some((li, c)) if *li == i => *c += 1.0,
                _ => entries.push((i, 1.0)),
            }
        }
        SparseVec::from_sorted_counts(entries)
    }

    /// The pre-optimization transform (owned token `Vec<String>`, per-token
    /// `String` lookup, pair sort via [`SparseVec::from_pairs`]), retained
    /// as the differential oracle.
    #[cfg(test)]
    pub fn transform_naive(&self, doc: &str) -> SparseVec {
        let pairs: Vec<(u32, f32)> = crate::tokenize::tokenize(doc)
            .into_iter()
            .filter_map(|t| self.vocab.get(&t).map(|&i| (i, 1.0)))
            .collect();
        SparseVec::from_pairs(pairs)
    }

    /// Vocabulary size.
    pub fn vocab_len(&self) -> usize {
        self.vocab.len()
    }

    /// Index of a token, if in the vocabulary.
    pub fn index_of(&self, token: &str) -> Option<u32> {
        self.vocab.get(token).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::WORD_CHARS;
    use rand::check::{self, any_string, class_string, vec_of, CASES};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn sparse_from_pairs_sums_duplicates_and_sorts() {
        let v = SparseVec::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 1.0), (2, 0.0)]);
        let entries: Vec<_> = v.iter().collect();
        assert_eq!(entries, vec![(1, 2.0), (3, 2.0)]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn from_sorted_counts_is_from_pairs_on_sorted_input() {
        let a = SparseVec::from_sorted_counts(vec![(1, 2.0), (3, 1.0), (9, 4.0)]);
        let b = SparseVec::from_pairs(vec![(1, 2.0), (3, 1.0), (9, 4.0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn dot_product() {
        let v = SparseVec::from_pairs(vec![(0, 2.0), (2, 3.0), (9, 1.0)]);
        let w = vec![1.0, 10.0, 0.5];
        assert!((v.dot(&w) - 3.5).abs() < 1e-6); // index 9 out of range → 0
        assert!((v.dot64(&[1.0f64, 10.0, 0.5]) - 3.5).abs() < 1e-9);
        assert_eq!(v.dot(&[]), 0.0);
    }

    #[test]
    fn norm_and_scale() {
        let mut v = SparseVec::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        assert!((v.norm() - 5.0).abs() < 1e-6);
        v.scale(2.0);
        assert!((v.norm() - 10.0).abs() < 1e-6);
    }

    fn corpus() -> Vec<&'static str> {
        vec![
            "fast fiber internet service provider network",
            "cloud hosting dedicated server datacenter network",
            "fiber internet provider coverage network",
            "managed hosting server cloud network",
        ]
    }

    #[test]
    fn fit_transform_produces_consistent_vectors() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 1,
            max_df_ratio: 1.0,
        });
        let xs = vz.fit_transform(&docs);
        assert_eq!(xs.len(), 4);
        assert!(vz.vocab_len() >= 8);
        // "network" appears in all docs.
        let net = vz.index_of("network").unwrap();
        for x in &xs {
            assert!(x.iter().any(|(i, _)| i == net));
        }
    }

    #[test]
    fn fit_transform_matches_transform() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 1,
            max_df_ratio: 1.0,
        });
        let xs = vz.fit_transform(&docs);
        for (doc, x) in docs.iter().zip(&xs) {
            assert_eq!(*x, vz.transform(doc), "{doc}");
        }
    }

    #[test]
    fn transform_matches_naive_reference() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 1,
            max_df_ratio: 1.0,
        });
        vz.fit_transform(&docs);
        for doc in docs
            .iter()
            .chain(["UPPER Case fiber Network!", "novel words only", ""].iter())
        {
            assert_eq!(vz.transform(doc), vz.transform_naive(doc), "{doc}");
        }
    }

    #[test]
    fn min_df_filters_rare_tokens() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 2,
            max_df_ratio: 1.0,
        });
        vz.fit_transform(&docs);
        assert!(vz.index_of("coverage").is_none(), "df=1 token kept");
        assert!(vz.index_of("fiber").is_some());
    }

    #[test]
    fn max_df_filters_ubiquitous_tokens() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 1,
            max_df_ratio: 0.8,
        });
        vz.fit_transform(&docs);
        assert!(vz.index_of("network").is_none(), "df=100% token kept");
    }

    #[test]
    fn max_features_caps_vocabulary() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 3,
            min_df: 1,
            max_df_ratio: 1.0,
        });
        vz.fit_transform(&docs);
        assert_eq!(vz.vocab_len(), 3);
    }

    #[test]
    fn repeated_tokens_count_collection_frequency_once_per_occurrence() {
        // "fiber fiber fiber" in one doc: coll = 3, df = 1.
        let docs = vec!["fiber fiber fiber", "fiber cable"];
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 2,
            max_df_ratio: 1.0,
        });
        vz.fit_transform(&docs);
        assert!(vz.index_of("fiber").is_some());
        assert!(vz.index_of("cable").is_none(), "df=1 token kept");
        let x = vz.transform("fiber fiber");
        assert_eq!(x.iter().next().map(|(_, c)| c), Some(2.0));
    }

    #[test]
    fn unknown_tokens_ignored_on_transform() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig::default());
        vz.fit_transform(&docs);
        let x = vz.transform("completely novel wording here");
        assert!(x.is_empty());
    }

    #[test]
    fn fitting_is_deterministic() {
        let docs = corpus();
        let mut a = CountVectorizer::new(VectorizerConfig::default());
        let mut b = CountVectorizer::new(VectorizerConfig::default());
        assert_eq!(a.fit_transform(&docs), b.fit_transform(&docs));
        for t in ["fiber", "hosting", "network", "internet"] {
            assert_eq!(a.index_of(t), b.index_of(t));
        }
    }

    #[test]
    fn from_pairs_entries_sorted_unique() {
        check::cases(
            CASES,
            |rng| {
                vec_of(rng, 0..60, |r| {
                    (r.random_range(0u32..50), r.random_range(-3.0f32..3.0))
                })
            },
            |pairs| {
                let v = SparseVec::from_pairs(pairs);
                let e: Vec<_> = v.iter().collect();
                for w in e.windows(2) {
                    assert!(w[0].0 < w[1].0);
                }
                for (_, val) in e {
                    assert!(val != 0.0);
                }
            },
        );
    }

    /// The zero-copy transform agrees with the naive reference on
    /// arbitrary text against a fixed vocabulary.
    #[test]
    fn transform_matches_naive_proptest() {
        let docs = corpus();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 100,
            min_df: 1,
            max_df_ratio: 1.0,
        });
        vz.fit_transform(&docs);
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=200),
            |doc| {
                assert_eq!(vz.transform(&doc), vz.transform_naive(&doc));
            },
        );
    }

    /// The transform agrees with the naive reference on text built from
    /// cased, non-ASCII, combining and separator chars, against a
    /// vocabulary fitted on such text.
    #[test]
    fn transform_matches_naive_on_tricky_chars() {
        let draw = |rng: &mut _| class_string(rng, WORD_CHARS, 0..=120);
        let docs: Vec<String> = (0..64)
            .map(|seed| draw(&mut StdRng::seed_from_u64(seed)))
            .collect();
        let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let mut vz = CountVectorizer::new(VectorizerConfig {
            max_features: 10_000,
            min_df: 1,
            max_df_ratio: 1.0,
        });
        vz.fit_transform(&doc_refs);
        assert!(vz.vocab_len() > 100, "vocabulary of {}", vz.vocab_len());
        check::cases(CASES, draw, |doc| {
            assert_eq!(vz.transform(&doc), vz.transform_naive(&doc));
        });
    }

    /// dot via partition matches a filtered fold for any dense length.
    #[test]
    fn dot_partition_matches_filter() {
        check::cases(
            CASES,
            |rng| {
                let pairs = vec_of(rng, 0..30, |r| {
                    (r.random_range(0u32..40), r.random_range(-2.0f32..2.0))
                });
                let dense = vec_of(rng, 0..32, |r| r.random_range(-2.0f32..2.0));
                (pairs, dense)
            },
            |(pairs, dense)| {
                let v = SparseVec::from_pairs(pairs);
                let expect: f32 = v
                    .iter()
                    .filter(|(i, _)| (*i as usize) < dense.len())
                    .map(|(i, x)| dense[i as usize] * x)
                    .sum();
                assert!((v.dot(&dense) - expect).abs() <= 1e-5);
            },
        );
    }
}
