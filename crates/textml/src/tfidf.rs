//! TF-IDF weighting — the "TF ID Transformer" box of Figure 3.
//!
//! Formulas match scikit-learn's `TfidfTransformer` defaults (the paper's
//! pipeline is scikit-learn based): smoothed IDF
//! `idf(t) = ln((1 + n) / (1 + df(t))) + 1`, followed by L2 normalization
//! of each document vector.

use crate::vectorize::SparseVec;

/// Fitted IDF weights.
#[derive(Debug, Clone, Default)]
pub struct TfidfTransformer {
    idf: Vec<f32>,
    /// The maximum fitted IDF (== the df-0 smoothed IDF), cached at fit
    /// time so `transform` does not fold over every IDF per document.
    max_idf: f32,
}

impl TfidfTransformer {
    /// Fit IDF weights from count vectors.
    pub fn fit(vectors: &[SparseVec]) -> TfidfTransformer {
        let mut df: Vec<usize> = Vec::new();
        for v in vectors {
            for (i, _) in v.iter() {
                let i = i as usize;
                if i >= df.len() {
                    df.resize(i + 1, 0);
                }
                df[i] += 1;
            }
        }
        let n = vectors.len() as f64;
        let idf: Vec<f32> = df
            .into_iter()
            .map(|d| (((1.0 + n) / (1.0 + d as f64)).ln() + 1.0) as f32)
            .collect();
        let max_idf = idf.iter().copied().fold(1.0f32, f32::max);
        TfidfTransformer { idf, max_idf }
    }

    /// Transform a count vector into an L2-normalized TF-IDF vector.
    /// Features unseen at fit time get the maximum IDF (df = 0 smoothing).
    /// Single pass over the entries plus the normalization scale.
    pub fn transform(&self, v: &SparseVec) -> SparseVec {
        let default_idf = if self.idf.is_empty() {
            1.0
        } else {
            self.max_idf
        };
        let mut sumsq = 0.0f32;
        let entries: Vec<(u32, f32)> = v
            .iter()
            .filter_map(|(i, tf)| {
                let idf = self.idf.get(i as usize).copied().unwrap_or(default_idf);
                let w = tf * idf;
                if w == 0.0 {
                    return None;
                }
                sumsq += w * w;
                Some((i, w))
            })
            .collect();
        let mut out = SparseVec::from_sorted_counts(entries);
        let norm = sumsq.sqrt();
        if norm > 0.0 {
            out.scale(1.0 / norm);
        }
        out
    }

    /// The pre-optimization transform (per-document max-IDF fold, three
    /// passes over the entries), retained as the differential oracle.
    #[cfg(test)]
    pub fn transform_naive(&self, v: &SparseVec) -> SparseVec {
        let default_idf = if self.idf.is_empty() {
            1.0
        } else {
            // df=0 smoothed idf for the fitted corpus size is the max.
            self.idf.iter().copied().fold(1.0f32, f32::max)
        };
        let mut weighted = v.map_values(|i, tf| {
            let idf = self.idf.get(i as usize).copied().unwrap_or(default_idf);
            tf * idf
        });
        let norm = weighted.norm();
        if norm > 0.0 {
            weighted.scale(1.0 / norm);
        }
        weighted
    }

    /// Fit on a corpus and return the transformed corpus.
    pub fn fit_transform(vectors: &[SparseVec]) -> (TfidfTransformer, Vec<SparseVec>) {
        let t = TfidfTransformer::fit(vectors);
        let out = vectors.iter().map(|v| t.transform(v)).collect();
        (t, out)
    }

    /// Number of fitted features.
    pub fn n_features(&self) -> usize {
        self.idf.len()
    }

    /// The fitted IDF for a feature, if in range.
    pub fn idf(&self, feature: u32) -> Option<f32> {
        self.idf.get(feature as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, vec_of, CASES};
    use rand::RngExt;

    fn counts(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn idf_downweights_common_terms() {
        // Feature 0 appears in all 4 docs, feature 1 in one doc.
        let docs = vec![
            counts(&[(0, 1.0), (1, 1.0)]),
            counts(&[(0, 1.0)]),
            counts(&[(0, 1.0)]),
            counts(&[(0, 1.0)]),
        ];
        let t = TfidfTransformer::fit(&docs);
        assert!(t.idf(0).unwrap() < t.idf(1).unwrap());
        // Smoothed formula: common term idf = ln(5/5)+1 = 1.
        assert!((t.idf(0).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transform_is_l2_normalized() {
        let docs = vec![counts(&[(0, 3.0), (1, 1.0)]), counts(&[(1, 2.0)])];
        let (t, xs) = TfidfTransformer::fit_transform(&docs);
        for x in &xs {
            assert!((x.norm() - 1.0).abs() < 1e-5);
        }
        assert_eq!(t.n_features(), 2);
    }

    #[test]
    fn zero_vector_stays_zero() {
        let docs = vec![counts(&[(0, 1.0)])];
        let t = TfidfTransformer::fit(&docs);
        let z = t.transform(&SparseVec::default());
        assert!(z.is_empty());
    }

    #[test]
    fn unseen_feature_gets_max_idf() {
        let docs = vec![counts(&[(0, 1.0)]), counts(&[(0, 1.0), (1, 1.0)])];
        let t = TfidfTransformer::fit(&docs);
        let x = t.transform(&counts(&[(7, 1.0)]));
        // Still produces a normalized non-empty vector.
        assert_eq!(x.nnz(), 1);
        assert!((x.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_fit_is_harmless() {
        let t = TfidfTransformer::fit(&[]);
        assert_eq!(t.n_features(), 0);
        let x = t.transform(&counts(&[(0, 2.0)]));
        assert_eq!(x.nnz(), 1);
    }

    #[test]
    fn cached_max_idf_matches_fold() {
        let docs = vec![
            counts(&[(0, 1.0), (3, 1.0)]),
            counts(&[(0, 1.0)]),
            counts(&[(2, 2.0)]),
        ];
        let t = TfidfTransformer::fit(&docs);
        let folded = (0..t.n_features() as u32)
            .filter_map(|i| t.idf(i))
            .fold(1.0f32, f32::max);
        // The cached value feeds unseen features: transform of an unseen
        // feature must weight it exactly like the naive fold would.
        let x = t.transform(&counts(&[(9, 1.0)]));
        let y = t.transform_naive(&counts(&[(9, 1.0)]));
        assert_eq!(x, y);
        assert!(folded > 1.0);
    }

    #[test]
    fn transform_norm_is_unit_or_zero() {
        check::cases(
            CASES,
            |rng| {
                vec_of(rng, 0..20, |r| {
                    (r.random_range(0u32..30), r.random_range(1.0f32..5.0))
                })
            },
            |pairs| {
                let docs = vec![counts(&[(0, 1.0)]), counts(&[(1, 1.0), (2, 1.0)])];
                let t = TfidfTransformer::fit(&docs);
                let x = t.transform(&SparseVec::from_pairs(pairs));
                let n = x.norm();
                assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
            },
        );
    }

    /// The single-pass transform agrees with the naive reference.
    #[test]
    fn transform_matches_naive() {
        check::cases(
            CASES,
            |rng| {
                vec_of(rng, 0..20, |r| {
                    (r.random_range(0u32..30), r.random_range(-4.0f32..4.0))
                })
            },
            |pairs| {
                let docs = vec![
                    counts(&[(0, 1.0), (5, 1.0)]),
                    counts(&[(1, 1.0), (2, 1.0)]),
                    counts(&[(2, 3.0)]),
                ];
                let t = TfidfTransformer::fit(&docs);
                let x = SparseVec::from_pairs(pairs);
                assert_eq!(t.transform(&x), t.transform_naive(&x));
            },
        );
    }
}
