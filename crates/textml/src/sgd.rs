//! Binary linear classifiers trained by stochastic gradient descent, and a
//! seeded bagging ensemble — the "SGD Classifier Ensemble" box of Figure 3.
//!
//! The classifier is scikit-learn's averaged log-loss `SGDClassifier`:
//! logistic loss (calibrated probabilities for AUC), the `optimal`-style
//! decaying learning rate `eta_t = 1 / (alpha * (t0 + t))` with L2
//! regularization, and iterate averaging (ASGD). Samples are shuffled each
//! epoch with a caller-seeded RNG so runs are reproducible.
//!
//! # The O(nnz) hot path
//!
//! The training loop is the compute-heavy core of the whole reproduction,
//! so it is written to cost O(nnz(x)) per sample instead of O(n_features):
//!
//! * **Lazy scaling** — the weight vector is represented as `scale · v`.
//!   The multiplicative L2 shrink `w ← (1 − ηα)·w` touches only the
//!   `scale` scalar; gradient updates divide by `scale` so the invariant
//!   `w = scale · v` holds. When `scale` decays below a threshold it is
//!   folded back into `v` (a rare O(n_features) event).
//! * **Lazily-materialized averaging** — ASGD needs the running mean
//!   `ŵ_T = (1/T) Σ_t w_t`. Between two touches of feature `j`, `v[j]`
//!   is constant and `w_t[j] = scale_t · v[j]`, so the partial sum is
//!   `v[j] · (Q_t − Q_τ)` where `Q_t = Σ_{s≤t} scale_s` is a running
//!   scalar. Each feature keeps the `Q` value at its last sync
//!   (a per-feature timestamp); sums are settled only when the feature
//!   is touched and once at the end — scikit-learn's averaged-SGD trick.
//!
//! The pre-optimization dense implementation is retained in `dense_ref`
//! (test builds only) as a differential oracle.

use crate::vectorize::SparseVec;
use asdb_model::WorldSeed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct SgdConfig {
    /// L2 regularization strength (scikit-learn's `alpha`).
    pub alpha: f32,
    /// Number of passes over the data.
    pub epochs: usize,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            alpha: 1e-4,
            epochs: 20,
        }
    }
}

/// Derivative of the log loss with respect to the margin:
/// d/dm log(1 + exp(-y·m)) = -y · sigma(-y·m).
#[inline]
fn dloss(y: f64, margin: f64) -> f64 {
    let z = -y * margin;
    let s = 1.0 / (1.0 + (-z).exp());
    -y * s
}

/// When `scale` decays below this, fold it back into `v` so neither the
/// scale underflows nor `v` overflows. With the `optimal` schedule the
/// scale only decays polynomially (`t0 / (t0 + T)`), so this is a
/// robustness guard for extreme `alpha`/epoch settings, not a hot branch.
const SCALE_FLOOR: f64 = 1e-30;

/// A trained binary linear classifier.
#[derive(Debug, Clone)]
pub struct SgdClassifier {
    weights: Vec<f32>,
    bias: f32,
}

impl SgdClassifier {
    /// Train on `(x, y)` pairs, `y ∈ {false, true}`. `n_features` bounds the
    /// weight vector; features at or beyond it are ignored.
    ///
    /// Cost is O(nnz(x)) per sample: the L2 shrink is a scalar multiply on
    /// the lazy scale and the ASGD mean is materialized per feature on
    /// touch (see the module docs for the math).
    ///
    /// Panics if `xs` and `ys` have different lengths (programmer error).
    pub fn fit(
        xs: &[SparseVec],
        ys: &[bool],
        n_features: usize,
        config: SgdConfig,
        seed: WorldSeed,
    ) -> SgdClassifier {
        assert_eq!(xs.len(), ys.len(), "xs and ys must be parallel");
        // w = scale * v, in f64 so the lazy algebra does not lose the
        // f32 precision the dense reference delivers.
        let mut v = vec![0.0f64; n_features];
        let mut scale = 1.0f64;
        let mut b = 0.0f64;
        // Averaging state: acc[j] holds Σ_t w_t[j] settled up to the
        // feature's last sync; q_sync[j] is the value of q at that sync;
        // q = Σ_t scale_t over all completed steps.
        let mut acc = vec![0.0f64; n_features];
        let mut q_sync = vec![0.0f64; n_features];
        let mut q = 0.0f64;
        let mut b_avg = 0.0f64;
        let mut n_avg = 0u64;

        let mut rng = StdRng::seed_from_u64(seed.value());
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut t: u64 = 1;
        // "optimal" schedule t0, approximating scikit-learn's heuristic.
        let t0 = 1.0 / (config.alpha.max(1e-8) as f64);
        let alpha = config.alpha as f64;

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let x = &xs[i];
                let y = if ys[i] { 1.0f64 } else { -1.0 };
                let eta = 1.0 / (alpha * (t0 + t as f64));
                let margin = scale * x.dot64(&v) + b;
                // L2 shrink (applied multiplicatively, leaving bias alone)
                // is one scalar multiply on the lazy scale.
                let shrink = 1.0 - eta * alpha;
                if shrink > 0.0 {
                    scale *= shrink;
                    if scale < SCALE_FLOOR {
                        fold_scale(&mut v, &mut scale, &mut acc, &mut q_sync, q);
                    }
                }
                let g = dloss(y, margin);
                if g != 0.0 {
                    let step = eta * g / scale;
                    for (j, xv) in x.iter() {
                        let j = j as usize;
                        if j < n_features {
                            // Settle this feature's averaged sum for the
                            // steps since its last touch, while v[j] was
                            // constant.
                            acc[j] += v[j] * (q - q_sync[j]);
                            q_sync[j] = q;
                            v[j] -= step * xv as f64;
                        }
                    }
                    b -= eta * g;
                }
                n_avg += 1;
                q += scale;
                b_avg += (b - b_avg) / n_avg as f64;
                t += 1;
            }
        }

        // With no training step there are no iterates to mean over: the
        // untouched zero model stands.
        let (weights, bias) = if n_avg > 0 {
            let inv = 1.0 / n_avg as f64;
            let weights = v
                .iter()
                .zip(acc.iter())
                .zip(q_sync.iter())
                .map(|((vj, aj), qj)| ((aj + vj * (q - qj)) * inv) as f32)
                .collect();
            (weights, b_avg as f32)
        } else {
            (v.iter().map(|vj| (scale * vj) as f32).collect(), b as f32)
        };
        SgdClassifier { weights, bias }
    }

    /// The raw decision margin (distance from the separating hyperplane).
    pub fn decision(&self, x: &SparseVec) -> f32 {
        x.dot(&self.weights) + self.bias
    }

    /// Hard classification.
    pub fn predict(&self, x: &SparseVec) -> bool {
        self.decision(x) > 0.0
    }

    /// Probability of the positive class (sigmoid of the margin).
    pub fn predict_proba(&self, x: &SparseVec) -> f32 {
        let m = self.decision(x) as f64;
        (1.0 / (1.0 + (-m).exp())) as f32
    }

    /// Number of features the model was trained with.
    pub fn n_features(&self) -> usize {
        self.weights.len()
    }

    /// The trained weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The trained intercept.
    pub fn bias(&self) -> f32 {
        self.bias
    }
}

/// Fold the lazy scale back into `v`, keeping the averaging bookkeeping
/// consistent (every feature is synced first so pending sums use the old
/// `v`, then the representation is renormalized to `scale = 1`).
fn fold_scale(v: &mut [f64], scale: &mut f64, acc: &mut [f64], q_sync: &mut [f64], q: f64) {
    for ((aj, qj), vj) in acc.iter_mut().zip(q_sync.iter_mut()).zip(v.iter()) {
        *aj += *vj * (q - *qj);
        *qj = q;
    }
    for vj in v.iter_mut() {
        *vj *= *scale;
    }
    *scale = 1.0;
}

/// A bagging ensemble of [`SgdClassifier`]s trained with different shuffle
/// seeds; prediction averages member probabilities.
#[derive(Debug, Clone)]
pub struct SgdEnsemble {
    members: Vec<SgdClassifier>,
}

impl SgdEnsemble {
    /// Train `n_members` classifiers on the calling thread; member `i`
    /// shuffles with `seed.derive_index("sgd-member", i)`.
    pub fn fit(
        xs: &[SparseVec],
        ys: &[bool],
        n_features: usize,
        config: SgdConfig,
        seed: WorldSeed,
        n_members: usize,
    ) -> SgdEnsemble {
        let members = (0..n_members)
            .map(|i| {
                let member_seed = seed.derive_index("sgd-member", i as u64);
                SgdClassifier::fit(xs, ys, n_features, config.clone(), member_seed)
            })
            .collect();
        SgdEnsemble { members }
    }

    /// Mean member probability.
    pub fn predict_proba(&self, x: &SparseVec) -> f32 {
        if self.members.is_empty() {
            return 0.5;
        }
        self.members.iter().map(|m| m.predict_proba(x)).sum::<f32>() / self.members.len() as f32
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, x: &SparseVec) -> bool {
        self.predict_proba(x) > 0.5
    }

    /// The trained members.
    pub fn members(&self) -> &[SgdClassifier] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The pre-optimization dense SGD trainer (its log-loss, averaged path),
/// retained as a differential oracle for the lazy-scaled implementation.
/// Per-sample cost is O(n_features): the L2 shrink and the averaging
/// update both walk the whole weight vector.
#[cfg(test)]
pub mod dense_ref {
    use super::{SgdClassifier, SgdConfig};
    use crate::vectorize::SparseVec;
    use asdb_model::WorldSeed;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Train with dense per-sample shrink and averaging (the original
    /// implementation of [`SgdClassifier::fit`]).
    pub fn fit_dense(
        xs: &[SparseVec],
        ys: &[bool],
        n_features: usize,
        config: SgdConfig,
        seed: WorldSeed,
    ) -> SgdClassifier {
        assert_eq!(xs.len(), ys.len(), "xs and ys must be parallel");
        let mut w = vec![0.0f32; n_features];
        let mut b = 0.0f32;
        let mut w_avg = vec![0.0f32; n_features];
        let mut b_avg = 0.0f32;
        let mut n_avg = 0u64;

        let mut rng = StdRng::seed_from_u64(seed.value());
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut t: u64 = 1;
        let t0 = 1.0 / (config.alpha.max(1e-8) as f64);

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let x = &xs[i];
                let y = if ys[i] { 1.0f32 } else { -1.0 };
                let eta = (1.0 / (config.alpha as f64 * (t0 + t as f64))) as f32;
                let margin = x.dot(&w) + b;
                let shrink = 1.0 - eta * config.alpha;
                if shrink > 0.0 {
                    for wi in &mut w {
                        *wi *= shrink;
                    }
                }
                let z = (-y * margin) as f64;
                let s = 1.0 / (1.0 + (-z).exp());
                let dloss = (-y as f64 * s) as f32;
                if dloss != 0.0 {
                    for (j, v) in x.iter() {
                        if (j as usize) < w.len() {
                            w[j as usize] -= eta * dloss * v;
                        }
                    }
                    b -= eta * dloss;
                }
                n_avg += 1;
                let k = 1.0 / n_avg as f32;
                for (wa, wi) in w_avg.iter_mut().zip(&w) {
                    *wa += k * (*wi - *wa);
                }
                b_avg += k * (b - b_avg);
                t += 1;
            }
        }
        let (weights, bias) = if n_avg > 0 { (w_avg, b_avg) } else { (w, b) };
        SgdClassifier { weights, bias }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, vec_of, CASES};
    use rand::RngExt;

    /// Linearly separable toy data: positive docs use features {0,1},
    /// negative docs use features {2,3}.
    fn toy() -> (Vec<SparseVec>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let pos = i % 2 == 0;
            let f = if pos {
                [(0u32, 1.0f32), (1, 1.0)]
            } else {
                [(2, 1.0), (3, 1.0)]
            };
            // add slight per-sample variation
            let mut pairs = f.to_vec();
            pairs.push((4 + (i % 3) as u32, 0.5));
            xs.push(SparseVec::from_pairs(pairs));
            ys.push(pos);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_data_log() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit(&xs, &ys, 8, SgdConfig::default(), WorldSeed::new(1));
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| clf.predict(x) == **y)
            .count();
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn probabilities_ordered_by_margin() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit(&xs, &ys, 8, SgdConfig::default(), WorldSeed::new(3));
        let pos = SparseVec::from_pairs(vec![(0, 1.0), (1, 1.0)]);
        let neg = SparseVec::from_pairs(vec![(2, 1.0), (3, 1.0)]);
        assert!(clf.predict_proba(&pos) > 0.5);
        assert!(clf.predict_proba(&neg) < 0.5);
        assert!(clf.predict_proba(&pos) > clf.predict_proba(&neg));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (xs, ys) = toy();
        let a = SgdClassifier::fit(&xs, &ys, 8, SgdConfig::default(), WorldSeed::new(7));
        let b = SgdClassifier::fit(&xs, &ys, 8, SgdConfig::default(), WorldSeed::new(7));
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    fn ensemble_agrees_with_members_on_easy_data() {
        let (xs, ys) = toy();
        let ens = SgdEnsemble::fit(&xs, &ys, 8, SgdConfig::default(), WorldSeed::new(5), 5);
        assert_eq!(ens.len(), 5);
        let pos = SparseVec::from_pairs(vec![(0, 1.0), (1, 1.0)]);
        assert!(ens.predict(&pos));
        let neg = SparseVec::from_pairs(vec![(2, 1.0), (3, 1.0)]);
        assert!(!ens.predict(&neg));
    }

    #[test]
    fn empty_ensemble_is_uninformative() {
        let ens = SgdEnsemble { members: vec![] };
        assert!(ens.is_empty());
        let x = SparseVec::from_pairs(vec![(0, 1.0)]);
        assert_eq!(ens.predict_proba(&x), 0.5);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_lengths_panic() {
        let (xs, _) = toy();
        let _ = SgdClassifier::fit(&xs, &[true], 8, SgdConfig::default(), WorldSeed::new(1));
    }

    #[test]
    fn empty_training_set_gives_zero_model() {
        let clf = SgdClassifier::fit(&[], &[], 4, SgdConfig::default(), WorldSeed::new(1));
        let x = SparseVec::from_pairs(vec![(0, 1.0)]);
        assert_eq!(clf.decision(&x), 0.0);
        assert!(!clf.predict(&x));
    }

    // ---- differential tests against the retained dense reference ----

    fn assert_matches_dense(cfg: SgdConfig, seed: u64, tol: f32) {
        let (xs, ys) = toy();
        let fast = SgdClassifier::fit(&xs, &ys, 8, cfg.clone(), WorldSeed::new(seed));
        let slow = dense_ref::fit_dense(&xs, &ys, 8, cfg.clone(), WorldSeed::new(seed));
        for (j, (a, b)) in fast.weights().iter().zip(slow.weights()).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "weight {j}: lazy {a} vs dense {b} ({cfg:?}, seed {seed})"
            );
        }
        assert!(
            (fast.bias() - slow.bias()).abs() <= tol,
            "bias: lazy {} vs dense {} ({cfg:?}, seed {seed})",
            fast.bias(),
            slow.bias()
        );
    }

    #[test]
    fn lazy_matches_dense_over_config_grid() {
        for alpha in [1e-4f32, 1e-2, 1e-1] {
            for epochs in [1usize, 3, 7] {
                assert_matches_dense(SgdConfig { alpha, epochs }, 11, 1e-4);
            }
        }
    }

    #[test]
    fn lazy_matches_dense_at_default_config() {
        assert_matches_dense(SgdConfig::default(), 42, 1e-4);
    }

    #[test]
    fn scale_fold_is_transparent() {
        // Large alpha makes the shrink aggressive enough that the lazy
        // scale decays fast; the fold must not perturb the result.
        let cfg = SgdConfig {
            alpha: 0.5,
            epochs: 10,
        };
        assert_matches_dense(cfg, 3, 1e-4);
    }

    #[test]
    fn ensemble_members_are_fits_on_index_derived_seeds() {
        let (xs, ys) = toy();
        let seed = WorldSeed::new(9);
        let bits = |c: &SgdClassifier| {
            let weights: Vec<u32> = c.weights().iter().map(|w| w.to_bits()).collect();
            (weights, c.bias().to_bits())
        };
        let ens = SgdEnsemble::fit(&xs, &ys, 8, SgdConfig::default(), seed, 5);
        assert_eq!(ens.len(), 5);
        for (i, member) in ens.members().iter().enumerate() {
            let member_seed = seed.derive_index("sgd-member", i as u64);
            let alone = SgdClassifier::fit(&xs, &ys, 8, SgdConfig::default(), member_seed);
            assert_eq!(bits(member), bits(&alone), "member {i}");
        }
    }

    /// The lazy-scaled trainer matches the dense reference to 1e-4 per
    /// weight across a random grid of (alpha, epochs) configs, seeds, and
    /// sparse data.
    #[test]
    fn lazy_matches_dense_proptest() {
        check::cases(
            CASES,
            |rng| {
                let alpha_exp = rng.random_range(1u32..5);
                let epochs = rng.random_range(1usize..7);
                let seed = rng.random_range(0u64..64);
                let raw = vec_of(rng, 2..24, |r| {
                    let pairs = vec_of(r, 1..6, |r| {
                        (r.random_range(0u32..12), r.random_range(1u32..5))
                    });
                    (pairs, r.random_bool(0.5))
                });
                (alpha_exp, epochs, seed, raw)
            },
            |(alpha_exp, epochs, seed, raw)| {
                let cfg = SgdConfig {
                    alpha: 10f32.powi(-(alpha_exp as i32)),
                    epochs,
                };
                // Feature values are quarter-integers in [0.25, 1].
                let xs: Vec<SparseVec> = raw
                    .iter()
                    .map(|(pairs, _)| {
                        SparseVec::from_pairs(
                            pairs.iter().map(|(i, q)| (*i, *q as f32 * 0.25)).collect(),
                        )
                    })
                    .collect();
                let ys: Vec<bool> = raw.iter().map(|(_, y)| *y).collect();
                let fast = SgdClassifier::fit(&xs, &ys, 12, cfg.clone(), WorldSeed::new(seed));
                let slow = dense_ref::fit_dense(&xs, &ys, 12, cfg, WorldSeed::new(seed));
                for (a, b) in fast.weights().iter().zip(slow.weights()) {
                    assert!((a - b).abs() <= 1e-4, "lazy {a} vs dense {b}");
                }
                assert!((fast.bias() - slow.bias()).abs() <= 1e-4);
            },
        );
    }

    /// Refitting with the same seed is exactly reproducible.
    #[test]
    fn fit_is_exactly_deterministic() {
        check::cases(
            CASES,
            |rng| rng.random_range(0u64..256),
            |seed| {
                let (xs, ys) = toy();
                let cfg = SgdConfig {
                    epochs: 3,
                    ..SgdConfig::default()
                };
                let a = SgdClassifier::fit(&xs, &ys, 8, cfg.clone(), WorldSeed::new(seed));
                let b = SgdClassifier::fit(&xs, &ys, 8, cfg, WorldSeed::new(seed));
                assert_eq!(a.weights(), b.weights());
                assert_eq!(a.bias(), b.bias());
            },
        );
    }
}
