//! Classification metrics: confusion matrices, accuracy, precision/recall/
//! F1, and rank-based ROC AUC — everything Tables 6 and 7 report.

/// A binary confusion matrix (Table 6's layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinaryConfusion {
    /// True positives.
    pub tp: usize,
    /// False negatives (positive truth, negative prediction).
    pub fn_: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
}

impl BinaryConfusion {
    /// Tally predictions against truth.
    pub fn from_pairs<I: IntoIterator<Item = (bool, bool)>>(truth_pred: I) -> BinaryConfusion {
        let mut c = BinaryConfusion::default();
        for (t, p) in truth_pred {
            match (t, p) {
                (true, true) => c.tp += 1,
                (true, false) => c.fn_ += 1,
                (false, true) => c.fp += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Total samples.
    pub fn total(&self) -> usize {
        self.tp + self.fn_ + self.fp + self.tn
    }

    /// Fraction correct.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False positives as a fraction of all samples — the paper quotes FP
    /// rates this way ("a 1% false positive rate" out of the 123-sample
    /// test set in Table 6).
    pub fn fp_fraction(&self) -> f64 {
        ratio(self.fp, self.total())
    }

    /// False negatives as a fraction of all samples.
    pub fn fn_fraction(&self) -> f64 {
        ratio(self.fn_, self.total())
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Free-standing metric helpers over score/label slices.
pub struct Metrics;

impl Metrics {
    /// ROC AUC by the rank statistic (equivalent to the Mann–Whitney U),
    /// with tie handling via midranks. Returns 0.5 when either class is
    /// absent.
    pub fn roc_auc(scores: &[f32], labels: &[bool]) -> f64 {
        assert_eq!(
            scores.len(),
            labels.len(),
            "scores and labels must be parallel"
        );
        let n_pos = labels.iter().filter(|&&l| l).count();
        let n_neg = labels.len() - n_pos;
        if n_pos == 0 || n_neg == 0 {
            return 0.5;
        }
        // Rank scores ascending, midrank for ties.
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut ranks = vec![0.0f64; scores.len()];
        let mut i = 0;
        while i < idx.len() {
            let mut j = i;
            while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
                j += 1;
            }
            let midrank = (i + j) as f64 / 2.0 + 1.0;
            for k in i..=j {
                ranks[idx[k]] = midrank;
            }
            i = j + 1;
        }
        let rank_sum_pos: f64 = labels
            .iter()
            .zip(&ranks)
            .filter(|(l, _)| **l)
            .map(|(_, r)| r)
            .sum();
        let u = rank_sum_pos - (n_pos as f64) * (n_pos as f64 + 1.0) / 2.0;
        u / (n_pos as f64 * n_neg as f64)
    }

    /// Accuracy of hard predictions.
    pub fn accuracy(truth: &[bool], pred: &[bool]) -> f64 {
        assert_eq!(truth.len(), pred.len());
        if truth.is_empty() {
            return 0.0;
        }
        let c = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
        c as f64 / truth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, vec_of, CASES};
    use rand::RngExt;

    #[test]
    fn confusion_tallies() {
        let c = BinaryConfusion::from_pairs([
            (true, true),
            (true, true),
            (true, false),
            (false, true),
            (false, false),
        ]);
        assert_eq!((c.tp, c.fn_, c.fp, c.tn), (2, 1, 1, 1));
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.fp_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_confusion_is_zero() {
        let c = BinaryConfusion::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let scores = [0.9f32, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((Metrics::roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
        let inverted = [false, false, true, true];
        assert!((Metrics::roc_auc(&scores, &inverted) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn auc_with_ties_is_half() {
        let scores = [0.5f32, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((Metrics::roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(Metrics::roc_auc(&[0.1, 0.9], &[true, true]), 0.5);
        assert_eq!(Metrics::roc_auc(&[], &[]), 0.5);
    }

    #[test]
    fn auc_is_bounded() {
        check::cases(
            CASES,
            |rng| {
                let scores = vec_of(rng, 2..50, |r| r.random_range(0.0f32..1.0));
                let flip = vec_of(rng, 2..50, |r| r.random_bool(0.5));
                (scores, flip)
            },
            |(scores, flip)| {
                let n = scores.len().min(flip.len());
                let auc = Metrics::roc_auc(&scores[..n], &flip[..n]);
                assert!((0.0..=1.0).contains(&auc));
            },
        );
    }
}
