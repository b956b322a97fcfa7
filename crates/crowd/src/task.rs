//! Crowd task definitions.

use asdb_model::Asn;
use asdb_taxonomy::{Category, CategorySet};

/// What kind of question the workers are being asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// "Choose one or more NAICSlite layer 2 Technology category" — the
    /// wage/consensus experiments over tech and finance ASes.
    OpenClassification,
    /// "Select all applicable layer 2 NAICSlite categories (or 'none of
    /// the above') from the union of all NAICSlite categories provided by
    /// the matched data sources" — disagreement resolution.
    ChooseAmongSources,
}

/// One AS-labeling task given to a worker cohort.
#[derive(Debug, Clone)]
pub struct CrowdTask {
    /// The AS in question.
    pub asn: Asn,
    /// What is being asked.
    pub kind: TaskKind,
    /// The answer options shown (for [`TaskKind::ChooseAmongSources`], the
    /// union of data-source labels; for open classification, the candidate
    /// layer-2 categories of the relevant layer-1 family).
    pub options: Vec<Category>,
    /// Ground-truth labels (for scoring; workers see the website, not
    /// this).
    pub truth: CategorySet,
    /// Intrinsic ease in `[0,1]`: finance ASes are easy, technology ASes
    /// hard ("MTurks perform consistently worse at accurately labeling
    /// technology categories"), broken websites harder still.
    pub ease: f64,
}

impl CrowdTask {
    /// Which options are correct (appear in the truth set).
    pub fn correct_options(&self) -> Vec<Category> {
        self.options
            .iter()
            .copied()
            .filter(|o| match o.layer2 {
                Some(l2) => self.truth.layer2s().contains(&l2),
                None => self.truth.layer1s().contains(&o.layer1),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_taxonomy::naicslite::known;

    #[test]
    fn correct_options_filter() {
        let truth = CategorySet::single(known::isp());
        let task = CrowdTask {
            asn: Asn::new(1),
            kind: TaskKind::ChooseAmongSources,
            options: vec![Category::l2(known::isp()), Category::l2(known::hosting())],
            truth,
            ease: 0.5,
        };
        let correct = task.correct_options();
        assert_eq!(correct.len(), 1);
        assert_eq!(correct[0].layer2, Some(known::isp()));
    }

    #[test]
    fn unanswerable_task() {
        let task = CrowdTask {
            asn: Asn::new(2),
            kind: TaskKind::ChooseAmongSources,
            options: vec![Category::l2(known::hosting())],
            truth: CategorySet::single(known::banks()),
            ease: 0.5,
        };
        assert!(task.correct_options().is_empty());
    }
}
