//! The category mix: the distribution of true NAICSlite categories across
//! AS-owning organizations, calibrated to the paper's samples.
//!
//! Calibration targets:
//! * "64% of ASes \[are\] owned by technology-related entities" (§3.3);
//! * "the two largest categories of ASes in our Gold Standard dataset —
//!   ISPs and hosting providers" (§4.1);
//! * Table 7's class sizes on the 150-AS gold standard: ISP N=66,
//!   Business N=55, Education N=14, Hosting N=13.

use asdb_model::WorldSeed;
use asdb_taxonomy::{Layer1, Layer2};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Weight of a layer-1 category in the organization population. Sums to 1.
pub fn layer1_weight(l1: Layer1) -> f64 {
    match l1 {
        // Tech ≈ 64% of ASes, dominated by ISPs then hosting.
        Layer1::ComputerAndIT => 0.64,
        Layer1::Education => 0.09,
        Layer1::Finance => 0.045,
        Layer1::Service => 0.04,
        Layer1::Media => 0.025,
        Layer1::Government => 0.022,
        Layer1::HealthCare => 0.02,
        Layer1::Manufacturing => 0.02,
        Layer1::Retail => 0.018,
        Layer1::Utilities => 0.014,
        Layer1::Construction => 0.013,
        Layer1::Freight => 0.012,
        Layer1::Nonprofits => 0.011,
        Layer1::Travel => 0.010,
        Layer1::Entertainment => 0.009,
        Layer1::Agriculture => 0.006,
        Layer1::Other => 0.005,
    }
}

/// Weight of a layer-2 category *within* its layer-1 parent. Within
/// Computer & IT the split matches the gold-standard proportions (ISP ≈
/// 66/96 of tech, hosting the next block); elsewhere the first (most
/// common) subcategories dominate and "Other" gets the remainder.
pub fn layer2_weight(l2: Layer2) -> f64 {
    use Layer1::*;
    match (l2.layer1, l2.index()) {
        (ComputerAndIT, 0) => 0.64,  // ISP
        (ComputerAndIT, 1) => 0.04,  // phone
        (ComputerAndIT, 2) => 0.14,  // hosting
        (ComputerAndIT, 3) => 0.02,  // security
        (ComputerAndIT, 4) => 0.06,  // software
        (ComputerAndIT, 5) => 0.04,  // consulting
        (ComputerAndIT, 6) => 0.01,  // satellite
        (ComputerAndIT, 7) => 0.005, // search
        (ComputerAndIT, 8) => 0.015, // IXP
        (ComputerAndIT, 9) => 0.03,  // other
        (Education, 1) => 0.55,      // universities dominate AS-owning edu
        (Education, 3) => 0.25,      // research orgs
        _ => {
            // Uniform-ish within parent with a heavier first subcategory,
            // lighter "Other".
            let n = l2.layer1.layer2_count() as f64;
            if l2.is_other() {
                0.5 / n
            } else if l2.index() == 0 {
                2.0 / n
            } else {
                1.0 / n
            }
        }
    }
}

/// A sampler over all 95 layer-2 categories with the joint weights
/// `layer1_weight × normalized layer2_weight`.
#[derive(Debug, Clone)]
pub struct CategoryMix {
    categories: Vec<Layer2>,
    cumulative: Vec<f64>,
}

impl CategoryMix {
    /// Build the calibrated mix.
    pub fn calibrated() -> CategoryMix {
        let mut categories = Vec::new();
        let mut weights = Vec::new();
        for l1 in Layer1::ALL {
            let subtotal: f64 = l1.layer2_iter().map(layer2_weight).sum();
            for l2 in l1.layer2_iter() {
                categories.push(l2);
                weights.push(layer1_weight(l1) * layer2_weight(l2) / subtotal);
            }
        }
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cumulative.push(acc);
        }
        CategoryMix {
            categories,
            cumulative,
        }
    }

    /// Sample a category.
    pub fn sample(&self, rng: &mut StdRng) -> Layer2 {
        let u: f64 = rng.random_range(0.0..1.0);
        let idx = self
            .cumulative
            .partition_point(|&c| c < u)
            .min(self.categories.len() - 1);
        self.categories[idx]
    }

    /// Exact probability assigned to a category.
    pub fn probability(&self, l2: Layer2) -> f64 {
        let idx = self
            .categories
            .iter()
            .position(|c| *c == l2)
            .expect("all 95 categories present");
        let prev = if idx == 0 {
            0.0
        } else {
            self.cumulative[idx - 1]
        };
        self.cumulative[idx] - prev
    }

    /// Deterministic RNG for mix sampling.
    pub fn rng(seed: WorldSeed) -> StdRng {
        StdRng::seed_from_u64(seed.derive("category-mix").value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_taxonomy::naicslite::known;

    #[test]
    fn layer1_weights_sum_to_one() {
        let total: f64 = Layer1::ALL.iter().map(|l| layer1_weight(*l)).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    #[test]
    fn mix_probabilities_sum_to_one() {
        let mix = CategoryMix::calibrated();
        let total: f64 = Layer2::all().map(|l2| mix.probability(l2)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tech_is_about_64_percent() {
        let mix = CategoryMix::calibrated();
        let tech: f64 = Layer1::ComputerAndIT
            .layer2_iter()
            .map(|l2| mix.probability(l2))
            .sum();
        assert!((tech - 0.64).abs() < 1e-6, "tech = {tech}");
    }

    #[test]
    fn isp_and_hosting_are_the_largest_categories() {
        let mix = CategoryMix::calibrated();
        let p_isp = mix.probability(known::isp());
        let p_hosting = mix.probability(known::hosting());
        for l2 in Layer2::all() {
            if l2 != known::isp() {
                assert!(p_isp > mix.probability(l2), "{l2} outweighs ISP");
            }
            if l2 != known::isp() && l2 != known::hosting() {
                assert!(p_hosting >= mix.probability(l2), "{l2} outweighs hosting");
            }
        }
    }

    #[test]
    fn sampling_tracks_probabilities() {
        let mix = CategoryMix::calibrated();
        let mut rng = CategoryMix::rng(WorldSeed::new(7));
        let n = 20_000;
        let mut isp = 0usize;
        let mut tech = 0usize;
        for _ in 0..n {
            let c = mix.sample(&mut rng);
            if c == known::isp() {
                isp += 1;
            }
            if c.layer1 == Layer1::ComputerAndIT {
                tech += 1;
            }
        }
        let isp_frac = isp as f64 / n as f64;
        let tech_frac = tech as f64 / n as f64;
        assert!((isp_frac - 0.64 * 0.64).abs() < 0.02, "isp = {isp_frac}");
        assert!((tech_frac - 0.64).abs() < 0.02, "tech = {tech_frac}");
    }
}
