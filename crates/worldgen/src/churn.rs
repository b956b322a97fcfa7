//! Registration churn (§5.3).
//!
//! "Between October 2020 and February 2021, an average 21 ASes were
//! registered every day, belonging to an average 19 new organizations.
//! Furthermore, 4% of all registered ASes changed their ownership metadata
//! at least once during that period. … we estimate an average of 140 ASes
//! will need to be updated every week."

use asdb_model::{Asn, Date, OrgId, WorldSeed};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Churn model parameters, defaulting to the paper's measurements.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Mean new AS registrations per day.
    pub new_ases_per_day: f64,
    /// Mean new organizations per day (≤ new ASes; the remainder are
    /// additional ASes of already-known organizations, which ASdb serves
    /// from cache).
    pub new_orgs_per_day: f64,
    /// Fraction of the existing AS population whose ownership metadata
    /// changes at least once over the observation window.
    pub metadata_change_rate: f64,
    /// Observation window length in days (Oct 2020 – Feb 2021 ≈ 150).
    pub window_days: u32,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            new_ases_per_day: 21.0,
            new_orgs_per_day: 19.0,
            metadata_change_rate: 0.04,
            window_days: 150,
        }
    }
}

/// One day's churn events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DailyChurn {
    /// The day.
    pub date: Date,
    /// Newly registered ASes, with their (possibly new) owner: `true` means
    /// the owner is a brand-new organization, `false` an existing one.
    pub new_ases: Vec<(Asn, OrgId, bool)>,
    /// ASes whose ownership metadata changed.
    pub metadata_changes: Vec<Asn>,
}

/// Deterministic churn stream over a window.
pub struct ChurnStream {
    config: ChurnConfig,
    rng: StdRng,
    next_asn: u32,
    next_org: u64,
    existing: Vec<Asn>,
    existing_orgs: Vec<OrgId>,
    day: Date,
    days_emitted: u32,
}

impl ChurnStream {
    /// Start a stream over an existing population.
    pub fn new(
        config: ChurnConfig,
        existing: Vec<Asn>,
        existing_orgs: Vec<OrgId>,
        start: Date,
        seed: WorldSeed,
    ) -> ChurnStream {
        let next_asn = existing.iter().map(|a| a.value()).max().unwrap_or(1_000) + 1;
        let next_org = existing_orgs.iter().map(|o| o.value()).max().unwrap_or(0) + 1;
        ChurnStream {
            config,
            rng: StdRng::seed_from_u64(seed.derive("churn").value()),
            next_asn,
            next_org,
            existing,
            existing_orgs,
            day: start,
            days_emitted: 0,
        }
    }

    fn poisson(&mut self, mean: f64) -> usize {
        // Knuth's algorithm — means here are small (≈ 20).
        let l = (-mean).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= self.rng.random_range(0.0..1.0);
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // defensive bound; unreachable for sane means
            }
        }
    }
}

impl Iterator for ChurnStream {
    type Item = DailyChurn;

    fn next(&mut self) -> Option<DailyChurn> {
        if self.days_emitted >= self.config.window_days {
            return None;
        }
        let date = self.day;
        let n_new = self.poisson(self.config.new_ases_per_day);
        let new_org_prob =
            (self.config.new_orgs_per_day / self.config.new_ases_per_day).clamp(0.0, 1.0);
        let mut new_ases = Vec::with_capacity(n_new);
        for _ in 0..n_new {
            let asn = Asn::new(self.next_asn);
            self.next_asn += self.rng.random_range(1..30u32);
            let is_new_org = self.existing_orgs.is_empty() || self.rng.random_bool(new_org_prob);
            let org = if is_new_org {
                let id = OrgId::new(self.next_org);
                self.next_org += 1;
                self.existing_orgs.push(id);
                id
            } else {
                self.existing_orgs[self.rng.random_range(0..self.existing_orgs.len())]
            };
            self.existing.push(asn);
            new_ases.push((asn, org, is_new_org));
        }
        // Daily metadata-change hazard so that the windowed total ≈ rate.
        let daily_rate = self.config.metadata_change_rate / f64::from(self.config.window_days);
        let mut metadata_changes = Vec::new();
        // Sample a Poisson count over the population rather than a Bernoulli
        // per AS (population is large, rate tiny).
        let n_changes = self.poisson(daily_rate * self.existing.len() as f64);
        for _ in 0..n_changes {
            let idx = self.rng.random_range(0..self.existing.len());
            metadata_changes.push(self.existing[idx]);
        }
        self.day = self.day.plus_days(1);
        self.days_emitted += 1;
        Some(DailyChurn {
            date,
            new_ases,
            metadata_changes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> (Vec<Asn>, Vec<OrgId>) {
        let ases: Vec<Asn> = (1000..1_000 + 100_000u32)
            .step_by(10)
            .map(Asn::new)
            .collect();
        let orgs: Vec<OrgId> = (0..9_000u64).map(OrgId::new).collect();
        (ases, orgs)
    }

    #[test]
    fn stream_length_matches_window() {
        let (ases, orgs) = population();
        let stream = ChurnStream::new(
            ChurnConfig::default(),
            ases,
            orgs,
            Date::from_ymd(2020, 10, 1).unwrap(),
            WorldSeed::new(1),
        );
        assert_eq!(stream.count(), 150);
    }

    #[test]
    fn daily_new_ases_average_21() {
        let (ases, orgs) = population();
        let stream = ChurnStream::new(
            ChurnConfig::default(),
            ases,
            orgs,
            Date::from_ymd(2020, 10, 1).unwrap(),
            WorldSeed::new(2),
        );
        let days: Vec<DailyChurn> = stream.collect();
        let total: usize = days.iter().map(|d| d.new_ases.len()).sum();
        let mean = total as f64 / days.len() as f64;
        assert!((mean - 21.0).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn new_org_fraction_matches_19_of_21() {
        let (ases, orgs) = population();
        let stream = ChurnStream::new(
            ChurnConfig::default(),
            ases,
            orgs,
            Date::from_ymd(2020, 10, 1).unwrap(),
            WorldSeed::new(3),
        );
        let mut new_orgs = 0usize;
        let mut total = 0usize;
        for day in stream {
            for (_, _, is_new) in &day.new_ases {
                total += 1;
                new_orgs += usize::from(*is_new);
            }
        }
        let frac = new_orgs as f64 / total as f64;
        assert!((frac - 19.0 / 21.0).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn metadata_changes_hit_4_percent_over_window() {
        let (ases, orgs) = population();
        let n = ases.len();
        let stream = ChurnStream::new(
            ChurnConfig::default(),
            ases,
            orgs,
            Date::from_ymd(2020, 10, 1).unwrap(),
            WorldSeed::new(4),
        );
        let changed: usize = stream.map(|d| d.metadata_changes.len()).sum();
        let frac = changed as f64 / n as f64;
        assert!((frac - 0.04).abs() < 0.01, "changed fraction = {frac}");
    }

    #[test]
    fn expected_weekly_updates_near_paper_estimate() {
        let (ases, orgs) = population();
        let stream = ChurnStream::new(
            ChurnConfig::default(),
            ases,
            orgs,
            Date::from_ymd(2020, 10, 1).unwrap(),
            WorldSeed::new(5),
        );
        // 21*7 new + 10k*0.04/150*7 changes ≈ 147 + 18.7 — the paper calls
        // this "an average of 140 ASes … every week".
        let days: Vec<DailyChurn> = stream.collect();
        let updates: usize = days
            .iter()
            .map(|d| d.new_ases.len() + d.metadata_changes.len())
            .sum();
        let weekly = updates as f64 / days.len() as f64 * 7.0;
        assert!(weekly > 120.0 && weekly < 180.0, "weekly = {weekly}");
    }

    #[test]
    fn stream_is_deterministic() {
        let (ases, orgs) = population();
        let mk = || {
            ChurnStream::new(
                ChurnConfig::default(),
                ases.clone(),
                orgs.clone(),
                Date::from_ymd(2020, 10, 1).unwrap(),
                WorldSeed::new(6),
            )
        };
        let a: Vec<DailyChurn> = mk().collect();
        let b: Vec<DailyChurn> = mk().collect();
        assert_eq!(a, b);
    }
}
