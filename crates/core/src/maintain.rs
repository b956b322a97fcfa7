//! The §5.3 maintenance loop.
//!
//! "It is crucial that ASdb is easily updated, as we estimate an average of
//! 140 ASes will need to be updated every week." The loop consumes a
//! registration-churn stream: new ASes of already-known organizations are
//! served from the cache, new organizations go through the full pipeline,
//! and ownership-metadata changes invalidate and re-classify. The paper's
//! community corrections ("submitted corrections will be verified by a
//! human prior to ASdb integration") are not modeled.

use crate::pipeline::{AsdbSystem, Stage};
use asdb_worldgen::churn::{ChurnConfig, DailyChurn};
use asdb_worldgen::World;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Aggregate statistics from a maintenance run.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Days processed.
    pub days: usize,
    /// New AS registrations seen.
    pub new_ases: usize,
    /// New ASes served from the organization cache.
    pub cache_hits: usize,
    /// New ASes requiring a full pipeline run.
    pub full_classifications: usize,
    /// Metadata-change invalidations processed.
    pub invalidations: usize,
}

impl MaintenanceReport {
    /// Average ASes touched per week — the paper's "140 ASes … every week"
    /// statistic.
    pub fn weekly_updates(&self) -> f64 {
        if self.days == 0 {
            return 0.0;
        }
        (self.new_ases + self.invalidations) as f64 / self.days as f64 * 7.0
    }
}

/// The maintenance driver.
pub struct Maintainer<'a> {
    system: &'a AsdbSystem,
    world: &'a World,
    report: MaintenanceReport,
}

impl<'a> Maintainer<'a> {
    /// New maintainer over a system and the world supplying WHOIS.
    pub fn new(system: &'a AsdbSystem, world: &'a World) -> Maintainer<'a> {
        Maintainer {
            system,
            world,
            report: MaintenanceReport::default(),
        }
    }

    /// Process one day of churn. New-AS events draw WHOIS templates from
    /// the world (the churn stream only carries identifiers); metadata
    /// changes invalidate the owning organization's cache entry and
    /// re-classify.
    pub fn process_day(&mut self, day: &DailyChurn) {
        self.report.days += 1;
        let mut rng = StdRng::seed_from_u64(
            self.world
                .config
                .seed
                .derive_index("maintain", day.date.days() as u64)
                .value(),
        );
        for (asn, _org, is_new_org) in &day.new_ases {
            self.report.new_ases += 1;
            // Template WHOIS: a real record from the world, re-numbered.
            let template = &self.world.ases[rng.random_range(0..self.world.ases.len())];
            let mut whois = template.parsed.clone();
            whois.asn = *asn;
            if *is_new_org {
                // A brand-new organization: ensure its cache key is fresh
                // by perturbing the name (new orgs have new names).
                whois.name = format!("{} {}", whois.name, asn.value() % 997);
            }
            let c = self.system.classify_cached(&whois);
            if c.stage == Stage::Cached {
                self.report.cache_hits += 1;
            } else {
                self.report.full_classifications += 1;
            }
        }
        for asn in &day.metadata_changes {
            if let Some(rec) = self.world.as_record(*asn) {
                // One metered §5.1 selection gives both the key to
                // invalidate and the domain the re-classification uses, as
                // in `classify_cached`.
                let start = std::time::Instant::now();
                let (chosen, key) = self.system.select_key(&rec.parsed);
                let selection = start.elapsed();
                if let Some(k) = key {
                    self.system.cache().invalidate(&k);
                    self.report.invalidations += 1;
                    let _ = self
                        .system
                        .classify_selected(&rec.parsed, chosen, Some(&k), selection);
                }
            }
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> &MaintenanceReport {
        &self.report
    }

    /// Run a whole churn stream.
    pub fn run(&mut self, stream: impl Iterator<Item = DailyChurn>) {
        for day in stream {
            self.process_day(&day);
        }
    }

    /// Convenience: the churn configuration the paper measured.
    pub fn paper_churn() -> ChurnConfig {
        ChurnConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::{Date, WorldSeed};
    use asdb_worldgen::churn::ChurnStream;
    use asdb_worldgen::WorldConfig;

    fn setup() -> (World, AsdbSystem) {
        let w = World::generate(WorldConfig::small(WorldSeed::new(31)));
        let s = AsdbSystem::build(&w, WorldSeed::new(32));
        (w, s)
    }

    fn stream(world: &World, days: u32) -> ChurnStream {
        let cfg = ChurnConfig {
            window_days: days,
            ..ChurnConfig::default()
        };
        ChurnStream::new(
            cfg,
            world.asns(),
            world.orgs.iter().map(|o| o.id).collect(),
            Date::from_ymd(2020, 10, 1).unwrap(),
            WorldSeed::new(33),
        )
    }

    #[test]
    fn maintenance_processes_churn() {
        let (w, s) = setup();
        let mut m = Maintainer::new(&s, &w);
        m.run(stream(&w, 14));
        let r = m.report();
        assert_eq!(r.days, 14);
        assert!(r.new_ases > 14 * 10, "new ases = {}", r.new_ases);
        assert!(r.full_classifications > 0);
        // Weekly updates near the paper's ~140–170 estimate.
        let weekly = r.weekly_updates();
        assert!(weekly > 100.0 && weekly < 250.0, "weekly = {weekly}");
    }

    #[test]
    fn existing_org_arrivals_hit_cache() {
        let (w, s) = setup();
        let mut m = Maintainer::new(&s, &w);
        m.run(stream(&w, 30));
        let r = m.report();
        assert!(r.cache_hits > 0, "no cache hits in 30 days");
        assert!(
            2 * r.cache_hits < r.new_ases,
            "{} hits of {} new ASes",
            r.cache_hits,
            r.new_ases
        );
    }

    #[test]
    fn metadata_changes_invalidate() {
        let (w, s) = setup();
        // Warm the cache.
        for rec in w.ases.iter().take(50) {
            let _ = s.classify_cached(&rec.parsed);
        }
        let before = s.cache().len();
        assert!(before > 0);
        let mut m = Maintainer::new(&s, &w);
        m.run(stream(&w, 60));
        assert!(m.report().invalidations > 0);
    }
}
