//! End-to-end integration: the full ASdb system over a synthetic world,
//! checked against the paper's headline claims at small scale.

use asdb_core::batch::{classify_batch, classify_batch_cached};
use asdb_core::dataset;
use asdb_eval::ExperimentContext;
use asdb_model::WorldSeed;
use asdb_rir::ParsedWhois;
use asdb_worldgen::WorldConfig;
use std::sync::OnceLock;

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(WorldConfig::small(WorldSeed::new(777))))
}

#[test]
fn classifies_the_vast_majority_of_ases() {
    let c = ctx();
    let records: Vec<ParsedWhois> = c.world.ases.iter().map(|r| r.parsed.clone()).collect();
    let results = classify_batch(&c.system, &records, 4);
    let classified = results.iter().filter(|r| r.is_classified()).count();
    let frac = classified as f64 / results.len() as f64;
    assert!(frac > 0.85, "coverage = {frac}");
}

#[test]
fn accuracy_beats_every_individual_source() {
    let c = ctx();
    use asdb_sources::SourceId;
    // ASdb L1 accuracy over its classified set…
    let records: Vec<ParsedWhois> = c.world.ases.iter().map(|r| r.parsed.clone()).collect();
    let results = classify_batch(&c.system, &records, 4);
    let (mut ok, mut n) = (0usize, 0usize);
    for (rec, res) in c.world.ases.iter().zip(&results) {
        if res.is_classified() {
            let truth = c.world.org(rec.org).unwrap().truth();
            ok += usize::from(res.categories.overlaps_l1(&truth));
            n += 1;
        }
    }
    let asdb_cov = n as f64 / records.len() as f64;
    // …vs each source's *coverage* (ASdb must dominate coverage while
    // keeping accuracy close to the best source).
    for id in SourceId::ASDB_FIVE {
        let src = c.system.sources.get(id).unwrap();
        let covered = c
            .world
            .orgs
            .iter()
            .filter(|o| src.lookup_org(o.id).is_some())
            .count();
        let cov = covered as f64 / c.world.orgs.len() as f64;
        assert!(
            asdb_cov > cov,
            "{id}: source coverage {cov} >= ASdb coverage {asdb_cov}"
        );
    }
    assert!(ok as f64 / n as f64 > 0.85);
}

#[test]
fn cached_batch_is_consistent_with_uncached() {
    let c = ctx();
    let records: Vec<ParsedWhois> = c
        .world
        .ases
        .iter()
        .take(80)
        .map(|r| r.parsed.clone())
        .collect();
    let plain = classify_batch(&c.system, &records, 4);
    // Fresh system for the cached run (the shared ctx cache may be warm).
    let system2 = asdb_core::AsdbSystem::build(&c.world, c.seed.derive("system"));
    let cached = classify_batch_cached(&system2, &records, 4);
    for (a, b) in plain.iter().zip(&cached) {
        assert_eq!(a.asn, b.asn);
        if b.stage != asdb_core::Stage::Cached {
            assert_eq!(a.categories, b.categories, "{}", a.asn);
        }
    }
}

#[test]
fn dataset_dump_has_one_line_per_record_at_scale() {
    let c = ctx();
    let records: Vec<ParsedWhois> = c
        .world
        .ases
        .iter()
        .take(120)
        .map(|r| r.parsed.clone())
        .collect();
    let results = classify_batch(&c.system, &records, 4);
    let dump = dataset::write_jsonl(&results);
    assert_eq!(dump.lines().count(), results.len());
    for (rec, line) in results.iter().zip(dump.lines()) {
        let head = format!("{{\"asn\":{},", rec.asn.value());
        assert!(line.starts_with(&head), "{line}");
    }
}

#[test]
fn whole_system_is_deterministic_across_rebuilds() {
    let c = ctx();
    let system2 = asdb_core::AsdbSystem::build(&c.world, c.seed.derive("system"));
    for rec in c.world.ases.iter().take(40) {
        let a = c.system.classify(&rec.parsed);
        let b = system2.classify(&rec.parsed);
        assert_eq!(a.categories, b.categories, "{}", rec.asn);
        assert_eq!(a.stage, b.stage, "{}", rec.asn);
    }
}

#[test]
fn maintenance_loop_keeps_up_with_churn() {
    let c = ctx();
    use asdb_core::maintain::Maintainer;
    use asdb_model::Date;
    use asdb_worldgen::churn::{ChurnConfig, ChurnStream};
    let mut m = Maintainer::new(&c.system, &c.world);
    let stream = ChurnStream::new(
        ChurnConfig {
            window_days: 21,
            ..ChurnConfig::default()
        },
        c.world.asns(),
        c.world.orgs.iter().map(|o| o.id).collect(),
        Date::from_ymd(2020, 10, 1).unwrap(),
        c.seed.derive("integration-churn"),
    );
    m.run(stream);
    let r = m.report();
    assert_eq!(r.days, 21);
    assert!(r.new_ases > 0);
    assert!(r.full_classifications > 0);
    assert!(r.weekly_updates() > 50.0, "weekly = {}", r.weekly_updates());
}
