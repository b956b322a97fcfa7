//! Concurrency-substrate integration: the shared org cache and the
//! work-stealing batch scheduler, exercised through the real Figure 4
//! pipeline.
//!
//! The invariants under test:
//!
//! * `classify_batch_cached` output equals its 1-thread output for every
//!   `(n_threads, batch size)` combination: the first member of each
//!   organization leads, whatever the schedule;
//! * uncached batch output is identical to serial classification at every
//!   thread count and batch size;
//! * a duplicate-heavy batch classifies each unique organization exactly
//!   once and serves every other keyed record from the cache.

use asdb_core::batch::{classify_batch_cached_with, classify_batch_with, BatchConfig};
use asdb_core::cache::OrgKey;
use asdb_core::{AsdbSystem, Stage};
use asdb_model::WorldSeed;
use asdb_worldgen::{World, WorldConfig};
use std::collections::HashSet;

fn build(world_seed: u64, sys_seed: u64) -> (World, AsdbSystem) {
    let w = World::generate(WorldConfig::small(WorldSeed::new(world_seed)));
    let s = AsdbSystem::build(&w, WorldSeed::new(sys_seed));
    (w, s)
}

#[test]
fn cached_batch_labels_match_serial_for_any_config() {
    let (w, s) = build(41, 42);
    let records: Vec<_> = w.ases.iter().take(80).map(|r| r.parsed.clone()).collect();
    // Batch sizes that leave a ragged last chunk at some thread counts.
    for len in [1usize, 7, 40, records.len()] {
        // Cold cache per config (same system — rebuilding would retrain
        // the classifiers 16 times for nothing).
        let run = |n_threads| {
            s.cache().clear();
            classify_batch_cached_with(&s, &records[..len], BatchConfig::with_threads(n_threads))
        };
        let reference = run(1);
        assert_eq!(reference.len(), len);
        for n_threads in [2usize, 3, 8] {
            let out = run(n_threads);
            assert_eq!(out.len(), len);
            for (a, b) in reference.iter().zip(&out) {
                let at = format!("{} at {n_threads}t/{len}r", a.asn);
                assert_eq!(a.asn, b.asn, "order broke at {at}");
                assert_eq!(a.categories, b.categories, "{at}");
                assert_eq!(a.stage, b.stage, "{at}");
                assert_eq!(a.sources, b.sources, "{at}");
                assert_eq!(a.chosen_domain, b.chosen_domain, "{at}");
                assert_eq!(a.degraded, b.degraded, "{at}");
            }
        }
    }
}

#[test]
fn uncached_batch_is_byte_identical_to_serial_for_any_config() {
    let (w, s) = build(43, 44);
    let records: Vec<_> = w.ases.iter().take(60).map(|r| r.parsed.clone()).collect();
    let serial: Vec<_> = records.iter().map(|r| s.classify(r)).collect();
    for len in [1usize, 7, 50, 60] {
        for n_threads in [1usize, 2, 3, 8] {
            let cfg = BatchConfig::with_threads(n_threads);
            let out = classify_batch_with(&s, &records[..len], cfg);
            assert_eq!(out.len(), len);
            for (a, b) in serial.iter().zip(&out) {
                assert_eq!(a.asn, b.asn);
                assert_eq!(a.categories, b.categories);
                assert_eq!(a.stage, b.stage);
                assert_eq!(a.sources, b.sources);
                assert_eq!(a.chosen_domain, b.chosen_domain);
            }
        }
    }
}

#[test]
fn duplicate_heavy_batch_inserts_each_org_once() {
    let (w, s) = build(47, 48);
    // Every record duplicated 6×: the §5.1 multi-AS-organization case,
    // concentrated. The copies are interleaved round-robin, so they fall
    // into different scheduler chunks.
    let base: Vec<_> = w.ases.iter().take(30).map(|r| r.parsed.clone()).collect();
    let records: Vec<_> = (0..6).flat_map(|_| base.iter().cloned()).collect();
    let unique_keys: HashSet<OrgKey> = base
        .iter()
        .filter_map(|r| OrgKey::derive(s.select_domain(r).as_ref(), &r.name))
        .collect();
    let keyed_records = records
        .iter()
        .filter(|r| OrgKey::derive(s.select_domain(r).as_ref(), &r.name).is_some())
        .count() as u64;
    let out = classify_batch_cached_with(&s, &records, BatchConfig::with_threads(8));
    assert_eq!(out.len(), records.len());
    let cache = s.cache();
    let unique = unique_keys.len() as u64;
    // Each organization's first member misses and is stored; every other
    // keyed record hits its entry.
    assert_eq!(cache.inserts(), unique);
    assert_eq!(cache.len() as u64, unique);
    assert_eq!(cache.misses(), unique);
    assert_eq!(cache.hits(), keyed_records - unique);
    // Exactly the hits were served from the cache.
    let cached_stage = out.iter().filter(|c| c.stage == Stage::Cached).count() as u64;
    assert_eq!(cached_stage, cache.hits());
    // Every record the pipeline classified has its uncached labels.
    for (rec, c) in records.iter().zip(&out) {
        if c.stage != Stage::Cached {
            assert_eq!(c.categories, s.classify(rec).categories, "{}", rec.asn);
        }
    }
}
