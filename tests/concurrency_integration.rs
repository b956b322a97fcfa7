//! Concurrency-substrate integration: the shared org cache and the
//! work-stealing batch scheduler, exercised through the real Figure 4
//! pipeline.
//!
//! The invariants under test:
//!
//! * `classify_batch_cached` output labels agree with serial
//!   classification for every `(n_threads, batch size)` combination, for
//!   any organization whose members classify identically (the only case
//!   where a label-level guarantee is possible — which member of a
//!   divergent org computes first has always been schedule-dependent);
//! * uncached batch output is identical to serial classification at every
//!   thread count and batch size;
//! * a duplicate-heavy batch inserts each unique organization exactly
//!   once, even when racing workers both miss on it, and every record the
//!   pipeline classified carries the labels uncached classification gives.

use asdb_core::batch::{classify_batch_cached_with, classify_batch_with, BatchConfig};
use asdb_core::cache::OrgKey;
use asdb_core::{AsdbSystem, Stage};
use asdb_model::WorldSeed;
use asdb_worldgen::{World, WorldConfig};
use std::collections::{HashMap, HashSet};

fn build(world_seed: u64, sys_seed: u64) -> (World, AsdbSystem) {
    let w = World::generate(WorldConfig::small(WorldSeed::new(world_seed)));
    let s = AsdbSystem::build(&w, WorldSeed::new(sys_seed));
    (w, s)
}

/// Records whose organization's members all classify to the same label
/// set (plus keyless records): the subset where cached-batch output is
/// label-deterministic under any schedule.
fn label_stable_records(
    w: &World,
    s: &AsdbSystem,
    take: usize,
) -> Vec<(asdb_rir::ParsedWhois, asdb_taxonomy::CategorySet)> {
    let records: Vec<_> = w.ases.iter().take(take).map(|r| r.parsed.clone()).collect();
    let serial: Vec<_> = records.iter().map(|r| s.classify(r)).collect();
    let mut by_key: HashMap<OrgKey, Vec<usize>> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        if let Some(k) = OrgKey::derive(s.select_domain(rec).as_ref(), &rec.name) {
            by_key.entry(k).or_default().push(i);
        }
    }
    let unstable: HashSet<usize> = by_key
        .values()
        .filter(|idxs| {
            idxs.iter()
                .any(|&i| serial[i].categories != serial[idxs[0]].categories)
        })
        .flat_map(|idxs| idxs.iter().copied())
        .collect();
    records
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !unstable.contains(i))
        .map(|(i, r)| (r, serial[i].categories.clone()))
        .collect()
}

#[test]
fn cached_batch_labels_match_serial_for_any_config() {
    let (w, s) = build(41, 42);
    let stable = label_stable_records(&w, &s, 80);
    assert!(
        stable.len() >= 40,
        "world too label-divergent for the test to mean anything: {}",
        stable.len()
    );
    let records: Vec<_> = stable.iter().map(|(r, _)| r.clone()).collect();
    // Batch sizes that leave a ragged last chunk at some thread counts.
    for len in [1usize, 7, 40, records.len()] {
        for n_threads in [1usize, 2, 3, 8] {
            // Cold cache per config (same system — rebuilding would retrain
            // the classifiers 16 times for nothing).
            s.cache().clear();
            let cfg = BatchConfig::with_threads(n_threads);
            let out = classify_batch_cached_with(&s, &records[..len], cfg);
            assert_eq!(out.len(), len);
            for ((rec, want), got) in stable.iter().zip(&out) {
                assert_eq!(got.asn, rec.asn, "order broke at {n_threads}t/{len}r");
                assert_eq!(
                    &got.categories, want,
                    "labels diverge for {} at {n_threads}t/{len}r",
                    rec.asn
                );
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
    // into different scheduler chunks and race across workers.
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
    // One insert per unique organization, no matter how many duplicates
    // raced: a store onto an existing entry is not an insert.
    assert_eq!(cache.inserts(), unique);
    assert_eq!(cache.len() as u64, unique);
    // Every keyed record made exactly one lookup. Racing duplicates may
    // each miss, so misses only bound the unique organizations from above.
    assert_eq!(cache.hits() + cache.misses(), keyed_records);
    assert!(cache.misses() >= unique, "{} misses", cache.misses());
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
