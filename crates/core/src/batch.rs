//! Parallel batch classification.
//!
//! Classifying the full AS population is embarrassingly parallel: the
//! pipeline is read-only apart from the organization cache.
//! Batches are spread over `std::thread::scope` workers ("Our model uses
//! 6 CPU cores…") by a **work-stealing chunk scheduler**: the input is
//! cut into ~4 chunks per worker and workers claim them off a shared
//! atomic cursor, so cheap cached records never leave stragglers pinned
//! behind expensive scrape-heavy ones the way static contiguous chunking
//! does. Output order is preserved by reassembling chunks at their
//! original offsets.
//!
//! [`classify_batch`] is cache-free, and nothing else it touches carries
//! state from one record to the next (the source transport draws each
//! fault from the call's own seed, source, ASN and attempt), so its
//! output is the same at every thread count, with or without injected
//! faults. [`classify_batch_cached`] shares the system's organization
//! cache, which is faster on multi-AS organizations. The first member
//! of an organization a worker finishes fills the cache and later
//! members copy its result as `Cached`, so on several threads which
//! member leads, and with it the labels and stage of the others, depends
//! on scheduling. Concurrent duplicates of one organization that miss at
//! the same time may each run the pipeline.
//!
//! Both record wall-clock and per-worker timing into the system's
//! [`PipelineMetrics`](crate::metrics::PipelineMetrics) (`batch.*`,
//! including chunk and steal counts), so thread-scaling efficiency is
//! visible in the `asdb metrics` report. Worker panics are re-raised with
//! their original payload.

use crate::pipeline::{AsdbSystem, Classification};
use asdb_rir::ParsedWhois;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tuning knobs for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads (minimum 1; capped at the number of chunks).
    pub n_threads: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { n_threads: 4 }
    }
}

impl BatchConfig {
    /// `n` worker threads.
    pub fn with_threads(n: usize) -> BatchConfig {
        BatchConfig {
            n_threads: n.max(1),
        }
    }
}

/// Run `classify` over `records` on the chunk scheduler, input order
/// preserved. A panic in `classify` reaches the caller with its original
/// payload.
fn run_batch<F>(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    config: BatchConfig,
    classify: F,
) -> Vec<Classification>
where
    F: Fn(&AsdbSystem, &ParsedWhois) -> Classification + Sync,
{
    let n_threads = config.n_threads.max(1);
    if records.is_empty() {
        return Vec::new();
    }
    let wall = std::time::Instant::now();
    // ~4 chunks per worker keeps claim overhead negligible while still
    // letting fast workers steal from slow ones.
    let chunk = records.len().div_ceil(4 * n_threads);
    let n_chunks = records.len().div_ceil(chunk);
    let n_workers = n_threads.min(n_chunks);
    let cursor = AtomicUsize::new(0);
    // Each worker returns the chunks it produced tagged with their input
    // offset; reassembly restores input order without any shared mutable
    // output state.
    let mut produced: Vec<(usize, Vec<Classification>)> = Vec::with_capacity(n_chunks);
    let mut steals = 0u64;
    std::thread::scope(|scope| {
        let (cursor, classify) = (&cursor, &classify);
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(move || {
                    let worker_wall = std::time::Instant::now();
                    let mut mine: Vec<(usize, Vec<Classification>)> = Vec::new();
                    let mut claimed = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        claimed += 1;
                        let lo = i * chunk;
                        let hi = (lo + chunk).min(records.len());
                        let out = records[lo..hi].iter().map(|r| classify(system, r));
                        mine.push((lo, out.collect()));
                    }
                    system.metrics().record_batch_worker(worker_wall.elapsed());
                    (mine, claimed)
                })
            })
            .collect();
        for h in handles {
            // Re-raise the worker's original panic payload so the real
            // failure message (assert text, index, …) reaches the caller
            // instead of a generic "a scoped thread panicked".
            match h.join() {
                Ok((mine, claimed)) => {
                    // A worker's first claim is its own share; every
                    // further claim is a steal off the shared queue.
                    steals += claimed.saturating_sub(1);
                    produced.extend(mine);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let mut out: Vec<Option<Classification>> = Vec::new();
    out.resize_with(records.len(), || None);
    for (lo, chunk_out) in produced {
        for (j, c) in chunk_out.into_iter().enumerate() {
            out[lo + j] = Some(c);
        }
    }
    system
        .metrics()
        .record_batch_run(records.len(), n_workers, wall.elapsed());
    system
        .metrics()
        .record_batch_chunks(n_chunks as u64, steals);
    out.into_iter()
        .map(|c| c.expect("every slot filled"))
        .collect()
}

/// Classify a batch without the cache, with explicit scheduler tuning —
/// deterministic for any thread count, input order preserved.
pub fn classify_batch_with(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    config: BatchConfig,
) -> Vec<Classification> {
    run_batch(system, records, config, AsdbSystem::classify)
}

/// Classify a batch with the shared organization cache and explicit
/// scheduler tuning (production mode: a multi-AS organization is served
/// from the cache once classified; concurrent duplicates may each run the
/// pipeline).
pub fn classify_batch_cached_with(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    config: BatchConfig,
) -> Vec<Classification> {
    run_batch(system, records, config, AsdbSystem::classify_cached)
}

/// Classify a batch across `n_threads` threads without the cache —
/// deterministic for any thread count, input order preserved.
pub fn classify_batch(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    n_threads: usize,
) -> Vec<Classification> {
    classify_batch_with(system, records, BatchConfig::with_threads(n_threads))
}

/// Classify a batch with the shared organization cache (production mode:
/// multi-AS organizations are classified once).
pub fn classify_batch_cached(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    n_threads: usize,
) -> Vec<Classification> {
    classify_batch_cached_with(system, records, BatchConfig::with_threads(n_threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use asdb_worldgen::{World, WorldConfig};

    #[test]
    fn parallel_matches_serial() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(3)));
        let s = AsdbSystem::build(&w, WorldSeed::new(4));
        let records: Vec<_> = w.ases.iter().take(60).map(|r| r.parsed.clone()).collect();
        let serial: Vec<_> = records.iter().map(|r| s.classify(r)).collect();
        let parallel = classify_batch(&s, &records, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.asn, b.asn);
            assert_eq!(a.categories, b.categories, "labels diverge for {}", a.asn);
            assert_eq!(a.stage, b.stage);
        }
    }

    #[test]
    fn any_thread_count_and_batch_size_matches_serial() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(3)));
        let s = AsdbSystem::build(&w, WorldSeed::new(4));
        let records: Vec<_> = w.ases.iter().take(60).map(|r| r.parsed.clone()).collect();
        let serial: Vec<_> = records.iter().map(|r| s.classify(r)).collect();
        // Batch sizes that leave a ragged last chunk at some thread counts.
        for len in [1usize, 7, 50, 60] {
            for n_threads in [1usize, 2, 3, 8] {
                let cfg = BatchConfig::with_threads(n_threads);
                let out = classify_batch_with(&s, &records[..len], cfg);
                assert_eq!(out.len(), len);
                for (a, b) in serial.iter().zip(&out) {
                    assert_eq!(a.asn, b.asn, "order broke at {n_threads}t/{len}r");
                    assert_eq!(
                        a.categories, b.categories,
                        "labels diverge for {} at {n_threads}t/{len}r",
                        a.asn
                    );
                    assert_eq!(a.stage, b.stage);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "classifier exploded on the fifth record")]
    fn worker_panic_reaches_the_caller_with_its_own_message() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(3)));
        let s = AsdbSystem::build(&w, WorldSeed::new(4));
        let records: Vec<_> = w.ases.iter().take(12).map(|r| r.parsed.clone()).collect();
        let doomed = records[4].asn;
        run_batch(&s, &records, BatchConfig::with_threads(3), |s, r| {
            if r.asn == doomed {
                panic!("classifier exploded on the fifth record");
            }
            s.classify(r)
        });
    }

    #[test]
    fn cached_batch_fills_the_cache() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(9)));
        let s = AsdbSystem::build(&w, WorldSeed::new(10));
        let records: Vec<_> = w.ases.iter().take(40).map(|r| r.parsed.clone()).collect();
        assert!(s.cache().is_empty());
        let out = classify_batch_cached(&s, &records, 4);
        assert_eq!(out.len(), 40);
        assert!(!s.cache().is_empty());
    }

    #[test]
    fn batch_metrics_reconcile_with_records() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(11)));
        let s = AsdbSystem::build(&w, WorldSeed::new(12));
        let records: Vec<_> = w.ases.iter().take(24).map(|r| r.parsed.clone()).collect();
        let out = classify_batch(&s, &records, 3);
        assert_eq!(out.len(), 24);
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("batch.runs"), 1);
        assert_eq!(snap.counter("batch.records"), 24);
        assert_eq!(snap.counter("batch.workers"), 3);
        // Auto chunking: ~4 chunks per worker.
        assert_eq!(snap.counter("batch.chunks"), 12);
        assert_eq!(snap.histograms["batch.worker_wall"].count, 3);
        assert_eq!(snap.histograms["batch.wall"].count, 1);
        // Stage counters reconcile with the number of records processed.
        assert_eq!(s.metrics().stage_total(), 24);
    }

    #[test]
    fn single_chunk_records_no_steals() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(13)));
        let s = AsdbSystem::build(&w, WorldSeed::new(14));
        let records: Vec<_> = w.ases.iter().take(1).map(|r| r.parsed.clone()).collect();
        // A one-record batch is one chunk: exactly one worker runs (worker
        // count is capped at the chunk count) and a worker's first claim
        // is never a steal. This is the only batch where zero steals is
        // guaranteed rather than merely likely — with several chunks, a
        // fast worker can still grab one before its "owner" thread is
        // scheduled.
        let out = classify_batch_with(&s, &records, BatchConfig::with_threads(4));
        assert_eq!(out.len(), 1);
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("batch.chunks"), 1);
        assert_eq!(snap.counter("batch.workers"), 1);
        assert_eq!(snap.counter("batch.steals"), 0);
    }

    #[test]
    fn empty_batch() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(5)));
        let s = AsdbSystem::build(&w, WorldSeed::new(6));
        assert!(classify_batch(&s, &[], 4).is_empty());
    }

    #[test]
    fn more_threads_than_records() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(7)));
        let s = AsdbSystem::build(&w, WorldSeed::new(8));
        let records: Vec<_> = w.ases.iter().take(3).map(|r| r.parsed.clone()).collect();
        let out = classify_batch(&s, &records, 16);
        assert_eq!(out.len(), 3);
    }
}
