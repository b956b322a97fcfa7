//! Parallel batch classification.
//!
//! Classifying the full AS population is embarrassingly parallel: the
//! pipeline is read-only apart from the organization cache.
//! Batches are spread over `std::thread::scope` workers ("Our model uses
//! 6 CPU cores…") by a **work-stealing chunk scheduler**: the input is
//! cut into ~4 chunks per worker and workers claim them off a shared
//! atomic cursor, so cheap records never leave stragglers pinned behind
//! expensive scrape-heavy ones the way static contiguous chunking does.
//! Output order is preserved by reassembling chunks at their original
//! offsets.
//!
//! Both batches give the same output at every thread count, with or
//! without injected faults (the source transport draws each fault from
//! the call's own seed, source, ASN and attempt). [`classify_batch`] is
//! cache-free. [`classify_batch_cached`] is defined as its 1-thread
//! order, in three passes: workers select the §5.1 domain and derive the
//! organization key of every record; one serial pass in input order makes
//! the first record of each key a *leader*, and every keyless record too;
//! workers run the leaders through the cache protocol of
//! [`AsdbSystem::classify_cached`], then the other records go through it
//! in input order and hit their leader's entry as `Cached`. No two
//! workers hold one organization, so none race on a cache entry.
//!
//! Both record wall-clock and per-worker timing into the system's
//! [`PipelineMetrics`] (`batch.*`, including chunk and steal counts), so
//! thread-scaling efficiency is visible in the `asdb metrics` report.
//! Worker panics are re-raised with their original payload.

use crate::metrics::PipelineMetrics;
use crate::pipeline::{AsdbSystem, Classification};
use asdb_rir::ParsedWhois;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Tuning knobs for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads (minimum 1; capped at the number of chunks).
    pub n_threads: usize,
}

impl BatchConfig {
    /// `n` worker threads.
    pub fn with_threads(n: usize) -> BatchConfig {
        BatchConfig {
            n_threads: n.max(1),
        }
    }
}

/// Map `f` over `items` on the chunk scheduler, input order preserved,
/// and return the output with the number of workers that ran. Each
/// worker's wall clock and the pass's chunk and steal counts go into
/// `metrics`. A panic in `f` reaches the caller with its original
/// payload.
fn par_map<T: Sync, U: Send>(
    metrics: &PipelineMetrics,
    items: &[T],
    n_threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> (Vec<U>, usize) {
    if items.is_empty() {
        return (Vec::new(), 0);
    }
    let n_threads = n_threads.max(1);
    // ~4 chunks per worker keeps claim overhead negligible while still
    // letting fast workers steal from slow ones.
    let chunk = items.len().div_ceil(4 * n_threads);
    let n_chunks = items.len().div_ceil(chunk);
    let n_workers = n_threads.min(n_chunks);
    let cursor = AtomicUsize::new(0);
    // Each worker returns the chunks it produced tagged with their input
    // offset; reassembly restores input order without any shared mutable
    // output state.
    let mut produced: Vec<(usize, Vec<U>)> = Vec::with_capacity(n_chunks);
    let mut steals = 0u64;
    std::thread::scope(|scope| {
        let (cursor, f) = (&cursor, &f);
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(move || {
                    let worker_wall = Instant::now();
                    let mut mine: Vec<(usize, Vec<U>)> = Vec::new();
                    let mut claimed = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        claimed += 1;
                        let lo = i * chunk;
                        let hi = (lo + chunk).min(items.len());
                        mine.push((lo, items[lo..hi].iter().map(f).collect()));
                    }
                    metrics.record_batch_worker(worker_wall.elapsed());
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
    metrics.record_batch_chunks(n_chunks as u64, steals);
    produced.sort_unstable_by_key(|(lo, _)| *lo);
    let out = produced.into_iter().flat_map(|(_, out)| out).collect();
    (out, n_workers)
}

/// Time one batch call of `n` records as one `batch.runs`. `run` returns
/// the output and the most workers any of its passes ran.
fn record_run(
    metrics: &PipelineMetrics,
    n: usize,
    run: impl FnOnce() -> (Vec<Classification>, usize),
) -> Vec<Classification> {
    if n == 0 {
        return Vec::new();
    }
    let wall = Instant::now();
    let (out, workers) = run();
    metrics.record_batch_run(n, workers, wall.elapsed());
    out
}

/// Classify a batch without the cache, with explicit scheduler tuning —
/// deterministic for any thread count, input order preserved.
pub fn classify_batch_with(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    config: BatchConfig,
) -> Vec<Classification> {
    let metrics = system.metrics();
    record_run(metrics, records.len(), || {
        par_map(metrics, records, config.n_threads, |r| system.classify(r))
    })
}

/// Classify a batch with the shared organization cache and explicit
/// scheduler tuning (production mode). At any thread count the output is
/// that of [`AsdbSystem::classify_cached`] on each record in input order.
pub fn classify_batch_cached_with(
    system: &AsdbSystem,
    records: &[ParsedWhois],
    config: BatchConfig,
) -> Vec<Classification> {
    let (metrics, n_threads) = (system.metrics(), config.n_threads);
    record_run(metrics, records.len(), || {
        // Pass 1: the §5.1 domain and organization key of every record,
        // timed so each record's `pipeline.classify` sample includes it.
        let (selected, selecting) = par_map(metrics, records, n_threads, |r| {
            let t = Instant::now();
            let (chosen, key) = system.select_key(r);
            (chosen, key, t.elapsed())
        });
        // Pass 2: the first record of each key leads, and so does every
        // keyless record.
        let mut seen = HashSet::new();
        let leaders: Vec<usize> = (0..records.len())
            .filter(|&i| selected[i].1.as_ref().map_or(true, |k| seen.insert(k)))
            .collect();
        // Pass 3: the leaders on the workers, then the followers in input
        // order, each hitting its leader's entry.
        let (led, leading) = par_map(metrics, &leaders, n_threads, |&i| {
            let (chosen, key, spent) = &selected[i];
            system.classify_selected(&records[i], chosen.clone(), key.as_ref(), *spent)
        });
        let mut led = leaders.into_iter().zip(led).peekable();
        let mut out = Vec::with_capacity(records.len());
        for (i, ((chosen, key, spent), r)) in selected.into_iter().zip(records).enumerate() {
            out.push(match led.next_if(|(j, _)| *j == i) {
                Some((_, c)) => c,
                None => system.classify_selected(r, chosen, key.as_ref(), spent),
            });
        }
        (out, selecting.max(leading))
    })
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
        par_map(s.metrics(), &records, 3, |r| {
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
        // One run; each record selects its domain once and is sampled and
        // staged once.
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("batch.runs"), 1);
        assert_eq!(snap.counter("batch.records"), 40);
        let selections = snap.counter("domain.selected") + snap.counter("domain.none");
        assert_eq!(selections, 40);
        assert_eq!(snap.histograms["pipeline.classify"].count, 40);
        assert_eq!(s.metrics().stage_total(), 40);
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
