//! Source-transport integration: the uncached and the cached batch must
//! each give the same output at every worker-thread count, with and
//! without injected faults, faults must replay exactly per seed, and the
//! bookkeeping must be honest: per-source outcome counters reconcile over
//! a whole world.

use asdb_core::batch::{classify_batch, classify_batch_cached};
use asdb_core::{AsdbSystem, Classification};
use asdb_model::WorldSeed;
use asdb_rir::ParsedWhois;
use asdb_sources::transport::MAX_RETRIES;
use asdb_sources::SourceId;
use asdb_worldgen::{World, WorldConfig};

fn world() -> World {
    World::generate(WorldConfig::small(WorldSeed::new(77)))
}

const SLUGS: [&str; 5] = ["dnb", "crunchbase", "zvelo", "peeringdb", "ipinfo"];

/// A batch entry point: `classify_batch` or `classify_batch_cached`.
type Batch = fn(&AsdbSystem, &[ParsedWhois], usize) -> Vec<Classification>;

#[test]
fn fault_free_batch_labels_agree_across_thread_grid() {
    batch_output_agrees_across_thread_grid(classify_batch, 0.0);
}

#[test]
fn faulted_batch_output_agrees_across_thread_grid() {
    batch_output_agrees_across_thread_grid(classify_batch, 0.2);
}

#[test]
fn fault_free_cached_batch_output_agrees_across_thread_grid() {
    batch_output_agrees_across_thread_grid(classify_batch_cached, 0.0);
}

#[test]
fn faulted_cached_batch_output_agrees_across_thread_grid() {
    batch_output_agrees_across_thread_grid(classify_batch_cached, 0.2);
}

/// The batch at 2 and 4 threads must equal its 1-thread output,
/// `degraded` included.
fn batch_output_agrees_across_thread_grid(batch: Batch, fault_rate: f64) {
    let w = world();
    let records: Vec<_> = w.ases.iter().map(|r| r.parsed.clone()).collect();
    // A fresh system per run, so no run inherits another's metrics or
    // cache.
    let run = |threads| {
        let s = AsdbSystem::build(&w, WorldSeed::new(3)).with_fault_rate(fault_rate);
        batch(&s, &records, threads)
    };
    let reference = run(1);
    for threads in [2usize, 4] {
        let out = run(threads);
        assert_eq!(out.len(), reference.len());
        for (a, b) in reference.iter().zip(&out) {
            assert_eq!(a.asn, b.asn);
            let at = format!("{} at {threads} threads, fault rate {fault_rate}", a.asn);
            assert_eq!(a.categories, b.categories, "{at}");
            assert_eq!(a.stage, b.stage, "{at}");
            assert_eq!(a.sources, b.sources, "{at}");
            assert_eq!(a.chosen_domain, b.chosen_domain, "{at}");
            assert_eq!(a.degraded, b.degraded, "{at}");
        }
    }
    let degraded = reference.iter().filter(|c| !c.degraded.is_empty()).count();
    if fault_rate == 0.0 {
        assert_eq!(degraded, 0, "no faults injected");
    } else {
        assert!(degraded > 0, "faults at {fault_rate} degraded no record");
    }
}

#[test]
fn per_source_outcome_counters_reconcile_over_a_world() {
    let w = world();
    let s = AsdbSystem::build(&w, WorldSeed::new(5)).with_fault_rate(0.3);
    for rec in &w.ases {
        let _ = s.classify(&rec.parsed);
    }
    let snap = s.metrics_snapshot();
    let mut any_degraded = 0u64;
    for slug in SLUGS {
        let c = |what: &str| snap.counter(&format!("source.{slug}.{what}"));
        // Every issued query resolves to exactly one terminal outcome.
        assert_eq!(
            c("queries"),
            c("matches") + c("rejects") + c("no_match") + c("timeouts") + c("failures"),
            "outcome accounting for {slug}"
        );
        any_degraded += c("timeouts") + c("failures");
    }
    assert!(any_degraded > 0, "30% faults left no trace in the counters");
    assert!(
        snap.histograms["pipeline.fanout"].count > 0,
        "fan-out latency histogram never sampled"
    );
}

#[test]
fn fault_injection_is_bit_reproducible_per_seed() {
    let w = world();
    let noisy = || AsdbSystem::build(&w, WorldSeed::new(8)).with_fault_rate(0.35);
    let (a, b) = (noisy(), noisy());
    let mut degraded_records = 0usize;
    for rec in w.ases.iter().take(150) {
        let ca = a.classify(&rec.parsed);
        let cb = b.classify(&rec.parsed);
        assert_eq!(ca.categories, cb.categories, "{}", ca.asn);
        assert_eq!(ca.stage, cb.stage, "{}", ca.asn);
        assert_eq!(ca.sources, cb.sources, "{}", ca.asn);
        assert_eq!(ca.degraded, cb.degraded, "{}", ca.asn);
        degraded_records += usize::from(!ca.degraded.is_empty());
    }
    assert!(
        degraded_records > 0,
        "35% faults never populated Classification::degraded"
    );
}

#[test]
fn total_outage_degrades_every_source_and_reconciles() {
    let w = world();
    let s = AsdbSystem::build(&w, WorldSeed::new(11)).with_fault_rate(1.0);
    let n = 60;
    for rec in w.ases.iter().take(n) {
        let c = s.classify(&rec.parsed);
        // PeeringDB is never reachable, so the ASN shortcut never fires
        // and every record reaches stage 3 with nothing to agree on.
        assert_eq!(c.degraded, SourceId::ASDB_FIVE.to_vec(), "{}", c.asn);
        assert!(c.sources.is_empty(), "{}: {:?}", c.asn, c.sources);
    }
    let snap = s.metrics_snapshot();
    for slug in SLUGS {
        let c = |what: &str| snap.counter(&format!("source.{slug}.{what}"));
        assert_eq!(c("queries"), n as u64, "{slug}");
        assert_eq!(c("timeouts") + c("failures"), c("queries"), "{slug}");
        assert_eq!(c("matches") + c("rejects") + c("no_match"), 0, "{slug}");
        assert_eq!(
            c("retries"),
            u64::from(MAX_RETRIES) * c("queries"),
            "{slug}"
        );
    }
}
