//! Observability-layer integration: stage counters reconcile with work
//! done, telemetry does not perturb classification across thread counts,
//! and the JSON metrics snapshot round-trips.

use asdb_core::batch::{classify_batch, classify_batch_cached};
use asdb_core::maintain::Maintainer;
use asdb_core::{AsdbSystem, Stage};
use asdb_model::{Date, WorldSeed};
use asdb_obs::RegistrySnapshot;
use asdb_worldgen::churn::{ChurnConfig, ChurnStream};
use asdb_worldgen::{World, WorldConfig};

fn build() -> (World, AsdbSystem) {
    let w = World::generate(WorldConfig::small(WorldSeed::new(31)));
    let s = AsdbSystem::build(&w, WorldSeed::new(32));
    (w, s)
}

#[test]
fn stage_counters_sum_to_batch_size() {
    let (w, s) = build();
    let records: Vec<_> = w.ases.iter().take(80).map(|r| r.parsed.clone()).collect();
    assert_eq!(s.metrics().stage_total(), 0);
    let out = classify_batch(&s, &records, 4);
    assert_eq!(out.len(), 80);
    assert_eq!(s.metrics().stage_total(), 80);
    // Per-stage counts match the stages the batch actually returned.
    for (stage, n) in s.metrics().stage_counts() {
        let observed = out.iter().filter(|c| c.stage == stage).count() as u64;
        assert_eq!(n, observed, "stage {stage:?}");
    }
    // Cached runs on top: every record still lands in exactly one stage,
    // and a repeat pass over the same records is served from the cache.
    let out2 = classify_batch_cached(&s, &records, 4);
    assert_eq!(out2.len(), 80);
    assert_eq!(s.metrics().stage_total(), 160);
    let out3 = classify_batch_cached(&s, &records, 4);
    assert_eq!(out3.len(), 80);
    assert_eq!(s.metrics().stage_total(), 240);
    assert!(
        s.metrics().stage_count(Stage::Cached) > 0,
        "repeat pass over the same records should reuse the org cache"
    );
    assert!(s.cache().hits() > 0);
    assert!(!s.cache().is_empty());
}

#[test]
fn thread_count_changes_neither_results_nor_counters() {
    let (w, s) = build();
    let records: Vec<_> = w.ases.iter().take(60).map(|r| r.parsed.clone()).collect();

    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let before = s.metrics().stage_counts();
        let out = classify_batch(&s, &records, threads);
        let after = s.metrics().stage_counts();
        let delta: Vec<u64> = after
            .iter()
            .zip(before.iter())
            .map(|((_, a), (_, b))| a - b)
            .collect();
        runs.push((threads, out, delta));
    }

    let (_, base_out, base_delta) = &runs[0];
    for (threads, out, delta) in &runs[1..] {
        assert_eq!(
            delta, base_delta,
            "stage counter deltas at {threads} threads"
        );
        assert_eq!(out.len(), base_out.len());
        for (a, b) in base_out.iter().zip(out) {
            assert_eq!(a.asn, b.asn, "{threads} threads");
            assert_eq!(a.categories, b.categories, "{} at {threads} threads", a.asn);
            assert_eq!(a.stage, b.stage, "{} at {threads} threads", a.asn);
        }
    }
}

#[test]
fn ml_histogram_reconciles_with_ml_counters() {
    // Perf baseline guard for the textml hot-path rewrite: the lazy-scaled
    // SGD / zero-copy featurization must not change how often the ML stage
    // is metered — exactly one `pipeline.ml` histogram sample per verdict,
    // never zero, never double-recorded.
    let (w, s) = build();
    let records: Vec<_> = w.ases.iter().take(60).map(|r| r.parsed.clone()).collect();
    let _ = classify_batch(&s, &records, 4);
    let snap = s.metrics_snapshot();
    let ml_count = snap.histograms["pipeline.ml"].count;
    assert!(ml_count > 0, "the ML stage ran on none of {} ASes", 60);
    assert_eq!(
        ml_count,
        snap.counter("ml.fired") + snap.counter("ml.abstained"),
        "pipeline.ml must record exactly one sample per ML verdict"
    );
    // A repeat of the same deterministic batch adds exactly the same
    // number of samples.
    let _ = classify_batch(&s, &records, 4);
    let snap2 = s.metrics_snapshot();
    assert_eq!(snap2.histograms["pipeline.ml"].count, 2 * ml_count);
    assert_eq!(
        snap2.counter("ml.fired") + snap2.counter("ml.abstained"),
        2 * ml_count
    );
}

#[test]
fn metrics_json_renders_the_live_snapshot() {
    let (w, s) = build();
    let records: Vec<_> = w.ases.iter().take(40).map(|r| r.parsed.clone()).collect();
    let _ = classify_batch_cached(&s, &records, 2);

    let snap = s.metrics_snapshot();
    assert_eq!(s.metrics_json(), snap.to_json());

    // The snapshot carries the live numbers, not zeros.
    assert_eq!(snap.counter("batch.records"), 40);
    assert!(snap.counter("source.dnb.queries") > 0);
    assert!(snap.histograms.contains_key("pipeline.classify"));
    assert_eq!(
        snap.counter("cache.inserts"),
        s.cache().inserts(),
        "registry cache counters are the OrgCache's own"
    );
}

#[test]
fn domain_selection_is_metered_once_per_record_that_reaches_it() {
    // The uncached path selects a domain only after the stage-1 shortcut,
    // so shortcut records add no §5.1 sample; the cached path selects for
    // every record while deriving its organization key, and so does
    // upkeep.
    let (w, s) = build();
    let records: Vec<_> = w.ases.iter().take(120).map(|r| r.parsed.clone()).collect();
    let n = records.len() as u64;
    let domain = |snap: &RegistrySnapshot| {
        (
            snap.counter("domain.selected") + snap.counter("domain.none"),
            snap.histograms["pipeline.domain_select"].count,
            snap.counter("pipeline.stage.matched_by_asn"),
        )
    };
    for threads in [1usize, 3] {
        let (outcomes0, samples0, shortcut0) = domain(&s.metrics_snapshot());
        let _ = classify_batch(&s, &records, threads);
        let (outcomes1, samples1, shortcut1) = domain(&s.metrics_snapshot());
        let shortcut = shortcut1 - shortcut0;
        assert!(shortcut > 0, "no stage-1 shortcut among {n} records");
        assert_eq!(outcomes1 - outcomes0, n - shortcut, "{threads} threads");
        assert_eq!(samples1 - samples0, n - shortcut, "{threads} threads");

        let _ = classify_batch_cached(&s, &records, threads);
        let (outcomes2, samples2, _) = domain(&s.metrics_snapshot());
        assert_eq!(outcomes2 - outcomes1, n, "cached, {threads} threads");
        assert_eq!(samples2 - samples1, n, "cached, {threads} threads");
    }

    // Upkeep selects once per new AS and once per metadata change: the
    // selection that derives the key to invalidate also serves the
    // re-classification.
    let stream = ChurnStream::new(
        ChurnConfig {
            window_days: 14,
            ..ChurnConfig::default()
        },
        w.asns(),
        w.orgs.iter().map(|o| o.id).collect(),
        Date::from_ymd(2020, 10, 1).unwrap(),
        WorldSeed::new(33),
    );
    let mut m = Maintainer::new(&s, &w);
    let (outcomes0, samples0, _) = domain(&s.metrics_snapshot());
    m.run(stream);
    let (outcomes1, samples1, _) = domain(&s.metrics_snapshot());
    let r = m.report();
    assert!(r.invalidations > 0, "no metadata change in the stream");
    let selections = (r.new_ases + r.invalidations) as u64;
    assert_eq!(outcomes1 - outcomes0, selections, "churn");
    assert_eq!(samples1 - samples0, selections, "churn");
}
