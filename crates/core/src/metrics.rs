//! Pipeline-wide telemetry (the operational counterpart of Table 8).
//!
//! [`PipelineMetrics`] instruments every mechanism the paper evaluates:
//! per-[`Stage`] outcome counters (Table 8's rows), per-source
//! query/match/reject counters (Tables 3/5's coverage axis), §5.1
//! domain-selection outcomes, ML fire/override counts (§5.2's "marked as
//! non-hosting by at least two data sources" override), cache reuse
//! (§5.1's same-organization shortcut), per-phase latency histograms, and
//! batch throughput. All of it lives in an [`asdb_obs::Registry`] so one
//! call renders the whole system as a text report or a JSON
//! snapshot.
//!
//! Hot-path cost is one relaxed atomic op per event; the registry's lock
//! is only touched at construction and snapshot time.
//! [`PipelineMetrics::set_enabled`] turns every `record_*` call into a
//! no-op, so the cost of instrumentation can be measured by switching it
//! off. The `cache.hits`, `cache.misses` and `cache.inserts` counters are
//! the [`OrgCache`]'s own and keep counting while it is off.

use crate::cache::OrgCache;
use crate::pipeline::{Classification, Stage};
use asdb_obs::{Counter, Histogram, Registry, RegistrySnapshot};
use asdb_sources::transport::{OutcomeKind, SourceOutcome};
use asdb_sources::SourceId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Dotted-name slug for a source (`dnb`, `crunchbase`, …).
fn source_slug(id: SourceId) -> &'static str {
    match id {
        SourceId::Dnb => "dnb",
        SourceId::Crunchbase => "crunchbase",
        SourceId::ZoomInfo => "zoominfo",
        SourceId::Clearbit => "clearbit",
        SourceId::Zvelo => "zvelo",
        SourceId::PeeringDb => "peeringdb",
        SourceId::Ipinfo => "ipinfo",
    }
}

/// Dotted-name slug for a stage (`cached`, `matched_by_asn`, …).
fn stage_slug(stage: Stage) -> &'static str {
    match stage {
        Stage::Cached => "cached",
        Stage::MatchedByAsn => "matched_by_asn",
        Stage::Classifier => "classifier",
        Stage::ZeroSources => "zero_sources",
        Stage::OneSource => "one_source",
        Stage::MultiAgree => "multi_agree",
        Stage::MultiNoneAgree => "multi_none_agree",
    }
}

fn per_source(registry: &Registry, what: &str) -> [Arc<Counter>; SourceId::ASDB_FIVE.len()] {
    std::array::from_fn(|i| {
        let id = SourceId::ASDB_FIVE[i];
        registry.counter(&format!("source.{}.{what}", source_slug(id)))
    })
}

fn source_index(id: SourceId) -> Option<usize> {
    SourceId::ASDB_FIVE.iter().position(|s| *s == id)
}

/// Per-system telemetry threaded through the Figure 4 pipeline.
#[derive(Debug)]
pub struct PipelineMetrics {
    registry: Registry,
    enabled: AtomicBool,

    // Table 8: which mechanism produced each label.
    stage: [Arc<Counter>; Stage::ALL.len()],

    // Per-source coverage (Tables 3/5): automated queries issued,
    // matches that survived filtering, matches rejected (entity
    // disagreement or empty label set).
    source_queries: [Arc<Counter>; SourceId::ASDB_FIVE.len()],
    source_matches: [Arc<Counter>; SourceId::ASDB_FIVE.len()],
    source_rejects: [Arc<Counter>; SourceId::ASDB_FIVE.len()],

    // Transport health per source: clean calls that found no entry,
    // calls lost to timeouts / hard failures, and retry attempts beyond
    // the first.
    source_no_match: [Arc<Counter>; SourceId::ASDB_FIVE.len()],
    source_timeouts: [Arc<Counter>; SourceId::ASDB_FIVE.len()],
    source_failures: [Arc<Counter>; SourceId::ASDB_FIVE.len()],
    source_retries: [Arc<Counter>; SourceId::ASDB_FIVE.len()],

    // §5.1 domain selection outcomes.
    domain_selected: Arc<Counter>,
    domain_none: Arc<Counter>,

    // ML classifier behaviour (§5.2).
    ml_fired: Arc<Counter>,
    ml_abstained: Arc<Counter>,
    ml_overridden: Arc<Counter>,

    // Cache reuse (§5.1) — shared with the system's OrgCache.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_inserts: Arc<Counter>,
    cache_entries: Arc<Counter>,

    // Per-phase latency.
    classify_latency: Arc<Histogram>,
    domain_latency: Arc<Histogram>,
    ml_latency: Arc<Histogram>,
    source_latency: Arc<Histogram>,
    fanout_latency: Arc<Histogram>,

    // Batch throughput.
    batch_runs: Arc<Counter>,
    batch_records: Arc<Counter>,
    batch_workers: Arc<Counter>,
    batch_chunks: Arc<Counter>,
    batch_steals: Arc<Counter>,
    batch_wall: Arc<Histogram>,
    batch_worker_wall: Arc<Histogram>,
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics::new()
    }
}

impl PipelineMetrics {
    /// A fresh, enabled metrics set backed by its own registry.
    pub fn new() -> PipelineMetrics {
        let registry = Registry::new();
        let stage = std::array::from_fn(|i| {
            registry.counter(&format!("pipeline.stage.{}", stage_slug(Stage::ALL[i])))
        });
        let source_queries = per_source(&registry, "queries");
        let source_matches = per_source(&registry, "matches");
        let source_rejects = per_source(&registry, "rejects");
        let source_no_match = per_source(&registry, "no_match");
        let source_timeouts = per_source(&registry, "timeouts");
        let source_failures = per_source(&registry, "failures");
        let source_retries = per_source(&registry, "retries");
        PipelineMetrics {
            stage,
            source_queries,
            source_matches,
            source_rejects,
            source_no_match,
            source_timeouts,
            source_failures,
            source_retries,
            domain_selected: registry.counter("domain.selected"),
            domain_none: registry.counter("domain.none"),
            ml_fired: registry.counter("ml.fired"),
            ml_abstained: registry.counter("ml.abstained"),
            ml_overridden: registry.counter("ml.overridden"),
            cache_hits: registry.counter("cache.hits"),
            cache_misses: registry.counter("cache.misses"),
            cache_inserts: registry.counter("cache.inserts"),
            cache_entries: registry.counter("cache.entries"),
            classify_latency: registry.histogram("pipeline.classify"),
            domain_latency: registry.histogram("pipeline.domain_select"),
            ml_latency: registry.histogram("pipeline.ml"),
            source_latency: registry.histogram("pipeline.source_match"),
            fanout_latency: registry.histogram("pipeline.fanout"),
            batch_runs: registry.counter("batch.runs"),
            batch_records: registry.counter("batch.records"),
            batch_workers: registry.counter("batch.workers"),
            batch_chunks: registry.counter("batch.chunks"),
            batch_steals: registry.counter("batch.steals"),
            batch_wall: registry.histogram("batch.wall"),
            batch_worker_wall: registry.histogram("batch.worker_wall"),
            registry,
            enabled: AtomicBool::new(true),
        }
    }

    /// Whether recording is on (it is by default).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn every `record_*` call into a no-op (or back on), e.g. to
    /// measure what instrumentation costs. The cache's own `cache.hits`,
    /// `cache.misses` and `cache.inserts` counters are not switched.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Build an [`OrgCache`] whose hit/miss/insert traffic
    /// lands in this registry's `cache.*` counters.
    pub fn build_cache(&self) -> OrgCache {
        OrgCache::with_counters(
            Arc::clone(&self.cache_hits),
            Arc::clone(&self.cache_misses),
            Arc::clone(&self.cache_inserts),
        )
    }

    /// Record a finished classification: its stage and end-to-end latency.
    pub fn record_classification(&self, c: &Classification, elapsed: Duration) {
        if !self.enabled() {
            return;
        }
        self.stage[c.stage.index()].inc();
        self.classify_latency.record(elapsed);
    }

    /// Record a source match that survived filtering.
    pub fn record_source_match(&self, id: SourceId) {
        if !self.enabled() {
            return;
        }
        if let Some(i) = source_index(id) {
            self.source_matches[i].inc();
        }
    }

    /// Record a source match rejected by entity disagreement or for
    /// carrying no labels.
    pub fn record_source_reject(&self, id: SourceId) {
        if !self.enabled() {
            return;
        }
        if let Some(i) = source_index(id) {
            self.source_rejects[i].inc();
        }
    }

    /// Record the transport facts of one fan-out source call, at call
    /// time: every call counts as a query, plus its retries and, for
    /// degraded calls, a timeout or failure. Clean
    /// calls that found no entry count as `no_match`. Match/reject
    /// resolution is recorded separately by the fan-out's policy pass, so
    /// per source `queries == matches + rejects + no_match + timeouts +
    /// failures`.
    pub fn record_source_outcome(&self, o: &SourceOutcome) {
        if !self.enabled() {
            return;
        }
        let Some(i) = source_index(o.source) else {
            return;
        };
        self.source_queries[i].inc();
        if o.retries > 0 {
            self.source_retries[i].add(u64::from(o.retries));
        }
        match o.kind {
            OutcomeKind::NoMatch => self.source_no_match[i].inc(),
            OutcomeKind::TimedOut => self.source_timeouts[i].inc(),
            OutcomeKind::Failed => self.source_failures[i].inc(),
            OutcomeKind::Matched(_) => {}
        }
    }

    /// Record one fan-out collection phase's wall-clock latency.
    pub fn record_fanout(&self, elapsed: Duration) {
        if !self.enabled() {
            return;
        }
        self.fanout_latency.record(elapsed);
    }

    /// Record a §5.1 domain-selection outcome.
    pub fn record_domain_outcome(&self, selected: bool, elapsed: Duration) {
        if !self.enabled() {
            return;
        }
        if selected {
            self.domain_selected.inc();
        } else {
            self.domain_none.inc();
        }
        self.domain_latency.record(elapsed);
    }

    /// Record an ML run: whether a verdict fired, and its latency.
    pub fn record_ml(&self, fired: bool, elapsed: Duration) {
        if !self.enabled() {
            return;
        }
        if fired {
            self.ml_fired.inc();
        } else {
            self.ml_abstained.inc();
        }
        self.ml_latency.record(elapsed);
    }

    /// Record a fired ML verdict overruled by ≥2 agreeing non-IT sources
    /// (§5.2).
    pub fn record_ml_override(&self) {
        if !self.enabled() {
            return;
        }
        self.ml_overridden.inc();
    }

    /// Record the source-matching phase latency.
    pub fn record_source_phase(&self, elapsed: Duration) {
        if !self.enabled() {
            return;
        }
        self.source_latency.record(elapsed);
    }

    /// Record one completed batch run.
    pub fn record_batch_run(&self, records: usize, workers: usize, wall: Duration) {
        if !self.enabled() {
            return;
        }
        self.batch_runs.inc();
        self.batch_records.add(records as u64);
        self.batch_workers.add(workers as u64);
        self.batch_wall.record(wall);
    }

    /// Record one batch worker's wall-clock.
    pub fn record_batch_worker(&self, wall: Duration) {
        if !self.enabled() {
            return;
        }
        self.batch_worker_wall.record(wall);
    }

    /// Record a batch run's scheduler activity: chunks claimed off the
    /// shared queue and how many of those were steals (claims beyond each
    /// worker's first).
    pub fn record_batch_chunks(&self, chunks: u64, steals: u64) {
        if !self.enabled() {
            return;
        }
        self.batch_chunks.add(chunks);
        self.batch_steals.add(steals);
    }

    /// Count for one stage.
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.stage[stage.index()].get()
    }

    /// All per-stage counts, in [`Stage::ALL`] order.
    pub fn stage_counts(&self) -> [(Stage, u64); Stage::ALL.len()] {
        std::array::from_fn(|i| (Stage::ALL[i], self.stage[i].get()))
    }

    /// Sum of every stage counter — equals the number of classifications
    /// recorded.
    pub fn stage_total(&self) -> u64 {
        self.stage.iter().map(|c| c.get()).sum()
    }

    /// Serializable snapshot of every metric. `cache` supplies current
    /// occupancy (a gauge, synced into `cache.entries` at snapshot time
    /// whether or not metrics are enabled, like the cache's own traffic
    /// counters beside it).
    pub fn snapshot(&self, cache: &OrgCache) -> RegistrySnapshot {
        self.cache_entries.store(cache.len() as u64);
        self.registry.snapshot()
    }

    /// Human-readable report: Table 8-style stage breakdown, per-source
    /// coverage, domain/ML/cache statistics, latency summaries.
    pub fn render_text(&self, cache: &OrgCache) -> String {
        let mut out = String::new();
        let total = self.stage_total();
        out.push_str("== pipeline stages (Table 8) ==\n");
        for (stage, n) in self.stage_counts() {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * n as f64 / total as f64
            };
            out.push_str(&format!("  {:<36} {:>8}  ({pct:5.1}%)\n", stage.label(), n));
        }
        out.push_str(&format!("  {:<36} {total:>8}\n", "total"));

        out.push_str("\n== sources (queries / matches / rejects / no-match) ==\n");
        for (i, id) in SourceId::ASDB_FIVE.iter().enumerate() {
            out.push_str(&format!(
                "  {:<12} {:>8} / {:>8} / {:>8} / {:>8}\n",
                id.to_string(),
                self.source_queries[i].get(),
                self.source_matches[i].get(),
                self.source_rejects[i].get(),
                self.source_no_match[i].get(),
            ));
        }

        out.push_str("\n== source transport (timeouts / failures / retries) ==\n");
        for (i, id) in SourceId::ASDB_FIVE.iter().enumerate() {
            out.push_str(&format!(
                "  {:<12} {:>8} / {:>8} / {:>8}\n",
                id.to_string(),
                self.source_timeouts[i].get(),
                self.source_failures[i].get(),
                self.source_retries[i].get(),
            ));
        }

        out.push_str("\n== domain selection (§5.1) ==\n");
        out.push_str(&format!(
            "  selected {}   none {}\n",
            self.domain_selected.get(),
            self.domain_none.get()
        ));

        out.push_str("\n== ml classifier (§5.2) ==\n");
        out.push_str(&format!(
            "  fired {}   abstained {}   overridden-by-consensus {}\n",
            self.ml_fired.get(),
            self.ml_abstained.get(),
            self.ml_overridden.get()
        ));

        let (hits, misses) = (self.cache_hits.get(), self.cache_misses.get());
        let hit_rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
        out.push_str("\n== org cache (§5.1) ==\n");
        out.push_str(&format!(
            "  entries {}   hits {hits}   misses {misses}   inserts {}   hit-rate {hit_rate:.1}%\n",
            cache.len(),
            self.cache_inserts.get(),
        ));

        out.push_str("\n== batch ==\n");
        out.push_str(&format!(
            "  runs {}   records {}   workers {}   chunks {}   steals {}\n",
            self.batch_runs.get(),
            self.batch_records.get(),
            self.batch_workers.get(),
            self.batch_chunks.get(),
            self.batch_steals.get()
        ));

        // The curated sections above already cover every counter; only the
        // latency histograms add information beyond them.
        out.push('\n');
        out.push_str(&self.snapshot(cache).render_latency_text());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counts_sum_to_total() {
        let m = PipelineMetrics::new();
        let cache = m.build_cache();
        let c = Classification {
            asn: asdb_model::Asn::new(1),
            categories: asdb_taxonomy::CategorySet::new(),
            stage: Stage::ZeroSources,
            sources: Vec::new(),
            chosen_domain: None,
            ml: None,
            match_labels: Vec::new(),
            degraded: Vec::new(),
        };
        m.record_classification(&c, Duration::from_micros(10));
        m.record_classification(&c, Duration::from_micros(20));
        assert_eq!(m.stage_count(Stage::ZeroSources), 2);
        assert_eq!(m.stage_total(), 2);
        let snap = m.snapshot(&cache);
        assert_eq!(snap.counter("pipeline.stage.zero_sources"), 2);
        assert_eq!(snap.histograms["pipeline.classify"].count, 2);
    }

    fn no_match(source: SourceId) -> SourceOutcome {
        SourceOutcome {
            source,
            kind: OutcomeKind::NoMatch,
            retries: 0,
        }
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let m = PipelineMetrics::new();
        let cache = m.build_cache();
        m.set_enabled(false);
        m.record_source_outcome(&no_match(SourceId::Dnb));
        m.record_ml(true, Duration::from_micros(1));
        m.record_batch_run(10, 2, Duration::from_millis(1));
        assert_eq!(m.stage_total(), 0);
        let snap = m.snapshot(&cache);
        assert!(snap.counters.values().all(|v| *v == 0));
        // The cache's own traffic counters and its occupancy gauge are not
        // switched off.
        let key = crate::cache::OrgKey::Name("acme".into());
        let _ = cache.get(&key);
        cache.put(
            key,
            crate::cache::CachedResult {
                categories: asdb_taxonomy::CategorySet::new(),
            },
        );
        let snap = m.snapshot(&cache);
        assert_eq!(snap.counter("cache.misses"), 1);
        assert_eq!(snap.counter("cache.inserts"), 1);
        assert_eq!(snap.counter("cache.hits"), 0);
        assert_eq!(snap.counter("cache.entries"), 1);
        m.set_enabled(true);
        m.record_source_outcome(&no_match(SourceId::Dnb));
        let snap = m.snapshot(&cache);
        assert_eq!(snap.counter("source.dnb.queries"), 1);
        assert_eq!(snap.counter("source.dnb.no_match"), 1);
        assert_eq!(snap.counter("cache.entries"), 1);
    }

    #[test]
    fn non_asdb_sources_are_ignored() {
        let m = PipelineMetrics::new();
        m.record_source_match(SourceId::Clearbit);
        m.record_source_reject(SourceId::Clearbit);
        m.record_source_outcome(&no_match(SourceId::ZoomInfo));
        m.record_source_outcome(&SourceOutcome {
            source: SourceId::Clearbit,
            kind: OutcomeKind::TimedOut,
            retries: 2,
        });
        let cache = m.build_cache();
        let snap = m.snapshot(&cache);
        assert!(snap.counters.values().all(|v| *v == 0));
    }

    #[test]
    fn batch_chunk_and_steal_counters() {
        let m = PipelineMetrics::new();
        let cache = m.build_cache();
        m.record_batch_chunks(12, 5);
        m.record_batch_chunks(4, 0);
        let snap = m.snapshot(&cache);
        assert_eq!(snap.counter("batch.chunks"), 16);
        assert_eq!(snap.counter("batch.steals"), 5);
    }

    #[test]
    fn render_includes_every_section() {
        let m = PipelineMetrics::new();
        let cache = m.build_cache();
        let text = m.render_text(&cache);
        for section in [
            "pipeline stages",
            "sources",
            "source transport",
            "domain selection",
            "ml classifier",
            "org cache",
            "batch",
            "== latency ==",
        ] {
            assert!(text.contains(section), "missing {section}:\n{text}");
        }
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        let m = PipelineMetrics::new();
        let cache = m.build_cache();
        assert!(m.render_text(&cache).contains("hit-rate 0.0%"));
        let key = crate::cache::OrgKey::Name("acme".into());
        let _ = cache.get(&key);
        let _ = cache.get(&key);
        cache.put(
            key.clone(),
            crate::cache::CachedResult {
                categories: asdb_taxonomy::CategorySet::new(),
            },
        );
        let _ = cache.get(&key);
        let text = m.render_text(&cache);
        assert!(
            text.contains("entries 1   hits 1   misses 2   inserts 1   hit-rate 33.3%"),
            "{text}"
        );
    }
}
