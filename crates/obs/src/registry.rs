//! Named-metric registry: get-or-create handles and a snapshot that
//! renders a latency table and JSON.

use crate::counter::Counter;
use crate::histogram::{format_nanos, Histogram, HistogramSnapshot};
use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A registry of named counters and histograms.
///
/// Handles are `Arc`s: instrumented code holds them directly (no lock or
/// name lookup on the hot path), and the registry retains its own clone so
/// the whole set can be snapshotted at any time. Names use a dotted
/// hierarchy (`pipeline.stage.cached`, `source.dnb.queries`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("registry lock").get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .expect("registry lock")
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .expect("registry lock")
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Serializable point-in-time view of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A serializable point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The snapshot as pretty-printed JSON: `{"counters": {name: n},
    /// "histograms": {name: {"count", "sum_nanos", "mean_nanos",
    /// "p50_nanos", "p90_nanos", "p99_nanos", "buckets": [{"le_nanos",
    /// "count"}]}}}`.
    pub fn to_json(&self) -> String {
        let histogram = |h: &HistogramSnapshot| {
            let buckets = h.buckets.iter().map(|b| {
                Value::Obj(vec![
                    ("le_nanos".into(), Value::Num(b.le_nanos)),
                    ("count".into(), Value::Num(b.count)),
                ])
            });
            Value::Obj(vec![
                ("count".into(), Value::Num(h.count)),
                ("sum_nanos".into(), Value::Num(h.sum_nanos)),
                ("mean_nanos".into(), Value::Num(h.mean_nanos)),
                ("p50_nanos".into(), Value::Num(h.p50_nanos)),
                ("p90_nanos".into(), Value::Num(h.p90_nanos)),
                ("p99_nanos".into(), Value::Num(h.p99_nanos)),
                ("buckets".into(), Value::Arr(buckets.collect())),
            ])
        };
        Value::Obj(vec![
            (
                "counters".into(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &n)| (k.clone(), Value::Num(n)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), histogram(h)))
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// A counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Just the histogram summaries, as a `== latency ==` table.
    pub fn render_latency_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== latency ==\n");
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  {:<42} n={:<8} mean={:<9} p50={:<9} p90={:<9} p99={}\n",
                name,
                h.count,
                format_nanos(h.mean_nanos),
                format_nanos(h.p50_nanos),
                format_nanos(h.p90_nanos),
                format_nanos(h.p99_nanos),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    /// The snapshot's JSON, byte for byte: every counter and histogram
    /// field by name, non-empty buckets only.
    #[test]
    fn snapshot_json_layout() {
        let r = Registry::new();
        r.counter("pipeline.total").add(7);
        r.counter("cache.hits");
        r.histogram("pipeline.latency").record_nanos(5_000);
        let snap = r.snapshot();
        assert_eq!(snap.counter("pipeline.total"), 7);
        assert_eq!(snap.counter("absent"), 0);
        let h = &snap.histograms["pipeline.latency"];
        assert_eq!((h.count, h.sum_nanos, h.buckets.len()), (1, 5_000, 1));
        let expected = format!(
            concat!(
                "{{\n",
                "  \"counters\": {{\n",
                "    \"cache.hits\": 0,\n",
                "    \"pipeline.total\": 7\n",
                "  }},\n",
                "  \"histograms\": {{\n",
                "    \"pipeline.latency\": {{\n",
                "      \"count\": 1,\n",
                "      \"sum_nanos\": 5000,\n",
                "      \"mean_nanos\": {},\n",
                "      \"p50_nanos\": {},\n",
                "      \"p90_nanos\": {},\n",
                "      \"p99_nanos\": {},\n",
                "      \"buckets\": [\n",
                "        {{\n",
                "          \"le_nanos\": {},\n",
                "          \"count\": 1\n",
                "        }}\n",
                "      ]\n",
                "    }}\n",
                "  }}\n",
                "}}",
            ),
            h.mean_nanos, h.p50_nanos, h.p90_nanos, h.p99_nanos, h.buckets[0].le_nanos,
        );
        assert_eq!(snap.to_json(), expected);
    }
}
