//! The organization cache.
//!
//! "ASdb checks if the owning organization has previously been classified
//! (e.g., because another AS belonging to the same organization was
//! previously classified), and, if so, ASdb returns the cached data"
//! (§5.1). Organizations are identified without ground truth: by their
//! selected domain when one exists, otherwise by the normalized WHOIS name.
//!
//! The map sits behind one `std::sync::RwLock`, held only for the probe
//! or the store, never while the pipeline runs. The cached batch gives
//! each organization to one worker, so its workers never race on an
//! entry. Concurrent `classify_cached` calls that miss on one
//! organization at once both run the pipeline; the second store
//! overwrites the first and is not counted as an insert.

use asdb_model::{Domain, OrgName};
use asdb_obs::Counter;
use asdb_taxonomy::CategorySet;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The cache key: how ASdb recognizes "the same organization" across ASes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OrgKey {
    /// Keyed by registrable domain (strongest identity signal).
    Domain(String),
    /// Keyed by normalized organization name.
    Name(String),
}

impl OrgKey {
    /// Derive a key from the available identity signals. `None` when the
    /// record has neither a domain nor a usable name.
    pub fn derive(domain: Option<&Domain>, name: &str) -> Option<OrgKey> {
        if let Some(d) = domain {
            return Some(OrgKey::Domain(d.registrable().as_str().to_owned()));
        }
        let normalized = OrgName::new(name).normalized();
        (!normalized.is_empty()).then_some(OrgKey::Name(normalized))
    }
}

/// A cached classification result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// The classification.
    pub categories: CategorySet,
}

/// Thread-safe organization cache.
///
/// Lookup/store traffic is counted on shared [`Counter`]s so reuse across
/// same-org ASes (§5.1) is observable; a metrics registry supplies them
/// via [`OrgCache::with_counters`].
#[derive(Debug)]
pub struct OrgCache {
    map: RwLock<HashMap<OrgKey, CachedResult>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    inserts: Arc<Counter>,
}

impl OrgCache {
    /// Empty cache whose traffic counters are shared with a metrics
    /// registry.
    pub fn with_counters(
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        inserts: Arc<Counter>,
    ) -> OrgCache {
        OrgCache {
            map: RwLock::new(HashMap::new()),
            hits,
            misses,
            inserts,
        }
    }

    /// Look up a key, counting a hit or a miss.
    pub fn get(&self, key: &OrgKey) -> Option<CachedResult> {
        let hit = self.map.read().expect("cache lock").get(key).cloned();
        match &hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// Store a result, overwriting any entry for the key. Only a store
    /// that creates the entry counts as an insert, so `inserts` stays the
    /// number of organizations classified even when two concurrent
    /// `classify_cached` calls race on one.
    pub fn put(&self, key: OrgKey, result: CachedResult) {
        let created = self
            .map
            .write()
            .expect("cache lock")
            .insert(key, result)
            .is_none();
        if created {
            self.inserts.inc();
        }
    }

    /// Invalidate a key (ownership metadata changed, §5.3). No caller
    /// invalidates while a classification of the same organization is
    /// running: `Maintainer::process_day` takes `&mut self` and works on
    /// one thread.
    pub fn invalidate(&self, key: &OrgKey) -> bool {
        self.map.write().expect("cache lock").remove(key).is_some()
    }

    /// Number of cached organizations.
    pub fn len(&self) -> usize {
        self.map.read().expect("cache lock").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (statistics counters are preserved).
    pub fn clear(&self) {
        self.map.write().expect("cache lock").clear();
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Stores that created an entry.
    pub fn inserts(&self) -> u64 {
        self.inserts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_taxonomy::naicslite::known;
    use asdb_taxonomy::Category;

    fn new_cache() -> OrgCache {
        crate::PipelineMetrics::new().build_cache()
    }

    fn result(categories: CategorySet) -> CachedResult {
        CachedResult { categories }
    }

    fn isp() -> CategorySet {
        CategorySet::single(Category::l2(known::isp()))
    }

    #[test]
    fn key_prefers_domain() {
        let d = Domain::new("www.acme.com").unwrap();
        let k = OrgKey::derive(Some(&d), "Acme Inc").unwrap();
        assert_eq!(k, OrgKey::Domain("acme.com".into()));
        let k = OrgKey::derive(None, "Acme Inc").unwrap();
        assert_eq!(k, OrgKey::Name("acme".into()));
        assert!(OrgKey::derive(None, "  ").is_none());
    }

    #[test]
    fn name_key_survives_variants() {
        // Same org, different legal-suffix spellings → same key.
        let a = OrgKey::derive(None, "Nortel Ridge Telecom LLC").unwrap();
        let b = OrgKey::derive(None, "Nortel Ridge Telecom").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn put_get_invalidate() {
        let cache = new_cache();
        let key = OrgKey::Name("acme".into());
        assert!(cache.get(&key).is_none());
        cache.put(key.clone(), result(isp()));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key).is_some());
        assert!(cache.invalidate(&key));
        assert!(!cache.invalidate(&key));
        assert!(cache.is_empty());
    }

    #[test]
    fn stats_track_hits_misses_inserts() {
        let cache = new_cache();
        let key = OrgKey::Name("acme".into());
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.put(key.clone(), result(isp()));
        assert!(cache.get(&key).is_some());
        assert!(cache.get(&key).is_some());
        assert_eq!((cache.hits(), cache.misses(), cache.inserts()), (2, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shared_counters_observe_traffic() {
        use asdb_obs::Counter;
        let hits = Arc::new(Counter::new());
        let misses = Arc::new(Counter::new());
        let inserts = Arc::new(Counter::new());
        let cache =
            OrgCache::with_counters(Arc::clone(&hits), Arc::clone(&misses), Arc::clone(&inserts));
        let key = OrgKey::Name("acme".into());
        let _ = cache.get(&key);
        cache.put(key.clone(), result(CategorySet::new()));
        let _ = cache.get(&key);
        assert_eq!(hits.get(), 1);
        assert_eq!(misses.get(), 1);
        assert_eq!(inserts.get(), 1);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let cache = Arc::new(new_cache());
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let key = OrgKey::Name(format!("org-{t}-{i}"));
                    c.put(key.clone(), result(CategorySet::new()));
                    assert!(c.get(&key).is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 800);
    }

    #[test]
    fn put_counts_an_insert_only_when_it_creates_the_entry() {
        let cache = new_cache();
        let key = OrgKey::Name("acme".into());
        cache.put(key.clone(), result(CategorySet::new()));
        cache.put(key.clone(), result(isp()));
        assert_eq!((cache.inserts(), cache.len()), (1, 1));
        // The second store still overwrites.
        assert_eq!(cache.get(&key).unwrap(), result(isp()));
        assert!(cache.invalidate(&key));
        cache.put(key.clone(), result(CategorySet::new()));
        assert_eq!((cache.inserts(), cache.len()), (2, 1));
    }
}
