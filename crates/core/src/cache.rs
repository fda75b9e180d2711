//! The engine's inter-query caches: the epoch-invalidated **result
//! cache**, the cross-session **plan cache**, and the generic
//! [`EpochCache`] behind the **reweighting cache** (SEMI-OPEN weights)
//! and the **model cache** (fitted OPEN generative models).
//!
//! All of them lean on [per-relation catalog epochs](crate::Catalog::relation_epoch):
//! an entry records the epoch of every relation it was derived from and
//! is valid iff every one of them is unchanged. Any DDL/DML/`CREATE
//! SAMPLE`/metadata write against one of those relations bumps its epoch
//! under the catalog write lock, so validity checks done under the read
//! lock can never observe a torn state. The result and plan caches
//! additionally key on the [plan fingerprint](crate::plan::fingerprint),
//! which identifies *what* a query computes; the epoch caches key on the
//! population plus the configuration that shapes the derived value.
//!
//! Because the engine's determinism contract makes results bit-identical
//! at every thread count × partition count × optimizer setting, a valid
//! cached result **is** the result — caching is pure latency, with no
//! correctness ambiguity to manage.
//!
//! The result cache is bounded by bytes and evicts least-recently-used
//! entries; the plan cache is bounded by entry count; an epoch cache
//! holds one entry per key and drops stale entries whenever it inserts.
//! All are engine-wide (shared by every session and wire connection) and
//! guarded by their own mutexes, held only for map operations — never
//! during execution, reweighting or model training.

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_sql::Visibility;
use parking_lot::Mutex;

use crate::engine::QueryResult;

/// Maximum entries the plan cache retains (LRU beyond this).
const PLAN_CACHE_ENTRIES: usize = 512;

/// A point-in-time snapshot of the engine's cache counters, as rendered
/// by the CLI's `.cache stats` and served over the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Configured result-cache capacity in bytes (0 = off).
    pub capacity_bytes: usize,
    /// Live result entries.
    pub entries: usize,
    /// Approximate bytes held by live result entries.
    pub bytes: usize,
    /// Result-cache hits (valid entry returned).
    pub hits: u64,
    /// Result-cache misses (no entry, or entry invalidated).
    pub misses: u64,
    /// Results inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU byte budget.
    pub evictions: u64,
    /// Entries dropped because a relation epoch moved.
    pub invalidations: u64,
    /// Plan-cache hits (parse/bind/optimize skipped).
    pub plan_hits: u64,
    /// Plan-cache misses (fresh bind, including epoch-stale rebinds).
    pub plan_misses: u64,
}

struct ResultEntry {
    result: QueryResult,
    /// `(relation, epoch)` at insert time, for every relation the plan
    /// reads. Valid iff all still match.
    epochs: Vec<(String, u64)>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct ResultCacheInner {
    map: HashMap<u64, ResultEntry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

/// The engine-wide result cache: fingerprint → result, LRU by bytes.
#[derive(Default)]
pub(crate) struct ResultCache {
    inner: Mutex<ResultCacheInner>,
}

impl ResultCache {
    /// Look up a fingerprint. `epoch_of` must read the *current*
    /// per-relation epochs (callers pass a closure over the catalog
    /// read guard they already hold, so the check and the alternative
    /// execution see the same catalog state). A present-but-stale entry
    /// is removed and counted as an invalidation plus a miss.
    pub fn get(&self, fp: u64, epoch_of: impl Fn(&str) -> u64) -> Option<QueryResult> {
        let mut inner = self.inner.lock();
        match inner.map.get(&fp) {
            None => {
                inner.misses += 1;
                None
            }
            Some(e) if e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.hits += 1;
                let e = inner.map.get_mut(&fp).expect("checked above");
                e.last_used = tick;
                Some(e.result.clone())
            }
            Some(_) => {
                let e = inner.map.remove(&fp).expect("checked above");
                inner.bytes -= e.bytes;
                inner.invalidations += 1;
                inner.misses += 1;
                None
            }
        }
    }

    /// Non-mutating probe (no counters, no LRU touch) — `EXPLAIN`'s
    /// "cached: yes/no" line.
    pub fn peek(&self, fp: u64, epoch_of: impl Fn(&str) -> u64) -> bool {
        let inner = self.inner.lock();
        inner
            .map
            .get(&fp)
            .is_some_and(|e| e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep))
    }

    /// Insert a result under the current epoch snapshot, then evict
    /// least-recently-used entries until the byte budget holds. Results
    /// larger than the whole budget are not admitted. Tables share
    /// their columns behind `Arc`s, so the stored clone (and every hit
    /// returned later) is O(1).
    pub fn insert(
        &self,
        fp: u64,
        result: &QueryResult,
        epochs: Vec<(String, u64)>,
        capacity_bytes: usize,
    ) {
        let bytes = result.table.approx_bytes()
            + result.notes.iter().map(String::len).sum::<usize>()
            + epochs.iter().map(|(r, _)| r.len() + 8).sum::<usize>()
            + 64;
        if bytes > capacity_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&fp) {
            // A concurrent miss already inserted the (identical) result.
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            fp,
            ResultEntry {
                result: result.clone(),
                epochs,
                bytes,
                last_used: tick,
            },
        );
        inner.bytes += bytes;
        inner.insertions += 1;
        while inner.bytes > capacity_bytes {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let e = inner.map.remove(&victim).expect("picked from map");
            inner.bytes -= e.bytes;
            inner.evictions += 1;
        }
    }

    /// Drop every entry (counters are kept — they are cumulative).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.bytes = 0;
    }

    /// Fill the result-cache half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let inner = self.inner.lock();
        out.entries = inner.map.len();
        out.bytes = inner.bytes;
        out.hits = inner.hits;
        out.misses = inner.misses;
        out.insertions = inner.insertions;
        out.evictions = inner.evictions;
        out.invalidations = inner.invalidations;
    }
}

/// Plan-cache key: the verbatim SQL text plus the two option knobs that
/// participate in binding. (Visibility is baked into the bound
/// statement at bind time; the optimizer setting changes the plan the
/// bind produces.)
#[derive(PartialEq, Eq, Hash)]
struct PlanKey {
    sql: String,
    visibility: u8,
    optimizer: bool,
}

impl PlanKey {
    fn new(sql: &str, visibility: Visibility, optimizer: bool) -> PlanKey {
        PlanKey {
            sql: sql.trim().to_string(),
            visibility: match visibility {
                Visibility::Closed => 0,
                Visibility::SemiOpen => 1,
                Visibility::Open => 2,
            },
            optimizer,
        }
    }
}

struct PlanEntry {
    prepared: std::sync::Arc<crate::session::Prepared>,
    epochs: Vec<(String, u64)>,
    last_used: u64,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<PlanKey, PlanEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// The engine-wide prepared-plan cache for ad-hoc SQL: (SQL text,
/// default visibility, optimizer) → bound-and-optimized plan, valid
/// while the source relations' epochs are unchanged. This is what lets
/// hot `Query` frames over the wire skip parse/bind/optimize entirely.
#[derive(Default)]
pub(crate) struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

impl PlanCache {
    /// Look up a bound plan for `sql` under the given binding knobs.
    /// Stale entries (any source-relation epoch moved) are dropped so
    /// the caller rebinds against the current catalog.
    pub fn get(
        &self,
        sql: &str,
        visibility: Visibility,
        optimizer: bool,
        epoch_of: impl Fn(&str) -> u64,
    ) -> Option<std::sync::Arc<crate::session::Prepared>> {
        let key = PlanKey::new(sql, visibility, optimizer);
        let mut inner = self.inner.lock();
        match inner.map.get(&key) {
            Some(e) if e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep) => {
                inner.tick += 1;
                let tick = inner.tick;
                inner.hits += 1;
                let e = inner.map.get_mut(&key).expect("checked above");
                e.last_used = tick;
                Some(std::sync::Arc::clone(&e.prepared))
            }
            Some(_) => {
                inner.map.remove(&key);
                inner.misses += 1;
                None
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Store a freshly bound plan under the current epoch snapshot.
    pub fn insert(
        &self,
        sql: &str,
        visibility: Visibility,
        optimizer: bool,
        prepared: std::sync::Arc<crate::session::Prepared>,
        epochs: Vec<(String, u64)>,
    ) {
        let key = PlanKey::new(sql, visibility, optimizer);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            PlanEntry {
                prepared,
                epochs,
                last_used: tick,
            },
        );
        while inner.map.len() > PLAN_CACHE_ENTRIES {
            let Some((victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let victim = PlanKey {
                sql: victim.sql.clone(),
                visibility: victim.visibility,
                optimizer: victim.optimizer,
            };
            inner.map.remove(&victim);
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }

    /// Fill the plan-cache half of a [`CacheStats`].
    pub fn stats_into(&self, out: &mut CacheStats) {
        let inner = self.inner.lock();
        out.plan_hits = inner.hits;
        out.plan_misses = inner.misses;
    }
}

struct EpochEntry<V: ?Sized> {
    value: Arc<V>,
    /// `(relation, epoch)` of every relation the value was derived from.
    epochs: Vec<(String, u64)>,
}

/// An engine-wide map from a string key to a shared value derived from
/// catalog state, valid while the epochs of the relations it was derived
/// from are unchanged. The engine keeps two: SEMI-OPEN reweightings and
/// fitted OPEN models. Values are computed outside the lock; concurrent
/// misses on one key both compute (the determinism contract makes their
/// values identical) and the first insert wins.
pub(crate) struct EpochCache<V: ?Sized> {
    map: Mutex<HashMap<String, EpochEntry<V>>>,
}

impl<V: ?Sized> Default for EpochCache<V> {
    fn default() -> Self {
        EpochCache {
            map: Mutex::new(HashMap::new()),
        }
    }
}

impl<V: ?Sized> EpochCache<V> {
    /// The value under `key` if one is cached and still valid, else the
    /// output of `compute`, stored under `epochs` — the snapshot of the
    /// relations it reads, taken under the same catalog read guard
    /// `epoch_of` reads. Inserting drops every stale entry. The flag is
    /// `true` on a hit.
    pub fn get_or_try_insert<E>(
        &self,
        key: &str,
        epochs: Vec<(String, u64)>,
        epoch_of: impl Fn(&str) -> u64,
        compute: impl FnOnce() -> Result<Arc<V>, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let valid = |e: &EpochEntry<V>| e.epochs.iter().all(|(r, ep)| epoch_of(r) == *ep);
        if let Some(e) = self.map.lock().get(key).filter(|e| valid(e)) {
            return Ok((Arc::clone(&e.value), true));
        }
        let value = compute()?;
        let mut map = self.map.lock();
        map.retain(|_, e| valid(e));
        let entry = map
            .entry(key.to_string())
            .or_insert(EpochEntry { value, epochs });
        Ok((Arc::clone(&entry.value), false))
    }
}

/// Parse the `MOSAIC_RESULT_CACHE` environment variable: `off` (or `0`)
/// disables the result cache, a number is the capacity in megabytes.
/// Unset or unparsable falls back to the 64 MB default.
pub fn default_result_cache_mb() -> usize {
    match std::env::var("MOSAIC_RESULT_CACHE") {
        Ok(v) if v.eq_ignore_ascii_case("off") => 0,
        Ok(v) => v.trim().parse().unwrap_or(64),
        Err(_) => 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{Column, DataType, Field, Schema, Table};

    fn result_rows(n: usize) -> QueryResult {
        QueryResult {
            table: Table::new(
                Schema::new(vec![Field::new("x", DataType::Int)]),
                vec![Column::from_i64((0..n as i64).collect())],
            )
            .unwrap(),
            visibility: None,
            notes: Vec::new(),
        }
    }

    #[test]
    fn hit_miss_and_epoch_invalidation() {
        let cache = ResultCache::default();
        let epochs = vec![("t".to_string(), 3)];
        assert!(cache.get(1, |_| 3).is_none());
        cache.insert(1, &result_rows(4), epochs, 1 << 20);
        assert_eq!(cache.get(1, |_| 3).unwrap().table.num_rows(), 4);
        // The relation moved: the entry must die, not serve stale rows.
        assert!(cache.get(1, |_| 4).is_none());
        assert!(cache.get(1, |_| 3).is_none(), "invalidation is permanent");
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.hits, s.invalidations), (1, 1));
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let cache = ResultCache::default();
        let one = result_rows(64); // ~512 payload bytes + overhead
        let budget = 3 * (one.table.approx_bytes() + 64 + 9);
        for fp in 0..3u64 {
            cache.insert(fp, &one, vec![("t".into(), 1)], budget);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.get(0, |_| 1).is_some());
        cache.insert(3, &one, vec![("t".into(), 1)], budget);
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert!(s.bytes <= budget, "{} > {budget}", s.bytes);
        assert_eq!(s.evictions, 1);
        assert!(cache.get(1, |_| 1).is_none(), "LRU entry evicted");
        assert!(cache.get(0, |_| 1).is_some());
        assert!(cache.get(3, |_| 1).is_some());
    }

    #[test]
    fn oversized_results_are_not_admitted() {
        let cache = ResultCache::default();
        cache.insert(9, &result_rows(1000), vec![], 16);
        let mut s = CacheStats::default();
        cache.stats_into(&mut s);
        assert_eq!((s.entries, s.insertions), (0, 0));
    }

    #[test]
    fn epoch_cache_hits_until_a_source_epoch_moves() {
        let cache: EpochCache<u32> = EpochCache::default();
        let compute = |v: u32| move || Ok::<_, ()>(Arc::new(v));
        let snap = |ep: u64| vec![("p".to_string(), ep)];
        let (v, hit) = cache
            .get_or_try_insert("k", snap(1), |_| 1, compute(7))
            .unwrap();
        assert_eq!((*v, hit), (7, false));
        let (v, hit) = cache
            .get_or_try_insert("k", snap(1), |_| 1, compute(8))
            .unwrap();
        assert_eq!((*v, hit), (7, true), "a valid entry is served");
        let (v, hit) = cache
            .get_or_try_insert("k", snap(2), |_| 2, compute(9))
            .unwrap();
        assert_eq!((*v, hit), (9, false), "a moved epoch recomputes");
    }

    #[test]
    fn epoch_cache_drops_stale_entries_on_insert_and_skips_failures() {
        let cache: EpochCache<u32> = EpochCache::default();
        let at = |r: &str, ep: u64| vec![(r.to_string(), ep)];
        let ok = |v: u32| move || Ok::<_, ()>(Arc::new(v));
        cache
            .get_or_try_insert("a", at("x", 1), |_| 1, ok(1))
            .unwrap();
        cache
            .get_or_try_insert("b", at("y", 1), |_| 1, ok(2))
            .unwrap();
        // `x` moved: inserting `c` evicts `a`, keeps the still-valid `b`.
        let epoch_of = |r: &str| if r == "x" { 2 } else { 1 };
        cache
            .get_or_try_insert("c", at("y", 1), epoch_of, ok(3))
            .unwrap();
        assert_eq!(cache.map.lock().len(), 2);
        assert!(!cache.map.lock().contains_key("a"));
        let failed = cache.get_or_try_insert("d", at("y", 1), epoch_of, || Err::<Arc<u32>, _>(()));
        assert!(failed.is_err());
        assert!(!cache.map.lock().contains_key("d"), "errors are not cached");
    }

    #[test]
    fn env_knob_parses() {
        // Not set in the test environment by default.
        assert!(matches!(default_result_cache_mb(), 0 | 64 | 1..));
    }
}
