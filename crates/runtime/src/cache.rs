//! Job-wide in-memory dataset cache with partition-stable placement —
//! the M3R direction (arXiv:1208.4168).
//!
//! A [`DatasetCache`] holds named datasets as immutable, Arc-shared
//! [`SegmentBuf`] partitions. A dataset written with `P` partitions is
//! handed back with the same `P` partitions in the same order, which is
//! what lets an iterative [`Plan`](crate::plan::Plan) re-run its body
//! with round-stable partitioning: a cached partition becomes a
//! zero-copy map split (no input decode), and when the consumer stage
//! runs the same partition count, the in-proc shuffle short-circuits
//! entirely (each cached partition routes to its own reducer).
//!
//! Memory comes from a private [`MemoryBudget`]: the cache never draws
//! on a governed pool. When a grant is denied,
//! least-recently-used datasets are spilled to the [`SpillStore`] (one
//! run per partition, so partition boundaries survive the round-trip)
//! and transparently reloaded on next use.
//!
//! Observability: the cache exports `onepass_cache_resident_bytes` /
//! `onepass_cache_hits_total` through the metrics registry and emits a
//! `mem_cache_evict` trace instant per evicted dataset.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use onepass_core::error::{Error, Result};
use onepass_core::io::{RunId, SharedMemStore, SpillStore};
use onepass_core::memory::MemoryBudget;
use onepass_core::obs::{names, Counter, Gauge, MetricsRegistry};
use onepass_core::trace::{Tracer, Track};
use onepass_core::SegmentBuf;

/// Batch size when reloading a spilled partition.
const RELOAD_BATCH_BYTES: usize = 4 << 20;

/// Knobs for a [`DatasetCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Resident-byte limit of the cache's private budget. Default 256 MiB.
    pub limit_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            limit_bytes: 256 << 20,
        }
    }
}

/// One partition of a cached dataset: resident, or spilled to a run.
enum PartState {
    Resident(SegmentBuf),
    Spilled { id: RunId, bytes: usize },
}

struct Dataset {
    parts: Vec<PartState>,
    /// Bytes currently charged against the budget (resident parts only).
    resident_bytes: usize,
    /// LRU stamp — larger is more recent.
    last_use: u64,
}

impl Dataset {
    /// Every partition, if all of them are resident.
    fn resident_parts(&self) -> Option<Vec<SegmentBuf>> {
        self.parts
            .iter()
            .map(|p| match p {
                PartState::Resident(seg) => Some(seg.clone()),
                PartState::Spilled { .. } => None,
            })
            .collect()
    }
}

#[derive(Default)]
struct Inner {
    datasets: HashMap<String, Dataset>,
    clock: u64,
    hits: u64,
    evictions: u64,
    reloads: u64,
}

/// Counters a cache reports about itself (see module docs for the
/// metrics-registry names).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dataset reads served (fully or partially) from memory.
    pub hits: u64,
    /// Datasets evicted (spilled) under memory pressure.
    pub evictions: u64,
    /// Spilled datasets reloaded into memory on access.
    pub reloads: u64,
    /// Bytes currently resident (charged against the budget).
    pub resident_bytes: usize,
}

/// A named-dataset cache with a private memory budget and evict-to-spill
/// under pressure. See the module docs.
pub struct DatasetCache {
    inner: Mutex<Inner>,
    budget: MemoryBudget,
    store: Arc<dyn SpillStore>,
    tracer: Tracer,
    resident_gauge: Gauge,
    hits_counter: Counter,
}

impl std::fmt::Debug for DatasetCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("DatasetCache")
            .field("stats", &stats)
            .field("limit", &self.budget.limit())
            .finish()
    }
}

impl DatasetCache {
    /// A cache with a private byte budget and an in-memory spill store.
    pub fn new(config: CacheConfig) -> Self {
        DatasetCache {
            inner: Mutex::new(Inner::default()),
            budget: MemoryBudget::new(config.limit_bytes),
            store: Arc::new(SharedMemStore::new()),
            tracer: Tracer::disabled(),
            resident_gauge: Gauge::detached(),
            hits_counter: Counter::detached(),
        }
    }

    /// The bookkeeping, locked to change it. A thread that panicked
    /// holding the lock (a spill store panicking mid-evict) may have left
    /// partition states and byte counts disagreeing, so a caller that
    /// would act on them gets an error instead.
    fn lock(&self) -> Result<MutexGuard<'_, Inner>> {
        self.inner.lock().map_err(|_| {
            Error::InvalidState("dataset cache poisoned by a panic while it was locked".into())
        })
    }

    /// The bookkeeping, locked to read it. A reader only reports what it
    /// finds, so after a panic it may report stale counts, and does.
    fn read(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Export cache gauges/counters through `metrics`.
    pub fn attach_metrics(&mut self, metrics: &MetricsRegistry) {
        self.resident_gauge = metrics.gauge(names::CACHE_RESIDENT_BYTES, &[]);
        self.hits_counter = metrics.counter(names::CACHE_HITS, &[]);
    }

    /// Record eviction instants (`mem_cache_evict`) on `tracer`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Store `partitions` under `name`, replacing any previous dataset.
    /// Partition count and order are preserved verbatim by [`get`]
    /// (partition-stable placement). Under memory pressure the dataset —
    /// or a colder one — is transparently spilled.
    ///
    /// [`get`]: DatasetCache::get
    pub fn put(&self, name: &str, partitions: Vec<SegmentBuf>) -> Result<()> {
        let mut inner = self.lock()?;
        self.remove_locked(&mut inner, name)?;
        let bytes: usize = partitions.iter().map(part_bytes).sum();
        let resident = self.charge_locked(&mut inner, bytes, Some(name));
        inner.clock += 1;
        let stamp = inner.clock;
        let parts = if resident {
            partitions.into_iter().map(PartState::Resident).collect()
        } else {
            // No headroom even after evicting everything colder: the new
            // dataset goes straight to the spill store.
            let mut parts = Vec::with_capacity(partitions.len());
            for seg in &partitions {
                parts.push(self.spill_partition(seg)?);
            }
            parts
        };
        inner.datasets.insert(
            name.to_string(),
            Dataset {
                parts,
                resident_bytes: if resident { bytes } else { 0 },
                last_use: stamp,
            },
        );
        self.publish_locked(&inner);
        Ok(())
    }

    /// Fetch dataset `name` as its original partitions, reloading
    /// spilled partitions from the store. Returns `None` if the name
    /// was never cached.
    pub fn get(&self, name: &str) -> Result<Option<Vec<SegmentBuf>>> {
        let mut inner = self.lock()?;
        inner.clock += 1;
        let stamp = inner.clock;
        let Some(ds) = inner.datasets.get_mut(name) else {
            return Ok(None);
        };
        ds.last_use = stamp;
        if let Some(out) = ds.resident_parts() {
            inner.hits += 1;
            self.hits_counter.inc(1);
            self.publish_locked(&inner);
            return Ok(Some(out));
        }

        // Reload spilled partitions. Try to re-admit the dataset as
        // resident (evicting colder ones if needed); if the budget still
        // refuses, hand the data back without keeping it resident.
        let spilled_bytes: usize = ds
            .parts
            .iter()
            .map(|p| match p {
                PartState::Resident(_) => 0,
                PartState::Spilled { bytes, .. } => *bytes,
            })
            .sum();
        let readmit = self.charge_locked(&mut inner, spilled_bytes, Some(name));
        // Charging evicts only datasets other than `name`.
        let Some(ds) = inner.datasets.get_mut(name) else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(ds.parts.len());
        for part in ds.parts.iter_mut() {
            match part {
                PartState::Resident(seg) => out.push(seg.clone()),
                PartState::Spilled { id, bytes } => {
                    let seg = self.reload_partition(*id)?;
                    out.push(seg.clone());
                    if readmit {
                        self.store.delete_run(*id)?;
                        ds.resident_bytes += *bytes;
                        *part = PartState::Resident(seg);
                    }
                }
            }
        }
        inner.reloads += 1;
        self.publish_locked(&inner);
        Ok(Some(out))
    }

    /// Whether `name` is cached (resident or spilled).
    pub fn contains(&self, name: &str) -> bool {
        self.read().datasets.contains_key(name)
    }

    /// Partition count of dataset `name`, if cached.
    pub fn partitions(&self, name: &str) -> Option<usize> {
        self.read().datasets.get(name).map(|d| d.parts.len())
    }

    /// Drop dataset `name`, releasing memory and spill runs.
    pub fn remove(&self, name: &str) -> Result<()> {
        let mut inner = self.lock()?;
        self.remove_locked(&mut inner, name)?;
        self.publish_locked(&inner);
        Ok(())
    }

    /// Spill every resident dataset (e.g. before handing the pool to a
    /// memory-hungry phase). Data stays readable through [`get`].
    ///
    /// [`get`]: DatasetCache::get
    pub fn evict_all(&self) -> Result<()> {
        let mut inner = self.lock()?;
        let names: Vec<String> = inner.datasets.keys().cloned().collect();
        for name in names {
            self.evict_locked(&mut inner, &name)?;
        }
        self.publish_locked(&inner);
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.read();
        CacheStats {
            hits: inner.hits,
            evictions: inner.evictions,
            reloads: inner.reloads,
            resident_bytes: inner.datasets.values().map(|d| d.resident_bytes).sum(),
        }
    }

    /// Order-independent fingerprint of dataset `name` (XOR-fold over
    /// partition fingerprints) — convergence checks compare rounds
    /// without materializing either side.
    pub fn fingerprint(&self, name: &str) -> Option<u64> {
        let inner = self.read();
        let ds = inner.datasets.get(name)?;
        let mut fp = 0u64;
        for (i, part) in ds.parts.iter().enumerate() {
            if let PartState::Resident(seg) = part {
                fp ^= seg.unordered_fingerprint(i as u32);
            } else {
                return None; // spilled: caller should `get` instead
            }
        }
        Some(fp)
    }

    /// Charge `bytes` against the budget, evicting LRU datasets other
    /// than `keep` until the grant lands. Returns whether it did; on
    /// `false` nothing stays charged.
    fn charge_locked(&self, inner: &mut Inner, bytes: usize, keep: Option<&str>) -> bool {
        if bytes == 0 {
            return true;
        }
        loop {
            if self.budget.try_grant(bytes) {
                return true;
            }
            // Grant denied: shed our coldest dataset and retry.
            let victim = self.coldest_resident(inner, keep);
            match victim {
                Some(name) => {
                    if self.evict_locked(inner, &name).is_err() {
                        return false;
                    }
                }
                None => return false,
            }
        }
    }

    fn coldest_resident(&self, inner: &Inner, keep: Option<&str>) -> Option<String> {
        inner
            .datasets
            .iter()
            .filter(|(name, ds)| ds.resident_bytes > 0 && Some(name.as_str()) != keep)
            .min_by_key(|(_, ds)| ds.last_use)
            .map(|(name, _)| name.clone())
    }

    /// Spill every resident partition of `name`, releasing its charge.
    fn evict_locked(&self, inner: &mut Inner, name: &str) -> Result<()> {
        let ds = match inner.datasets.get_mut(name) {
            Some(ds) if ds.resident_bytes > 0 => ds,
            _ => return Ok(()),
        };
        let mut freed = 0usize;
        for part in ds.parts.iter_mut() {
            if let PartState::Resident(seg) = part {
                let spilled = self.spill_partition(seg)?;
                freed += part_bytes(seg);
                *part = spilled;
            }
        }
        ds.resident_bytes = 0;
        self.budget.release(freed);
        inner.evictions += 1;
        let mut lt = self.tracer.local(Track::new("cache", 0));
        lt.instant("mem_cache_evict", "mem", &[("bytes", freed as f64)]);
        Ok(())
    }

    fn spill_partition(&self, seg: &SegmentBuf) -> Result<PartState> {
        let mut w = self.store.begin_run()?;
        w.write_segment(seg)?;
        let meta = w.finish()?;
        Ok(PartState::Spilled {
            id: meta.id,
            bytes: part_bytes(seg),
        })
    }

    fn reload_partition(&self, id: RunId) -> Result<SegmentBuf> {
        let mut r = self.store.open_run(id)?;
        let mut segs: Vec<SegmentBuf> = Vec::new();
        while let Some(batch) = r.read_batch(RELOAD_BATCH_BYTES)? {
            segs.push(batch);
        }
        match segs.len() {
            0 | 1 => Ok(segs.pop().unwrap_or_default()),
            _ => {
                // Re-concatenate multi-batch reads into one partition.
                let mut b = onepass_core::SegmentBufBuilder::new();
                for seg in &segs {
                    for (k, v) in seg.iter() {
                        b.push(k, v);
                    }
                }
                Ok(b.finish())
            }
        }
    }

    fn remove_locked(&self, inner: &mut Inner, name: &str) -> Result<()> {
        if let Some(ds) = inner.datasets.remove(name) {
            self.budget.release(ds.resident_bytes);
            for part in &ds.parts {
                if let PartState::Spilled { id, .. } = part {
                    self.store.delete_run(*id)?;
                }
            }
        }
        Ok(())
    }

    fn publish_locked(&self, inner: &Inner) {
        let resident: usize = inner.datasets.values().map(|d| d.resident_bytes).sum();
        self.resident_gauge.set(resident as f64);
    }
}

impl Drop for DatasetCache {
    fn drop(&mut self) {
        let inner = self.read();
        let resident: usize = inner.datasets.values().map(|d| d.resident_bytes).sum();
        self.budget.release(resident);
    }
}

fn part_bytes(seg: &SegmentBuf) -> usize {
    seg.payload_bytes() + seg.len() * std::mem::size_of::<onepass_core::bytes_kv::SegEntry>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onepass_core::obs::MetricsRegistry;

    fn seg(tag: u8, n: usize) -> SegmentBuf {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| (vec![tag, i as u8], vec![i as u8; 16]))
            .collect();
        SegmentBuf::from_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    #[test]
    fn put_get_roundtrip_preserves_partitions() {
        let cache = DatasetCache::new(CacheConfig::default());
        cache.put("ranks", vec![seg(1, 4), seg(2, 7)]).unwrap();
        let got = cache.get("ranks").unwrap().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].len(), 4);
        assert_eq!(got[1].len(), 7);
        assert_eq!(got[1].key(3), &[2, 3]);
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.get("absent").unwrap().is_none());
    }

    #[test]
    fn replace_updates_in_place() {
        let cache = DatasetCache::new(CacheConfig::default());
        cache.put("d", vec![seg(1, 2)]).unwrap();
        cache.put("d", vec![seg(9, 3), seg(8, 1)]).unwrap();
        let got = cache.get("d").unwrap().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].key(0), &[9, 0]);
    }

    #[test]
    fn pressure_evicts_lru_and_reloads_byte_identically() {
        // Budget fits roughly one dataset: the second put evicts the
        // first; a later get reloads it from spill, byte-identical.
        let big = seg(1, 200);
        let bytes = part_bytes(&big);
        let cache = DatasetCache::new(CacheConfig {
            limit_bytes: bytes + bytes / 2,
        });
        cache.put("a", vec![big.clone()]).unwrap();
        cache.put("b", vec![seg(2, 200)]).unwrap();
        assert!(cache.stats().evictions >= 1);

        let a = cache.get("a").unwrap().unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].len(), big.len());
        for i in 0..big.len() {
            assert_eq!(a[0].get(i), big.get(i));
        }
        assert!(cache.stats().reloads >= 1);
    }

    #[test]
    fn metrics_export_resident_bytes_and_hits() {
        let m = MetricsRegistry::new();
        let mut cache = DatasetCache::new(CacheConfig::default());
        cache.attach_metrics(&m);
        cache.put("d", vec![seg(1, 10)]).unwrap();
        let _ = cache.get("d").unwrap();
        let snap = m.snapshot();
        let resident = snap
            .metrics
            .iter()
            .find(|s| s.name == names::CACHE_RESIDENT_BYTES)
            .expect("gauge exported");
        assert!(matches!(resident.value, onepass_core::obs::SampleValue::Gauge(v) if v > 0.0));
        let hits = snap
            .metrics
            .iter()
            .find(|s| s.name == names::CACHE_HITS)
            .expect("counter exported");
        assert!(
            matches!(hits.value, onepass_core::obs::SampleValue::Counter(v) if v == 1),
            "unexpected hits sample"
        );
    }
}
