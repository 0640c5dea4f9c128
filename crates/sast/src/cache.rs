//! Content-hashed cross-app summary cache.
//!
//! Corpus apps are built from a shared API registry, so their call-site
//! subgraphs repeat: many share whole wrapper chains. The contextual
//! analysis keys each call site that has a first hop by a structural
//! fingerprint of its reachable contextual subgraph
//! ([`ContextIndex::site_fingerprint`]) and memoizes the resolved target
//! list here, so across a corpus each distinct subgraph is summarized
//! once. A direct call site reaches only its own API, so the engine
//! resolves it inline with one check, which costs less than a
//! fingerprint, a shard lock and a shared `Arc` would.
//!
//! The cached value is app-independent by construction: targets are
//! stored by symbol/file/line/cost (all of which the fingerprint
//! covers), and site-local facts — database membership, `bug_id` tags,
//! offload/async gates — are applied *outside* the cache. Sharing one
//! cache across threads can therefore never change report bytes; only
//! the hit/miss tallies depend on scheduling, and those live in a scan's
//! [`CacheStats`], never in a report.
//!
//! [`ContextIndex::site_fingerprint`]: crate::context::ContextIndex::site_fingerprint

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// One memoized reachable target (everything a finding needs that is
/// not site-local).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedTarget {
    /// Target API symbol.
    pub symbol: String,
    /// Source file of the target.
    pub file: String,
    /// Line in `file`.
    pub line: u32,
    /// Worst-case main-thread busy time of the target, ns.
    pub est_blocking_ns: u64,
    /// Contextual call-edge distance from the entry frame.
    pub depth: u32,
    /// k=1 context: symbol of the frame invoking the target on the
    /// minimal derivation (empty for a depth-0 direct call).
    pub context: String,
}

/// The memoized reachability of one fingerprint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CachedReach {
    /// Reachable targets, deterministic (symbol-sorted) order.
    pub targets: Vec<CachedTarget>,
    /// Whether a closed-source boundary truncated the subtree.
    pub truncated: bool,
}

/// Cache telemetry of a scan ([`CorpusScan::cache`](crate::CorpusScan::cache)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found a memoized summary.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Distinct fingerprints resident.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Number of independently locked shards. Fingerprints are uniformly
/// distributed (a word-mixing digest of the whole subgraph with a
/// splitmix finalizer), so a modest power of two spreads a scan's
/// lookups far enough that threads rarely collide.
const SHARDS: usize = 64;

/// A shareable (thread-safe) fingerprint → reachability memo table,
/// sharded by fingerprint so concurrent scanners contend per-shard
/// rather than on one global lock.
#[derive(Debug)]
pub struct SummaryCache {
    shards: Vec<Mutex<Inner>>,
}

impl Default for SummaryCache {
    fn default() -> SummaryCache {
        SummaryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Inner::default())).collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Arc<CachedReach>>,
    hits: u64,
    misses: u64,
}

impl SummaryCache {
    /// Creates an empty cache.
    pub fn new() -> SummaryCache {
        SummaryCache::default()
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Inner> {
        &self.shards[(fingerprint % SHARDS as u64) as usize]
    }

    /// Returns the memoized reachability for `fingerprint`, computing
    /// (and inserting) it with `compute` on a miss.
    ///
    /// The lock is *not* held across `compute`: two threads racing the
    /// same fingerprint may both compute, but the values are identical
    /// (the fingerprint covers every input), so the first insert simply
    /// wins and correctness is unaffected.
    pub fn lookup_or_insert(
        &self,
        fingerprint: u64,
        compute: impl FnOnce() -> CachedReach,
    ) -> Arc<CachedReach> {
        if let Some(found) = {
            let mut inner = self
                .shard(fingerprint)
                .lock()
                .expect("summary cache poisoned");
            let found = inner.map.get(&fingerprint).cloned();
            match &found {
                Some(_) => inner.hits += 1,
                None => inner.misses += 1,
            }
            found
        } {
            return found;
        }
        let value = Arc::new(compute());
        let mut inner = self
            .shard(fingerprint)
            .lock()
            .expect("summary cache poisoned");
        inner
            .map
            .entry(fingerprint)
            .or_insert_with(|| Arc::clone(&value))
            .clone()
    }

    /// Current cache telemetry, folded over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            let inner = shard.lock().expect("summary cache poisoned");
            stats.hits += inner.hits;
            stats.misses += inner.misses;
            stats.entries += inner.map.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reach(sym: &str) -> CachedReach {
        CachedReach {
            targets: vec![CachedTarget {
                symbol: sym.to_string(),
                file: "F.java".to_string(),
                line: 1,
                est_blocking_ns: 1,
                depth: 1,
                context: "w.W.f".to_string(),
            }],
            truncated: false,
        }
    }

    #[test]
    fn second_lookup_hits_and_skips_compute() {
        let cache = SummaryCache::new();
        let first = cache.lookup_or_insert(7, || reach("a.A.x"));
        let second = cache.lookup_or_insert(7, || panic!("must not recompute"));
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_fingerprints_do_not_collide() {
        let cache = SummaryCache::new();
        cache.lookup_or_insert(1, || reach("a.A.x"));
        let other = cache.lookup_or_insert(2, || reach("b.B.y"));
        assert_eq!(other.targets[0].symbol, "b.B.y");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(SummaryCache::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                (0..100u64)
                    .map(|fp| cache.lookup_or_insert(fp % 10, || reach("a.A.x")))
                    .all(|r| r.targets[0].symbol == "a.A.x")
            }));
        }
        for h in handles {
            assert!(h.join().unwrap());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 10);
        assert_eq!(stats.hits + stats.misses, 800);
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        assert_eq!(SummaryCache::new().stats().hit_rate(), 0.0);
    }
}
