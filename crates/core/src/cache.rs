//! Verdict memoization for the learned-oracle fast path.
//!
//! Every boundary crossing in hybrid mode pays a full per-packet LSTM
//! forward pass, yet packets that are near-identical in feature space
//! (same endpoints, same path, similar timing, same congestion regime)
//! keep receiving near-identical verdicts. The [`VerdictCache`] exploits
//! that: the §4.2 feature vector plus direction and macro-regime index is
//! quantized into a compact fixed-width key, and the [`RawVerdict`] served
//! for one key is replayed for every later packet that lands in the same
//! bucket — skipping feature-to-verdict inference entirely.
//!
//! Two rules keep the shortcut honest:
//!
//! 1. **The key carries the regime, and transitions invalidate.** The
//!    macro state index is part of the key *and* any observed macro-state
//!    transition flushes the whole cache, so a regime change is never
//!    served a verdict learned under the previous regime — even verdicts
//!    whose bucket happens to collide across regimes die at the boundary.
//! 2. **The cache sits *under* [`elephant_net::GuardedOracle`].** Hits are
//!    raw verdicts and flow through the same guard validation as fresh
//!    inference, so a cached-but-malformed prediction still trips the
//!    guard on every serve.
//!
//! The LRU index is a slab of doubly-linked slots holding exactly the
//! live entries, beside a map that grows with use: a cache costs what it
//! holds, and a flush costs what it drops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use elephant_net::{Direction, RawVerdict};
use serde::{Deserialize, Serialize};

use crate::features::FEATURE_DIM;

/// Width of a [`VerdictKey`]: one quantized byte per feature, plus the
/// direction and the macro-regime index.
pub const KEY_BYTES: usize = FEATURE_DIM + 2;

/// Bucket reserved for NaN feature values. Real buckets never reach it:
/// quantization levels are capped one below.
pub const NAN_BUCKET: u8 = u8::MAX;

/// Serializable quantizer parameters, embedded in
/// [`crate::learned::ModelMeta`] so a model artifact pins the bucketing
/// its cache keys were validated under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantizerConfig {
    /// Buckets per feature dimension over the nominal `[0, 1)` range.
    /// `0` (what a legacy artifact without the field deserializes to)
    /// means "use [`DEFAULT_LEVELS`]"; live values are clamped to
    /// `[1, 254]` so [`NAN_BUCKET`] stays unreachable.
    #[serde(default)]
    pub levels: u8,
}

/// Bucket count used when [`QuantizerConfig::levels`] is unset.
pub const DEFAULT_LEVELS: u8 = 16;

impl QuantizerConfig {
    /// The bucket count after default substitution and clamping.
    pub fn effective_levels(&self) -> u8 {
        if self.levels == 0 {
            DEFAULT_LEVELS
        } else {
            self.levels.min(NAN_BUCKET - 1)
        }
    }
}

impl Default for QuantizerConfig {
    fn default() -> Self {
        QuantizerConfig {
            levels: DEFAULT_LEVELS,
        }
    }
}

/// Maps feature vectors to fixed-width cache keys. Total (NaN gets its own
/// bucket, infinities saturate) and monotone in every dimension.
#[derive(Clone, Copy, Debug)]
pub struct FeatureQuantizer {
    levels: f32,
    top: u8,
}

impl FeatureQuantizer {
    /// Builds a quantizer from its serialized configuration.
    pub fn new(cfg: QuantizerConfig) -> Self {
        let levels = cfg.effective_levels();
        FeatureQuantizer {
            levels: levels as f32,
            top: levels - 1,
        }
    }

    /// The bucket for one feature value: `floor(v * levels)` clamped to
    /// `[0, levels-1]`; NaN maps to [`NAN_BUCKET`].
    pub fn bucket(&self, v: f32) -> u8 {
        if v.is_nan() {
            return NAN_BUCKET;
        }
        let scaled = (v * self.levels).floor();
        if scaled <= 0.0 {
            0
        } else if scaled >= self.top as f32 {
            self.top
        } else {
            scaled as u8
        }
    }

    /// The cache key for one boundary crossing. `features` beyond
    /// [`FEATURE_DIM`] are ignored; missing trailing dimensions quantize
    /// as zero.
    pub fn key(&self, features: &[f32], direction: Direction, state_idx: u8) -> VerdictKey {
        let mut bytes = [0u8; KEY_BYTES];
        for (b, &v) in bytes.iter_mut().zip(features.iter()) {
            *b = self.bucket(v);
        }
        bytes[FEATURE_DIM] = match direction {
            Direction::Up => 0,
            Direction::Down => 1,
        };
        bytes[FEATURE_DIM + 1] = state_idx;
        VerdictKey(bytes)
    }
}

/// A quantized (features, direction, macro regime) triple — the memo key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VerdictKey([u8; KEY_BYTES]);

impl VerdictKey {
    /// The raw key bytes (feature buckets, then direction, then regime).
    pub fn bytes(&self) -> &[u8; KEY_BYTES] {
        &self.0
    }
}

#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

/// Point-in-time copy of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to inference.
    pub misses: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Whole-cache flushes on macro-state transitions.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// The caches of one run, summed: one for a sequential run, one per
/// partition under PDES.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheTotals {
    /// Counters summed over the caches.
    pub total: CacheStats,
    /// How many caches were summed.
    pub caches: usize,
}

impl CacheTotals {
    /// Sums the current counters behind `handles`; `None` when there are
    /// no caches.
    pub fn of(handles: &[CacheStatsHandle]) -> Option<CacheTotals> {
        let mut total = CacheStats::default();
        for s in handles.iter().map(CacheStatsHandle::snapshot) {
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.invalidations += s.invalidations;
        }
        (!handles.is_empty()).then_some(CacheTotals {
            total,
            caches: handles.len(),
        })
    }
}

impl std::fmt::Display for CacheTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} lookups", self.total.lookups())?;
        if self.caches > 1 {
            write!(f, " across {} partitions", self.caches)?;
        }
        write!(
            f,
            ", {:.1}% hit rate ({} evictions, {} invalidations)",
            self.total.hit_rate() * 100.0,
            self.total.evictions,
            self.total.invalidations
        )
    }
}

/// Cloneable, lock-free view of one oracle's cache counters (shared across
/// that oracle's per-cluster caches). Obtain it with
/// [`crate::learned::LearnedOracle::cache_stats_handle`] *before* boxing
/// the oracle into the network, mirroring
/// [`elephant_net::GuardStatsHandle`].
#[derive(Clone, Default)]
pub struct CacheStatsHandle(Arc<CacheCounters>);

impl CacheStatsHandle {
    /// A fresh handle with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current counter values.
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.0.hits.load(Ordering::Relaxed),
            misses: self.0.misses.load(Ordering::Relaxed),
            evictions: self.0.evictions.load(Ordering::Relaxed),
            invalidations: self.0.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Sentinel for "no slot" in the intrusive LRU links.
const NIL: u32 = u32::MAX;

#[derive(Clone)]
struct Slot {
    key: VerdictKey,
    verdict: RawVerdict,
    prev: u32,
    next: u32,
}

/// Bounded LRU memo from [`VerdictKey`] to the [`RawVerdict`] last served
/// for that bucket. Recency links live in a slab of exactly the live
/// entries; at `cap` an insert reuses the LRU tail's slot, so memory
/// follows the most entries held at once, never `cap`.
///
/// Cloning (for checkpoint/restore) deep-copies the map and slab, so a
/// restored run replays the same hit/miss sequence as an uninterrupted
/// one; the stats handle is shared with the original — cache counters are
/// monotonic observability, outside checkpoint scope.
#[derive(Clone)]
pub struct VerdictCache {
    cap: usize,
    map: HashMap<VerdictKey, u32>,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    stats: CacheStatsHandle,
}

impl VerdictCache {
    /// An empty cache bounded at `cap` entries (minimum 1), reporting into
    /// `stats`.
    pub fn new(cap: usize, stats: CacheStatsHandle) -> Self {
        let cap = cap.max(1).min(NIL as usize - 1);
        VerdictCache {
            cap,
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            stats,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &VerdictKey) -> Option<RawVerdict> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.stats.0.hits.fetch_add(1, Ordering::Relaxed);
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                Some(self.slots[idx as usize].verdict)
            }
            None => {
                self.stats.0.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes `verdict` under `key`, evicting the least-recently-used
    /// entry at capacity. Returns `true` when an eviction happened.
    pub fn insert(&mut self, key: VerdictKey, verdict: RawVerdict) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx as usize].verdict = verdict;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return false;
        }
        let evicted = self.map.len() >= self.cap;
        let idx = if evicted {
            // Reuse the LRU slot in place.
            let idx = self.tail;
            debug_assert_ne!(idx, NIL);
            self.unlink(idx);
            let old_key = self.slots[idx as usize].key;
            self.map.remove(&old_key);
            let s = &mut self.slots[idx as usize];
            s.key = key;
            s.verdict = verdict;
            self.stats.0.evictions.fetch_add(1, Ordering::Relaxed);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                verdict,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    /// Flushes every entry (macro-state transition). Removes the live keys
    /// one by one (`HashMap::clear` would wipe the whole table) and keeps
    /// both allocations, so refilling allocates nothing.
    pub fn invalidate(&mut self) {
        self.stats.0.invalidations.fetch_add(1, Ordering::Relaxed);
        for s in self.slots.drain(..) {
            self.map.remove(&s.key);
        }
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(levels: u8) -> FeatureQuantizer {
        FeatureQuantizer::new(QuantizerConfig { levels })
    }

    fn deliver(s: f64) -> RawVerdict {
        RawVerdict::Deliver { latency_secs: s }
    }

    /// Panics unless the slab holds exactly the live entries, the recency
    /// chain from `head` visits every slot once and ends at `tail`, and
    /// every map index names a slot holding its key.
    fn check_invariants(c: &VerdictCache) {
        assert_eq!(c.slots.len(), c.map.len(), "slab holds the live entries");
        assert!(c.map.len() <= c.cap);
        let mut seen = vec![false; c.slots.len()];
        let (mut prev, mut at) = (NIL, c.head);
        while at != NIL {
            assert!(
                !std::mem::replace(&mut seen[at as usize], true),
                "slot {at} twice"
            );
            assert_eq!(c.slots[at as usize].prev, prev, "back link of {at}");
            prev = at;
            at = c.slots[at as usize].next;
        }
        assert_eq!(prev, c.tail, "chain ends at the tail");
        assert!(seen.iter().all(|&v| v), "chain misses a slot");
        for (key, &idx) in &c.map {
            assert_eq!(c.slots[idx as usize].key, *key, "map index {idx}");
        }
    }

    /// The `i`-th of 16 distinct keys (one per first-feature bucket).
    fn key(i: usize) -> VerdictKey {
        let mut f = [0.0f32; FEATURE_DIM];
        f[0] = i as f32 / 16.0;
        q(16).key(&f, Direction::Up, 0)
    }

    #[test]
    fn buckets_are_total_and_saturating() {
        let fq = q(16);
        assert_eq!(fq.bucket(f32::NAN), NAN_BUCKET);
        assert_eq!(fq.bucket(f32::NEG_INFINITY), 0);
        assert_eq!(fq.bucket(f32::INFINITY), 15);
        assert_eq!(fq.bucket(-3.0), 0);
        assert_eq!(fq.bucket(0.0), 0);
        assert_eq!(fq.bucket(0.999), 15);
        assert_eq!(fq.bucket(57.0), 15);
    }

    #[test]
    fn buckets_are_monotone() {
        let fq = q(32);
        let mut prev = 0u8;
        for i in 0..=2000 {
            let v = -0.5 + i as f32 * 0.001;
            let b = fq.bucket(v);
            assert!(b >= prev, "bucket({v}) = {b} < {prev}");
            prev = b;
        }
    }

    #[test]
    fn key_encodes_direction_and_state() {
        let fq = q(16);
        let f = [0.5f32; FEATURE_DIM];
        let up = fq.key(&f, Direction::Up, 2);
        let down = fq.key(&f, Direction::Down, 2);
        let other_state = fq.key(&f, Direction::Up, 3);
        assert_ne!(up, down);
        assert_ne!(up, other_state);
        assert_eq!(up.bytes()[FEATURE_DIM], 0);
        assert_eq!(down.bytes()[FEATURE_DIM], 1);
        assert_eq!(up.bytes()[FEATURE_DIM + 1], 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let h = CacheStatsHandle::new();
        let mut c = VerdictCache::new(2, h.clone());
        c.insert(key(1), deliver(1.0));
        c.insert(key(2), deliver(2.0));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&key(1)), Some(deliver(1.0)));
        assert!(c.insert(key(3), deliver(3.0)), "evicts at capacity");
        assert_eq!(c.get(&key(2)), None, "2 was evicted");
        assert_eq!(c.get(&key(1)), Some(deliver(1.0)));
        assert_eq!(c.get(&key(3)), Some(deliver(3.0)));
        let s = h.snapshot();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn invalidate_flushes_and_reuses_slab() {
        let h = CacheStatsHandle::new();
        let mut c = VerdictCache::new(8, h.clone());
        for i in 0..4 {
            c.insert(key(i), deliver(i as f64));
        }
        assert_eq!(c.len(), 4);
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.get(&key(0)), None);
        for i in 0..4 {
            c.insert(key(i), deliver(i as f64));
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(&key(3)), Some(deliver(3.0)));
        assert_eq!(h.snapshot().invalidations, 1);
    }

    #[test]
    fn memory_follows_entries_not_capacity() {
        let mut c = VerdictCache::new(1 << 16, CacheStatsHandle::new());
        for i in 0..3 {
            c.insert(key(i), deliver(i as f64));
        }
        let (map_cap, slot_cap) = (c.map.capacity(), c.slots.capacity());
        assert!(map_cap < 64, "map sized {map_cap} for 3 entries");
        assert!(slot_cap < 64, "slab sized {slot_cap} for 3 entries");
        c.invalidate();
        assert!(c.is_empty());
        for i in 0..3 {
            c.insert(key(i), deliver(i as f64));
        }
        assert!(c.map.capacity() <= map_cap, "refill grew the map");
        assert!(c.slots.capacity() <= slot_cap, "refill grew the slab");
    }

    #[derive(Clone, Debug)]
    enum Op {
        Get(usize),
        Insert(usize, u8),
        Invalidate,
    }

    /// Keys the differential test draws from: a few more than the
    /// largest capacity, so every capacity sees evictions.
    const KEYS: usize = 12;

    /// Gets and inserts in equal measure; one op in 20 is a flush, so the
    /// cache mostly runs full between flushes.
    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0u8..20, 0..KEYS, any::<u8>()).prop_map(|(op, k, v)| match op {
                0 => Op::Invalidate,
                1..=9 => Op::Get(k),
                _ => Op::Insert(k, v),
            }),
            1..200,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `VerdictCache` against a naive LRU: a `Vec` of `(key, verdict)`
        /// in recency order, most recent first.
        #[test]
        fn matches_a_reference_lru(cap in 1usize..9, ops in arb_ops()) {
            let h = CacheStatsHandle::new();
            let mut c = VerdictCache::new(cap, h.clone());
            let mut model: Vec<(usize, RawVerdict)> = Vec::new();
            let mut want = CacheStats::default();
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let hit = model.iter().position(|&(mk, _)| mk == k).map(|at| {
                            let e = model.remove(at);
                            model.insert(0, e);
                            e.1
                        });
                        if hit.is_some() {
                            want.hits += 1;
                        } else {
                            want.misses += 1;
                        }
                        prop_assert_eq!(c.get(&key(k)), hit, "get {}", k);
                    }
                    Op::Insert(k, v) => {
                        let v = deliver(v as f64);
                        let evicts = match model.iter().position(|&(mk, _)| mk == k) {
                            Some(at) => {
                                model.remove(at);
                                false
                            }
                            None => model.len() >= cap && model.pop().is_some(),
                        };
                        model.insert(0, (k, v));
                        want.evictions += evicts as u64;
                        prop_assert_eq!(c.insert(key(k), v), evicts, "insert {}", k);
                    }
                    Op::Invalidate => {
                        model.clear();
                        want.invalidations += 1;
                        c.invalidate();
                    }
                }
                check_invariants(&c);
                prop_assert_eq!(c.len(), model.len());
                prop_assert_eq!(h.snapshot(), want);
            }
        }
    }

    #[test]
    fn reinsert_updates_in_place() {
        let h = CacheStatsHandle::new();
        let fq = q(16);
        let mut c = VerdictCache::new(4, h);
        let k = fq.key(&[0.5f32; FEATURE_DIM], Direction::Up, 0);
        assert!(!c.insert(k, deliver(1.0)));
        assert!(!c.insert(k, RawVerdict::Drop));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&k), Some(RawVerdict::Drop));
    }

    #[test]
    fn quantizer_config_round_trips() {
        let cfg = QuantizerConfig { levels: 32 };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: QuantizerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // A legacy artifact without the field deserializes to the unset
        // sentinel, which quantizes exactly like the default config.
        let legacy: QuantizerConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(legacy.effective_levels(), DEFAULT_LEVELS);
        let a = FeatureQuantizer::new(legacy);
        let b = FeatureQuantizer::new(QuantizerConfig::default());
        for i in 0..100 {
            let v = i as f32 * 0.013 - 0.1;
            assert_eq!(a.bucket(v), b.bucket(v));
        }
    }
}
