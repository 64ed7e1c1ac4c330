//! Bounded LRU caches for the serving engine.
//!
//! [`Lru`] is an intrusive-list LRU over a slab: O(1) get/insert/remove,
//! no per-operation allocation once warm. The engine stacks two of them —
//! a small one for final per-entity predictions and a larger one for hop-ℓ
//! node embeddings ([`RowCache`], which implements
//! [`relgraph_gnn::EmbeddingStore`] so the per-node walk can consult it
//! mid-recursion). Since cached embeddings are pure functions of
//! `(type, node, level, anchor)`, the caches can only ever *skip* work,
//! never change a value — correctness reduces to evicting the right
//! entries when the graph underneath changes (see the [`engine`](crate::engine)
//! module docs).
//!
//! The embedding cache is written once, generic over how a row is *held*
//! ([`CachedRow`]): raw `Vec<f64>` / `Vec<f32>` rows store and return the
//! value unchanged, [`QuantizedRow`] stores
//! 8-bit codes and decodes on every hit. [`EmbeddingCache`],
//! [`EmbeddingCache32`] and [`QuantizedEmbeddingCache`] are its three
//! instantiations.

use std::collections::HashMap;
use std::hash::Hash;

use relgraph_gnn::{Element, EmbeddingStore};

use crate::l2::L2Row;
use crate::quant::QuantizedRow;

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// A bounded least-recently-used map. `get` promotes, `insert` evicts the
/// coldest entry once `cap` is reached.
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
    /// Entries displaced by capacity pressure since construction/`clear`.
    pub evictions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Lru {
            map: HashMap::with_capacity(cap.min(1 << 16)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
            evictions: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].val)
    }

    /// Insert (or overwrite) `key`, evicting the least-recently-used entry
    /// if the cache is full. The entry becomes most-recently-used.
    pub fn insert(&mut self, key: K, val: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].val = val;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        if self.map.len() >= self.cap {
            let coldest = self.tail;
            debug_assert_ne!(coldest, NIL);
            self.unlink(coldest);
            self.map.remove(&self.slots[coldest].key);
            self.free.push(coldest);
            self.evictions += 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i].key = key.clone();
                self.slots[i].val = val;
                i
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    val,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Drop `key` if present (precise invalidation). Returns whether an
    /// entry was removed. Does not count as an eviction.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(i) => {
                self.unlink(i);
                self.free.push(i);
                true
            }
            None => false,
        }
    }

    /// Drop everything (anchor-advance flush). Eviction count resets too —
    /// a flush is accounted separately by the engine.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.evictions = 0;
    }
}

/// Hit/miss/eviction accounting across both cache tiers, exported into
/// run reports (`serve.cache.*` counters, schema version 2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prediction-tier lookups answered from cache.
    pub prediction_hits: u64,
    /// Prediction-tier lookups that fell through to inference.
    pub prediction_misses: u64,
    /// Prediction-tier entries displaced by capacity pressure.
    pub prediction_evictions: u64,
    /// Embedding-tier lookups answered from cache (mid-recursion).
    pub embedding_hits: u64,
    /// Embedding-tier lookups that had to be recomputed.
    pub embedding_misses: u64,
    /// Embedding-tier entries displaced by capacity pressure.
    pub embedding_evictions: u64,
    /// L1-miss embedding lookups answered by the shared L2 tier.
    pub l2_hits: u64,
    /// L1-miss embedding lookups the shared L2 tier missed too (the
    /// embedding was recomputed).
    pub l2_misses: u64,
    /// Embedding entries dropped by precise delta invalidation.
    pub invalidated_embeddings: u64,
    /// Prediction entries dropped by precise delta invalidation.
    pub invalidated_predictions: u64,
    /// Whole-cache flushes (anchor advanced or graph rebuilt).
    pub flushes: u64,
}

impl CacheStats {
    /// Prediction-tier hit rate in `[0, 1]`, or `None` before any lookup.
    pub fn prediction_hit_rate(&self) -> Option<f64> {
        let total = self.prediction_hits + self.prediction_misses;
        (total > 0).then(|| self.prediction_hits as f64 / total as f64)
    }

    /// Embedding-tier hit rate in `[0, 1]`, or `None` before any lookup.
    pub fn embedding_hit_rate(&self) -> Option<f64> {
        let total = self.embedding_hits + self.embedding_misses;
        (total > 0).then(|| self.embedding_hits as f64 / total as f64)
    }

    /// Shared-L2 hit rate among L1 misses that consulted the tier, in
    /// `[0, 1]`, or `None` when L2 was never consulted.
    pub fn l2_hit_rate(&self) -> Option<f64> {
        let total = self.l2_hits + self.l2_misses;
        (total > 0).then(|| self.l2_hits as f64 / total as f64)
    }

    /// Fold `other` into `self` field-wise. The sharded tier aggregates
    /// per-shard slices with this before publishing, so the run report's
    /// cache section is the sum over shards, counted exactly once.
    pub fn merge(&mut self, other: &CacheStats) {
        self.prediction_hits += other.prediction_hits;
        self.prediction_misses += other.prediction_misses;
        self.prediction_evictions += other.prediction_evictions;
        self.embedding_hits += other.embedding_hits;
        self.embedding_misses += other.embedding_misses;
        self.embedding_evictions += other.embedding_evictions;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.invalidated_embeddings += other.invalidated_embeddings;
        self.invalidated_predictions += other.invalidated_predictions;
        self.flushes += other.flushes;
    }

    /// Publish these totals as the process's `serve.cache.*` counters and
    /// hit-rate gauges. Idempotent: counters are *set* to the absolute
    /// totals (via `relgraph_obs::counter_to`), never re-added, so calling
    /// at any cadence — or once per shard-aggregate — cannot double-count.
    /// Exactly one aggregator must own the `serve.cache.*` names per
    /// process (one engine, summing its shards).
    pub fn publish(&self) {
        if !relgraph_obs::enabled() {
            return;
        }
        for (name, value) in [
            ("serve.cache.prediction.hits", self.prediction_hits),
            ("serve.cache.prediction.misses", self.prediction_misses),
            (
                "serve.cache.prediction.evictions",
                self.prediction_evictions,
            ),
            ("serve.cache.embedding.hits", self.embedding_hits),
            ("serve.cache.embedding.misses", self.embedding_misses),
            ("serve.cache.embedding.evictions", self.embedding_evictions),
            ("serve.l2.hits", self.l2_hits),
            ("serve.l2.misses", self.l2_misses),
        ] {
            relgraph_obs::counter_to(name, value);
        }
        if let Some(r) = self.prediction_hit_rate() {
            relgraph_obs::gauge("serve.cache.prediction.hit_rate", r);
        }
        if let Some(r) = self.embedding_hit_rate() {
            relgraph_obs::gauge("serve.cache.embedding.hit_rate", r);
        }
        if let Some(r) = self.l2_hit_rate() {
            relgraph_obs::gauge("serve.l2.hit_rate", r);
        }
    }
}

/// Embedding-cache key: `(node type, node, level)`.
pub(crate) type Key = (usize, usize, usize);

/// How one embedding row is held in a cache tier — the row codec. The
/// stored type is its own codec: `Vec<f64>` and `Vec<f32>` are the
/// identity, [`QuantizedRow`] is 8-bit quantize / dequantize.
pub trait CachedRow: Clone + Send + Sync + Sized + 'static {
    /// The scalar the inference walk computes in for this row type.
    type Elem: Element;
    /// Encode a freshly computed embedding for storage.
    fn encode(row: Vec<Self::Elem>) -> Self;
    /// The embedding a cache hit on this row returns.
    fn decode(&self) -> Vec<Self::Elem>;
    /// `decode ∘ encode`: what a warm hit would return for `row`. The
    /// walk memoizes fresh values through this, so lossy rows keep warm
    /// and cold runs bit-identical; lossless rows override it with the
    /// identity.
    fn canonicalize(row: Vec<Self::Elem>) -> Vec<Self::Elem> {
        Self::encode(row).decode()
    }
    /// Wrap for the shared L2 tier (which holds any mode's rows).
    fn into_l2(self) -> L2Row;
    /// Unwrap an L2 row of this mode (`None` for another mode's).
    fn from_l2(row: &L2Row) -> Option<&Self>;
}

/// Raw rows: stored, returned and canonicalized unchanged.
macro_rules! raw_row {
    ($elem:ty, $variant:ident) => {
        impl CachedRow for Vec<$elem> {
            type Elem = $elem;
            fn encode(row: Vec<$elem>) -> Self {
                row
            }
            fn decode(&self) -> Vec<$elem> {
                self.clone()
            }
            fn canonicalize(row: Vec<$elem>) -> Vec<$elem> {
                row
            }
            fn into_l2(self) -> L2Row {
                L2Row::$variant(self)
            }
            fn from_l2(row: &L2Row) -> Option<&Self> {
                match row {
                    L2Row::$variant(r) => Some(r),
                    _ => None,
                }
            }
        }
    };
}
raw_row!(f64, F64);
raw_row!(f32, F32);

/// The embedding tier: an [`Lru`] keyed `(node type, node, level)` holding
/// rows as `R`, which plugs into the per-node walk
/// ([`relgraph_gnn::infer_nodes`]) as its [`EmbeddingStore`].
pub struct RowCache<R> {
    lru: Lru<Key, R>,
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// Full-precision rows (`Vec<f64>`): the default tier.
pub type EmbeddingCache = RowCache<Vec<f64>>;
/// Single-precision rows (`Vec<f32>`, half the bytes).
pub type EmbeddingCache32 = RowCache<Vec<f32>>;
/// 8-bit quantized rows (~`dim + 8` bytes instead of `8·dim`), decoded on
/// every hit.
pub type QuantizedEmbeddingCache = RowCache<QuantizedRow>;

impl<R> RowCache<R> {
    /// An empty cache holding at most `cap` embeddings.
    pub fn new(cap: usize) -> Self {
        RowCache {
            lru: Lru::new(cap),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached embeddings.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.lru.evictions
    }

    /// Insert an already encoded row (most-recently-used).
    pub(crate) fn insert(&mut self, key: Key, row: R) {
        self.lru.insert(key, row);
    }
}

/// What invalidation and stats reporting need of a [`RowCache`], whatever
/// its rows hold — one object-safe trait, so engine and shard code never
/// name a precision.
pub trait L1Cache {
    /// Write this cache's lifetime hit / miss / eviction counts into the
    /// embedding fields of `stats`.
    fn report(&self, stats: &mut CacheStats);
    /// Drop one `(type, node, level)` entry; true if it was present.
    fn invalidate(&mut self, ty: usize, node: usize, level: usize) -> bool;
    /// Drop everything (the hit/miss counters survive; they describe the
    /// engine's lifetime, not one anchor's).
    fn clear(&mut self);
}

impl<R> L1Cache for RowCache<R> {
    fn report(&self, stats: &mut CacheStats) {
        stats.embedding_hits = self.hits;
        stats.embedding_misses = self.misses;
        stats.embedding_evictions = self.evictions();
    }
    fn invalidate(&mut self, ty: usize, node: usize, level: usize) -> bool {
        self.lru.remove(&(ty, node, level))
    }
    fn clear(&mut self) {
        self.lru.clear();
    }
}

impl<R: CachedRow> EmbeddingStore<R::Elem> for RowCache<R> {
    fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<R::Elem>> {
        match self.lru.get(&(ty, node, level)) {
            Some(row) => {
                self.hits += 1;
                Some(row.decode())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<R::Elem>) {
        self.insert((ty, node, level), R::encode(emb));
    }

    fn canonicalize(&self, emb: Vec<R::Elem>) -> Vec<R::Elem> {
        R::canonicalize(emb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_promotes_and_insert_evicts_coldest() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(3, 30);
        assert_eq!(lru.get(&1), Some(&10)); // 1 is now hottest; 2 coldest
        lru.insert(4, 40);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.evictions, 1);
        assert_eq!(lru.get(&2), None, "coldest entry evicted");
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
        assert_eq!(lru.get(&4), Some(&40));
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions, 0);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.get(&2), Some(&20));
    }

    #[test]
    fn remove_frees_capacity_without_counting_eviction() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert!(lru.remove(&1));
        assert!(!lru.remove(&1));
        lru.insert(3, 30);
        assert_eq!(lru.evictions, 0);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), Some(&20));
        assert_eq!(lru.get(&3), Some(&30));
    }

    #[test]
    fn single_slot_cache_churns_correctly() {
        let mut lru: Lru<u32, u32> = Lru::new(1);
        for i in 0..10 {
            lru.insert(i, i);
            assert_eq!(lru.get(&i), Some(&i));
            assert_eq!(lru.len(), 1);
        }
        assert_eq!(lru.evictions, 9);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.evictions, 0);
    }

    #[test]
    fn heavy_mixed_workload_matches_reference_model() {
        // Differential test against a naive Vec-based LRU.
        let cap = 8;
        let mut lru: Lru<u64, u64> = Lru::new(cap);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // front = hottest
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4000 {
            let op = next() % 3;
            let key = next() % 24;
            match op {
                0 => {
                    let got = lru.get(&key).copied();
                    let pos = reference.iter().position(|&(k, _)| k == key);
                    let want = pos.map(|p| {
                        let e = reference.remove(p);
                        reference.insert(0, e);
                        e.1
                    });
                    assert_eq!(got, want);
                }
                1 => {
                    let val = next();
                    lru.insert(key, val);
                    if let Some(p) = reference.iter().position(|&(k, _)| k == key) {
                        reference.remove(p);
                    } else if reference.len() >= cap {
                        reference.pop();
                    }
                    reference.insert(0, (key, val));
                }
                _ => {
                    let got = lru.remove(&key);
                    let pos = reference.iter().position(|&(k, _)| k == key);
                    assert_eq!(got, pos.is_some());
                    if let Some(p) = pos {
                        reference.remove(p);
                    }
                }
            }
            assert_eq!(lru.len(), reference.len());
        }
    }

    #[test]
    fn embedding_cache_counts_hits_and_misses() {
        let mut c = EmbeddingCache::new(4);
        assert!(c.get(0, 1, 0).is_none());
        c.put(0, 1, 0, vec![1.0, 2.0]);
        assert_eq!(c.get(0, 1, 0), Some(vec![1.0, 2.0]));
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!(c.invalidate(0, 1, 0));
        assert!(!c.invalidate(0, 1, 0));
        assert!(c.get(0, 1, 0).is_none());
        assert_eq!((c.hits, c.misses), (1, 2));
    }
}
