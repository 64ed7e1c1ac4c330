//! The shared read-mostly L2 embedding tier under the per-shard L1s.
//!
//! # Why a second tier
//!
//! Shards partition the cache budget, so an embedding for a hub node —
//! a popular product every customer's 2-hop neighborhood touches — is
//! recomputed once *per shard* that scores a request near it. The L2
//! tier stores each hop-`k` embedding once, readable by every shard
//! lock-free through the same [`EpochCell`] publication pattern the
//! graph snapshot uses: readers clone an `Arc` to an immutable
//! [`L2Snapshot`] and probe plain `HashMap` segments; no lock is held
//! while scoring.
//!
//! # Coherence protocol
//!
//! Correctness is the warm ≡ cold bitwise invariant: an embedding is a
//! pure function of `(type, node, level, anchor)` *at a graph epoch*, so
//! a cache hit must never cross epochs. Three rules enforce that:
//!
//! 1. **Tagging.** Every published [`L2Snapshot`] carries the
//!    `graph_epoch` it is consistent with. A shard consults L2 only when
//!    that tag equals the shard's own snapshot epoch; a mismatch is a
//!    miss, never a stale hit.
//! 2. **Write ordering.** The writer applies each [`InvalidationPlan`]
//!    to L2 (via [`L2Tier::apply_plan`]) and republishes it *before*
//!    publishing the graph snapshot for the same epoch. The release
//!    store in the graph publish therefore happens-after the L2
//!    publish: any reader that acquires graph epoch `e` observes an L2
//!    tagged `>= e` — stale L2 entries are unreachable the instant the
//!    new graph is visible.
//! 3. **Serialized publication.** All L2 publishes — shard promotions
//!    and the writer's plan application — are serialized by one gate
//!    mutex holding the tier's current `graph_epoch`. A promotion of
//!    embeddings computed at epoch `e` is dropped unless the gate still
//!    reads `e`; [`EpochCell`]'s single-publisher contract is met by
//!    construction.
//!
//! Eviction under a plan uses the normative
//! [`PlanFilter`] rule — exactly the
//! `(v, ℓ)` distance rule the per-shard L1s apply — so L1 and L2 agree
//! entry-for-entry on what an ingest invalidates (DESIGN.md §13.6).
//!
//! # What the tier stores
//!
//! Rows are stored in the serving precision's *canonical cached form*
//! ([`L2Row`]): raw `f64`/`f32` rows, or the quantized `q8` encoding.
//! A quantized L2 hit dequantizes the same bytes an L1 warm hit would,
//! so promotion through L2 cannot perturb served bits in any precision
//! mode (asserted per-mode by `tests/serving_equivalence.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use relgraph_gnn::EmbeddingStore;
use relgraph_obs as obs;

use crate::cache::{CachedRow, Key, RowCache};
use crate::epoch::EpochCell;
use crate::invalidate::{InvalidationPlan, PlanFilter};
use crate::quant::QuantizedRow;

/// How many promotion segments a snapshot accumulates before the next
/// publish compacts them into one map. Probes walk segments newest-first,
/// so the bound keeps the worst-case probe short while letting promotions
/// stay cheap (one new segment, older segments shared by `Arc`).
const MAX_SEGMENTS: usize = 8;

/// One cached row in the tier, in the serving precision's canonical
/// cached form (what the matching L1 would hold for the same key).
#[derive(Debug, Clone)]
pub enum L2Row {
    /// Full-precision row (`Precision::F64` serving).
    F64(Vec<f64>),
    /// Single-precision row (`Precision::F32` serving).
    F32(Vec<f32>),
    /// Quantized row (`Precision::Q8` serving); hits dequantize exactly
    /// like an L1 hit on the same key would.
    Q8(QuantizedRow),
}

/// An immutable published view of the L2 tier: a stack of map segments,
/// probed newest-first, all consistent with `graph_epoch`.
pub struct L2Snapshot {
    /// The graph epoch every held row was computed at.
    pub graph_epoch: u64,
    segments: Vec<Arc<HashMap<Key, L2Row>>>,
    len: usize,
}

impl L2Snapshot {
    fn empty(graph_epoch: u64) -> Self {
        L2Snapshot {
            graph_epoch,
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Look a key up, newest segment first.
    pub fn get(&self, key: &Key) -> Option<&L2Row> {
        self.segments.iter().rev().find_map(|s| s.get(key))
    }

    /// Is the key held in any segment?
    pub fn contains(&self, key: &Key) -> bool {
        self.segments.iter().any(|s| s.contains_key(key))
    }

    /// Number of held rows across segments (keys are unique by
    /// construction: promotions skip keys any segment already holds).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Publication gate: the tier's current graph epoch, under the mutex
/// that serializes every publish (writer plan application and shard
/// promotions alike).
struct L2Gate {
    graph_epoch: u64,
}

/// The shared tier itself: one per [`ShardedEngine`](crate::ShardedEngine).
pub struct L2Tier {
    cell: EpochCell<L2Snapshot>,
    gate: Mutex<L2Gate>,
    cap: usize,
    promotions: AtomicU64,
    publishes: AtomicU64,
    invalidated: AtomicU64,
    flushes: AtomicU64,
    dropped: AtomicU64,
}

impl L2Tier {
    /// An empty tier holding at most `cap` rows, consistent with graph
    /// epoch 0. `cap == 0` disables promotion (the tier still tracks
    /// epochs so shards can ask it uniformly).
    pub fn new(cap: usize) -> Self {
        L2Tier {
            cell: EpochCell::new(Arc::new(L2Snapshot::empty(0))),
            gate: Mutex::new(L2Gate { graph_epoch: 0 }),
            cap,
            promotions: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Configured row capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The current published view (readers hold it lock-free).
    pub fn load(&self) -> Arc<L2Snapshot> {
        self.cell.load()
    }

    /// Offer rows a shard computed at `graph_epoch` to the shared tier.
    ///
    /// Best-effort by design: if the gate is contended, or the tier has
    /// moved past `graph_epoch`, or capacity is exhausted, rows are
    /// dropped — the shard's L1 still holds them, so nothing is lost but
    /// sharing. Never blocks the scoring path on the writer.
    pub fn promote(&self, graph_epoch: u64, entries: Vec<(Key, L2Row)>) {
        if self.cap == 0 || entries.is_empty() {
            return;
        }
        let offered = entries.len() as u64;
        let Ok(gate) = self.gate.try_lock() else {
            self.dropped.fetch_add(offered, Ordering::Relaxed);
            return;
        };
        if gate.graph_epoch != graph_epoch {
            self.dropped.fetch_add(offered, Ordering::Relaxed);
            return;
        }
        let snap = self.cell.load();
        debug_assert_eq!(snap.graph_epoch, gate.graph_epoch);
        let mut fresh: HashMap<Key, L2Row> = HashMap::new();
        for (key, row) in entries {
            if snap.len + fresh.len() >= self.cap {
                break;
            }
            if snap.contains(&key) || fresh.contains_key(&key) {
                continue;
            }
            fresh.insert(key, row);
        }
        if fresh.is_empty() {
            return;
        }
        self.promotions
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        let len = snap.len + fresh.len();
        let mut segments: Vec<Arc<HashMap<Key, L2Row>>>;
        if snap.segments.len() >= MAX_SEGMENTS {
            // Compact: merge everything into one owned map. Promotions
            // are rare once the working set is shared, so this stays off
            // the steady-state path.
            let mut merged: HashMap<Key, L2Row> = HashMap::with_capacity(len);
            for seg in &snap.segments {
                for (k, v) in seg.iter() {
                    merged.insert(*k, v.clone());
                }
            }
            merged.extend(fresh);
            segments = vec![Arc::new(merged)];
        } else {
            segments = snap.segments.clone();
            segments.push(Arc::new(fresh));
        }
        self.cell.publish(Arc::new(L2Snapshot {
            graph_epoch,
            segments,
            len,
        }));
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Writer-side: evict under `plan` and republish at `plan.epoch`.
    ///
    /// **Must be called before the graph snapshot for `plan.epoch` is
    /// published** — that ordering is what makes stale L2 entries
    /// unreachable (see the module docs). Applies the normative
    /// [`PlanFilter`] rule, identical to what every shard's L1 applies.
    pub fn apply_plan(&self, plan: &InvalidationPlan) {
        let mut gate = self.gate.lock().unwrap_or_else(|p| p.into_inner());
        let snap = self.cell.load();
        let next = if plan.flush {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.invalidated
                .fetch_add(snap.len as u64, Ordering::Relaxed);
            L2Snapshot::empty(plan.epoch)
        } else {
            let filter = PlanFilter::new(plan);
            let mut kept: HashMap<Key, L2Row> = HashMap::with_capacity(snap.len);
            // Oldest-first: newer segments overwrite (keys are unique
            // across segments anyway, so this is belt and braces).
            for seg in &snap.segments {
                for (&(ty, node, level), row) in seg.iter() {
                    if !filter.evicts(ty, node, level) {
                        kept.insert((ty, node, level), row.clone());
                    }
                }
            }
            self.invalidated
                .fetch_add((snap.len - kept.len()) as u64, Ordering::Relaxed);
            let len = kept.len();
            let segments = if len == 0 {
                Vec::new()
            } else {
                vec![Arc::new(kept)]
            };
            L2Snapshot {
                graph_epoch: plan.epoch,
                segments,
                len,
            }
        };
        gate.graph_epoch = plan.epoch;
        self.cell.publish(Arc::new(next));
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the tier's counters (`serve.l2.*`). Idempotent: absolute
    /// totals via `counter_to`, like [`CacheStats::publish`](crate::CacheStats::publish).
    pub fn publish_stats(&self) {
        if !obs::enabled() {
            return;
        }
        for (name, v) in [
            ("serve.l2.promotions", &self.promotions),
            ("serve.l2.publishes", &self.publishes),
            ("serve.l2.invalidated", &self.invalidated),
            ("serve.l2.flushes", &self.flushes),
            ("serve.l2.dropped", &self.dropped),
        ] {
            obs::counter_to(name, v.load(Ordering::Relaxed));
        }
        obs::gauge("serve.l2.entries", self.load().len() as f64);
    }

    /// Rows promoted into the tier over its lifetime.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Offered rows dropped (gate contended, epoch moved, or capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// An [`EmbeddingStore`] layering one L1 [`RowCache`] over an optional L2
/// view for the duration of one scoring batch, in whatever form `R` holds
/// rows. Gets probe L1 then L2 (refilling L1 on an L2 hit); puts go to L1
/// and are staged for promotion, which the shard offers via
/// [`L2Tier::promote`] after the batch.
///
/// Bit-exactness per mode: a row is encoded once and the *same* stored
/// bytes go to L1 and to the staging list, and an L2 hit refills L1 with
/// the stored bytes and decodes them — so an L2 hit returns precisely what
/// a warm L1 hit on the same key would, quantized or not.
pub struct TieredStore<'a, R> {
    l1: &'a mut RowCache<R>,
    l2: Option<&'a L2Snapshot>,
    staged: Vec<(Key, L2Row)>,
    /// L1-miss lookups answered by the shared tier.
    pub l2_hits: u64,
    /// L1-miss lookups the shared tier missed too.
    pub l2_misses: u64,
}

impl<'a, R: CachedRow> TieredStore<'a, R> {
    /// Layer `l1` over `l2` (pass `None` to bypass the shared tier, e.g.
    /// on an epoch mismatch, or where there is none).
    pub fn new(l1: &'a mut RowCache<R>, l2: Option<&'a L2Snapshot>) -> Self {
        TieredStore {
            l1,
            l2,
            staged: Vec::new(),
            l2_hits: 0,
            l2_misses: 0,
        }
    }

    /// Rows computed this batch, for [`L2Tier::promote`]. Empty when the
    /// store was built without an L2 view.
    pub fn into_staged(self) -> Vec<(Key, L2Row)> {
        self.staged
    }
}

impl<R: CachedRow> EmbeddingStore<R::Elem> for TieredStore<'_, R> {
    fn get(&mut self, ty: usize, node: usize, level: usize) -> Option<Vec<R::Elem>> {
        if let Some(row) = self.l1.get(ty, node, level) {
            return Some(row);
        }
        let l2 = self.l2?;
        match l2.get(&(ty, node, level)).and_then(R::from_l2) {
            Some(stored) => {
                self.l2_hits += 1;
                // Refill the L1 so the rest of the batch hits locally.
                self.l1.insert((ty, node, level), stored.clone());
                Some(stored.decode())
            }
            None => {
                self.l2_misses += 1;
                None
            }
        }
    }

    fn put(&mut self, ty: usize, node: usize, level: usize, emb: Vec<R::Elem>) {
        let stored = R::encode(emb);
        if self.l2.is_some() {
            self.staged
                .push(((ty, node, level), stored.clone().into_l2()));
        }
        self.l1.insert((ty, node, level), stored);
    }

    fn canonicalize(&self, emb: Vec<R::Elem>) -> Vec<R::Elem> {
        R::canonicalize(emb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{EmbeddingCache, EmbeddingCache32, QuantizedEmbeddingCache};

    fn rows(n: usize) -> Vec<(Key, L2Row)> {
        (0..n)
            .map(|i| ((0, i, 1), L2Row::F64(vec![i as f64, 0.5])))
            .collect()
    }

    #[test]
    fn promote_and_read_back_at_matching_epoch() {
        let tier = L2Tier::new(64);
        tier.promote(0, rows(3));
        let snap = tier.load();
        assert_eq!(snap.graph_epoch, 0);
        assert_eq!(snap.len(), 3);
        assert!(matches!(snap.get(&(0, 2, 1)), Some(L2Row::F64(v)) if v[0] == 2.0));
        assert!(snap.get(&(0, 9, 1)).is_none());
        assert_eq!(tier.promotions(), 3);
    }

    #[test]
    fn stale_epoch_promotions_are_dropped() {
        let tier = L2Tier::new(64);
        tier.apply_plan(&InvalidationPlan::flush(1));
        tier.promote(0, rows(3)); // computed at epoch 0, tier is at 1
        assert_eq!(tier.load().len(), 0);
        assert_eq!(tier.dropped(), 3);
        tier.promote(1, rows(2));
        assert_eq!(tier.load().len(), 2);
    }

    #[test]
    fn capacity_bounds_held_rows() {
        let tier = L2Tier::new(2);
        tier.promote(0, rows(5));
        assert_eq!(tier.load().len(), 2);
        let zero = L2Tier::new(0);
        zero.promote(0, rows(5));
        assert_eq!(zero.load().len(), 0);
    }

    #[test]
    fn duplicate_keys_are_promoted_once() {
        let tier = L2Tier::new(64);
        tier.promote(0, rows(3));
        tier.promote(0, rows(3)); // same keys again
        assert_eq!(tier.load().len(), 3);
        assert_eq!(tier.promotions(), 3);
    }

    #[test]
    fn apply_plan_evicts_by_the_normative_rule() {
        let tier = L2Tier::new(64);
        let entries: Vec<(Key, L2Row)> = (0..4)
            .flat_map(|node| {
                (0..=2).map(move |level| ((0usize, node, level), L2Row::F64(vec![1.0])))
            })
            .collect();
        tier.promote(0, entries);
        assert_eq!(tier.load().len(), 12);
        // Node 1 dirty at distance 1: levels 1..=2 go, level 0 survives.
        let plan =
            InvalidationPlan::precise(1, &[((0usize, 1usize), 1usize)].into_iter().collect());
        tier.apply_plan(&plan);
        let snap = tier.load();
        assert_eq!(snap.graph_epoch, 1);
        assert_eq!(snap.len(), 10);
        assert!(snap.contains(&(0, 1, 0)));
        assert!(!snap.contains(&(0, 1, 1)));
        assert!(!snap.contains(&(0, 1, 2)));
        assert!(snap.contains(&(0, 2, 2)));
    }

    #[test]
    fn flush_plan_empties_the_tier() {
        let tier = L2Tier::new(64);
        tier.promote(0, rows(3));
        tier.apply_plan(&InvalidationPlan::flush(1));
        let snap = tier.load();
        assert_eq!(snap.graph_epoch, 1);
        assert!(snap.is_empty());
    }

    #[test]
    fn segments_compact_past_the_bound() {
        let tier = L2Tier::new(4096);
        for batch in 0..(MAX_SEGMENTS + 3) {
            let entries: Vec<(Key, L2Row)> = (0..2)
                .map(|i| ((1, batch * 10 + i, 0), L2Row::F64(vec![0.0])))
                .collect();
            tier.promote(0, entries);
        }
        let snap = tier.load();
        assert_eq!(snap.len(), 2 * (MAX_SEGMENTS + 3));
        assert!(snap.segments.len() <= MAX_SEGMENTS + 1);
        // Every key still resolves after compaction.
        for batch in 0..(MAX_SEGMENTS + 3) {
            assert!(snap.contains(&(1, batch * 10, 0)));
        }
    }

    #[test]
    fn tiered_store_f64_hits_l2_and_refills_l1() {
        let tier = L2Tier::new(64);
        tier.promote(0, vec![((0, 7, 1), L2Row::F64(vec![3.25, -1.5]))]);
        let snap = tier.load();
        let mut l1 = EmbeddingCache::new(16);
        let mut store = TieredStore::new(&mut l1, Some(&snap));
        assert_eq!(store.get(0, 7, 1), Some(vec![3.25, -1.5]));
        assert_eq!(store.l2_hits, 1);
        assert!(store.get(0, 8, 1).is_none());
        assert_eq!(store.l2_misses, 1);
        drop(store);
        // The L2 hit warmed the L1.
        assert_eq!(l1.len(), 1);
    }

    #[test]
    fn tiered_store_q8_roundtrips_the_l1_bits() {
        let raw = vec![0.125f32, -2.5, 7.75, 0.0];
        // What a warm L1 hit would return.
        let mut plain = QuantizedEmbeddingCache::new(16);
        plain.put(0, 1, 1, raw.clone());
        let expect = plain.get(0, 1, 1).unwrap();

        // Shard A computes and stages through a tiered store.
        let tier = L2Tier::new(64);
        let snap0 = tier.load();
        let mut l1a = QuantizedEmbeddingCache::new(16);
        let mut store_a = TieredStore::new(&mut l1a, Some(&snap0));
        store_a.put(0, 1, 1, raw.clone());
        tier.promote(0, store_a.into_staged());

        // Shard B reads the promoted row: bits must match the warm hit.
        let snap = tier.load();
        let mut l1b = QuantizedEmbeddingCache::new(16);
        let mut store_b = TieredStore::new(&mut l1b, Some(&snap));
        let got = store_b.get(0, 1, 1).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(store_b.l2_hits, 1);
        // And the refilled L1 entry serves the same bits thereafter.
        drop(store_b);
        let warm = l1b.get(0, 1, 1).unwrap();
        assert_eq!(
            warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiered_store_f32_clones_exact_rows() {
        let tier = L2Tier::new(64);
        let snap0 = tier.load();
        let mut l1a = EmbeddingCache32::new(16);
        let mut store_a = TieredStore::new(&mut l1a, Some(&snap0));
        store_a.put(0, 3, 2, vec![1.5f32, -0.25]);
        tier.promote(0, store_a.into_staged());

        let snap = tier.load();
        let mut l1b = EmbeddingCache32::new(16);
        let mut store_b = TieredStore::new(&mut l1b, Some(&snap));
        assert_eq!(store_b.get(0, 3, 2), Some(vec![1.5f32, -0.25]));
    }

    #[test]
    fn store_without_l2_view_stages_nothing() {
        let mut l1 = EmbeddingCache::new(16);
        let mut store = TieredStore::new(&mut l1, None);
        store.put(0, 0, 0, vec![1.0]);
        assert!(store.get(0, 9, 9).is_none());
        assert_eq!(store.l2_misses, 0); // no L2 to miss
        assert!(store.into_staged().is_empty());
    }
}
