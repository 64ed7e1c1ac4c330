//! The serving tier's shared pieces: its configuration, what an ingest
//! reports, and the cache-aware scoring path every shard of a
//! [`ShardedEngine`](crate::ShardedEngine) runs.
//!
//! # Why warm and cold predictions are bit-identical
//!
//! A cached hop-ℓ embedding `h_ℓ(v)` is a pure function of
//! `(type, node, level, anchor)` over the graph's current state, and the
//! per-node walk ([`relgraph_gnn::infer_nodes`]) only ever *reuses* cache
//! entries — it never produces a different value because one exists. So
//! the cache can only be wrong by holding an entry whose inputs changed
//! underneath it. [`ShardedEngine::ingest_group`](crate::ShardedEngine::ingest_group)
//! and each shard's catch-up close exactly that hole:
//!
//! 1. **Dirty seeds (distance 0).** After appending a group and applying
//!    the graph delta, a node is *dirty* if its level-0 input row changed —
//!    its feature row differs bitwise pre/post (z-score statistics shift on
//!    append), it is an endpoint of a new edge (its neighbor list and
//!    windowed degrees changed), or it is itself a new row.
//! 2. **k-hop closure.** `h_ℓ(v)` reads embeddings of nodes up to ℓ hops
//!    from `v`, so a dirty node at distance `d` from `v` can affect
//!    `h_ℓ(v)` only when `ℓ ≥ d`. A BFS over the full adjacency (forward +
//!    reverse edge types make neighbor-of symmetric) labels every node
//!    within `k` hops of a dirty seed with its distance `d`; the writer
//!    publishes the labels as the new epoch's
//!    [`InvalidationPlan`](crate::InvalidationPlan), beside the new graph.
//! 3. **Precise eviction at catch-up.** A shard moves to a newer snapshot
//!    only after it has applied every plan between its epoch and the new
//!    one (merged: minimum distance per node, a flush dominates): for each
//!    labelled node it drops cached embeddings at levels `d..=k` and, for
//!    entity nodes, the prediction. Entries at levels `< d` provably kept
//!    their inputs and stay. A shard that fell behind the retained plan
//!    history flushes its slice instead — always safe, since a cache only
//!    skips work.
//!
//! If the ingest advanced the deploy anchor, *every* entry's anchor input
//! changed (relative-age features, visibility windows), so the plan is a
//! flush and every shard empties its slice. `tests/serving_equivalence.rs`
//! holds the warm ≡ cold line under randomized ingest schedules, at any
//! shard count.

use std::collections::HashMap;

use relgraph_db2graph::DeltaStats;
use relgraph_gnn::Precision;
use relgraph_graph::{HeteroGraph, NodeTypeId};
use relgraph_store::{Database, IngestReport, StoreResult, Timestamp};

use crate::cache::{CacheStats, Key, Lru};
use crate::l2::{L2Row, L2Snapshot};
use crate::quant::EmbeddingTier;

/// Serving knobs: the batch bound and cache capacities.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most request lines one front-end burst fuses into one engine call,
    /// and most jobs a shard worker drains into one inference batch.
    pub max_batch: usize,
    /// Capacity of the final-prediction tier (entries), split across
    /// shards.
    pub prediction_cache: usize,
    /// Capacity of the node-embedding tier (entries), split across
    /// shards.
    pub embedding_cache: usize,
    /// Numeric mode of the inference path and embedding tier, fixed when
    /// the engine is assembled. Training always runs in `f64`; `F32`/`Q8`
    /// down-convert the fitted weights once at assembly (tolerance story:
    /// `DESIGN.md` §15).
    pub precision: Precision,
    /// Capacity of the shared L2 embedding tier (entries): hub embeddings
    /// promoted here are read lock-free by every shard instead of being
    /// recomputed per shard. `0` disables the tier. Unlike the per-shard
    /// caches this budget is *not* divided by the shard count — it is one
    /// tier.
    pub l2_cache: usize,
    /// Pin each shard worker to one core (`sched_setaffinity`; graceful
    /// no-op off Linux). Placement hint only — served bits are identical
    /// either way (`--affinity` on the CLI).
    pub affinity: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            prediction_cache: 4096,
            embedding_cache: 65536,
            precision: Precision::F64,
            l2_cache: 65536,
            affinity: false,
        }
    }
}

/// What one [`ShardedEngine::ingest`](crate::ShardedEngine::ingest) call
/// did. How many cache entries the change evicted is not known here:
/// shards evict lazily at catch-up, and count it in [`CacheStats`].
#[derive(Debug, Clone, Default)]
pub struct IngestOutcome {
    /// The store's validation/apply report.
    pub report: IngestReport,
    /// The graph delta that was applied.
    pub delta: DeltaStats,
    /// Dirty nodes found (distance-0 seeds plus their k-hop closure).
    pub dirty_nodes: usize,
    /// True when every cache slice is told to flush (anchor advanced).
    pub flushed: bool,
    /// True when the delta failed and the graph was rebuilt from scratch.
    pub rebuilt: bool,
}

/// What one group ingest
/// ([`ShardedEngine::ingest_group`](crate::ShardedEngine::ingest_group))
/// did: per-batch store verdicts, plus the *one* coalesced graph delta /
/// invalidation the whole group paid for.
#[derive(Debug, Clone, Default)]
pub struct GroupIngestOutcome {
    /// One store report per submitted batch, in submission order. A
    /// rejected batch is an `Err` here and a no-op in the database — the
    /// rest of the group still applies, exactly as if each batch had been
    /// ingested individually.
    pub reports: Vec<StoreResult<IngestReport>>,
    /// The group-level outcome. `report` aggregates the accepted batches'
    /// row counts; `delta`/`dirty_nodes`/`flushed`/`rebuilt` describe the
    /// single coalesced graph transition.
    pub outcome: IngestOutcome,
}

impl GroupIngestOutcome {
    /// Batches the store accepted (their rows are applied and durable
    /// once the covering commit is).
    pub fn accepted_batches(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }
}

/// Deploy anchor: the latest timestamp in the database.
pub(crate) fn deploy_anchor(db: &Database) -> Timestamp {
    db.time_span().map(|(_, hi)| hi).unwrap_or(0)
}

/// The cache-aware fused scoring path each shard runs against its *own*
/// cache slice and whatever graph snapshot it currently holds. Cached
/// predictions short-circuit; the rest run through the deduplicating
/// per-node walk against the embedding tier (layered over the shared L2
/// view `l2`, when the caller has one). Output order matches input order;
/// duplicate rows are computed once. Also returns the rows the tier staged
/// for L2 promotion (empty without an L2 view).
///
/// The prediction tier stays exact `f64` in every precision — only the
/// embedding payloads and the arithmetic are reduced, so cached and
/// recomputed predictions agree bitwise within a mode.
///
/// Batch composition never changes a value: the walk evaluates each node
/// as a pure function of `(type, node, level, anchor)`, which is why any
/// partitioning of a request stream across shards — each with its own
/// caches — stays bit-identical to one shard scoring the same rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn predict_batch_cached(
    graph: &HeteroGraph,
    node_type: NodeTypeId,
    anchor: Timestamp,
    rows: &[usize],
    predictions: &mut Lru<usize, f64>,
    embeddings: &mut dyn EmbeddingTier,
    l2: Option<&L2Snapshot>,
    stats: &mut CacheStats,
) -> (Vec<f64>, Vec<(Key, L2Row)>) {
    let mut out = vec![0.0f64; rows.len()];
    let mut miss_rows: Vec<usize> = Vec::new();
    let mut miss_slot: HashMap<usize, usize> = HashMap::new();
    let mut miss_positions: Vec<(usize, usize)> = Vec::new(); // (out idx, miss idx)
    for (i, &row) in rows.iter().enumerate() {
        if let Some(&p) = predictions.get(&row) {
            stats.prediction_hits += 1;
            out[i] = p;
        } else if let Some(&slot) = miss_slot.get(&row) {
            // Duplicate within the batch: one compute, many answers —
            // still a miss for accounting (nothing was cached).
            stats.prediction_misses += 1;
            miss_positions.push((i, slot));
        } else {
            stats.prediction_misses += 1;
            let slot = miss_rows.len();
            miss_rows.push(row);
            miss_slot.insert(row, slot);
            miss_positions.push((i, slot));
        }
    }
    let mut staged = Vec::new();
    if !miss_rows.is_empty() {
        let preds;
        (preds, staged) = embeddings.score(graph, node_type, anchor, &miss_rows, l2, stats);
        for (&row, &p) in miss_rows.iter().zip(&preds) {
            predictions.insert(row, p);
        }
        for (i, slot) in miss_positions {
            out[i] = preds[slot];
        }
    }
    (out, staged)
}
