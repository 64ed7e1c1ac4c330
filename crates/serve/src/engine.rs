//! The serving engine: a fitted predictive query, a delta-maintained
//! graph, and two cache tiers with precise ingest-driven invalidation.
//!
//! # Why warm and cold predictions are bit-identical
//!
//! A cached hop-ℓ embedding `h_ℓ(v)` is a pure function of
//! `(type, node, level, anchor)` over the graph's current state, and the
//! per-node walk ([`relgraph_gnn::infer_nodes`]) only ever *reuses* cache
//! entries — it never produces a different value because one exists. So
//! the cache can only be wrong by holding an entry whose inputs changed
//! underneath it. [`ServeEngine::ingest`] closes exactly that hole:
//!
//! 1. **Dirty seeds (distance 0).** After appending a batch and applying
//!    the graph delta, a node is *dirty* if its level-0 input row changed —
//!    its feature row differs bitwise pre/post (z-score statistics shift on
//!    append), it is an endpoint of a new edge (its neighbor list and
//!    windowed degrees changed), or it is itself a new row.
//! 2. **k-hop closure.** `h_ℓ(v)` reads embeddings of nodes up to ℓ hops
//!    from `v`, so a dirty node at distance `d` from `v` can affect
//!    `h_ℓ(v)` only when `ℓ ≥ d`. A BFS over the full adjacency (forward +
//!    reverse edge types make neighbor-of symmetric) labels every node
//!    within `k` hops of a dirty seed with its distance `d`.
//! 3. **Precise eviction.** For each labelled node the engine drops cached
//!    embeddings at levels `d..=k` and, for entity nodes, the tier-1
//!    prediction. Entries at levels `< d` provably kept their inputs and
//!    stay.
//!
//! If the ingest advanced the deploy anchor, *every* entry's anchor input
//! changed (relative-age features, visibility windows), so both tiers are
//! flushed wholesale instead. `tests/serving_equivalence.rs` holds the
//! warm ≡ cold line under randomized ingest schedules.

use std::collections::HashMap;
use std::sync::Arc;

use relgraph_db2graph::{
    build_graph, update_graph, ConvertOptions, DeltaStats, GraphCursor, GraphMapping,
};
use relgraph_gnn::{NodeModel, Precision};
use relgraph_graph::{FeatureMatrix, HeteroGraph, NodeTypeId};
use relgraph_obs as obs;
use relgraph_pq::{ExecConfig, PreparedQuery};
use relgraph_store::{
    Database, IngestPolicy, IngestReport, RowBatch, StoreResult, Timestamp, Value,
};

use crate::cache::{CacheStats, Key, Lru};
use crate::error::{ServeError, ServeResult};
use crate::invalidate::{dirty_closure, evict_dirty, grown_tables, TableGrowth};
use crate::l2::{L2Row, L2Snapshot};
use crate::quant::{embedding_tiers, EmbeddingTier};

/// Serving knobs: batch bounds and cache capacities.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests fused into one inference batch.
    pub max_batch: usize,
    /// Longest a batch waits for co-travellers after its first request.
    pub batch_deadline: std::time::Duration,
    /// Capacity of the final-prediction tier (entries).
    pub prediction_cache: usize,
    /// Capacity of the node-embedding tier (entries).
    pub embedding_cache: usize,
    /// Numeric mode of the inference path and embedding tier, fixed when
    /// the engine is assembled. Training always runs in `f64`; `F32`/`Q8`
    /// down-convert the fitted weights once at assembly (tolerance story:
    /// `DESIGN.md` §15).
    pub precision: Precision,
    /// Write-path group-commit window, in batches: how many consecutive
    /// ingest batches the serving tier coalesces into one WAL fsync and
    /// one snapshot publish (`--commit-window` on the CLI). `1` means
    /// every batch commits and publishes individually (the legacy
    /// behavior).
    pub commit_window: usize,
    /// Capacity of the shared L2 embedding tier (entries), used only by
    /// the sharded engine: hub embeddings promoted here are read
    /// lock-free by every shard instead of being recomputed per shard.
    /// `0` disables the tier. Unlike the per-shard caches this budget is
    /// *not* divided by the shard count — it is one tier.
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
            batch_deadline: std::time::Duration::from_millis(5),
            prediction_cache: 4096,
            embedding_cache: 65536,
            precision: Precision::F64,
            commit_window: 1,
            l2_cache: 65536,
            affinity: false,
        }
    }
}

/// What one [`ServeEngine::ingest`] call did.
#[derive(Debug, Clone, Default)]
pub struct IngestOutcome {
    /// The store's validation/apply report.
    pub report: IngestReport,
    /// The graph delta that was applied.
    pub delta: DeltaStats,
    /// Dirty nodes found (distance-0 seeds plus their k-hop closure).
    pub dirty_nodes: usize,
    /// Embedding entries evicted by precise invalidation.
    pub invalidated_embeddings: u64,
    /// Prediction entries evicted by precise invalidation.
    pub invalidated_predictions: u64,
    /// True when both tiers were flushed wholesale (anchor advanced).
    pub flushed: bool,
    /// True when the delta failed and the graph was rebuilt from scratch.
    pub rebuilt: bool,
}

/// What one group ingest ([`ServeEngine::ingest_group`] /
/// [`ShardedEngine::ingest_group`](crate::ShardedEngine::ingest_group))
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

/// A query fitted once and served many times over a maintained graph.
pub struct ServeEngine {
    db: Database,
    graph: HeteroGraph,
    mapping: GraphMapping,
    cursor: GraphCursor,
    opts: ConvertOptions,
    query: PreparedQuery,
    model: Arc<NodeModel>,
    node_type: NodeTypeId,
    metrics: Vec<(String, f64)>,
    anchor: Timestamp,
    hops: usize,
    predictions: Lru<usize, f64>,
    /// The model view and L1 embedding cache of `cfg.precision`.
    embeddings: Box<dyn EmbeddingTier>,
    stats: CacheStats,
    cfg: ServeConfig,
}

impl ServeEngine {
    /// Compile the database to a graph, train the query's GNN model on it,
    /// and wrap everything into a warm-startable engine. Fails for queries
    /// that do not compile to a node-level GNN model (see
    /// [`PreparedQuery::fit_node_model`]).
    pub fn fit(
        db: Database,
        query_text: &str,
        exec: &ExecConfig,
        cfg: ServeConfig,
    ) -> ServeResult<Self> {
        let _span = obs::span("serve.fit");
        let opts = ConvertOptions::default();
        let (graph, mapping) = build_graph(&db, &opts)?;
        let query = PreparedQuery::prepare(&db, query_text, exec)?;
        let fitted = query.fit_node_model(&db, &graph, &mapping)?;
        Self::assemble(
            db,
            graph,
            mapping,
            opts,
            query,
            Arc::new(fitted.model),
            fitted.node_type,
            fitted.metrics,
            cfg,
        )
    }

    /// Wrap an *already fitted* model into a fresh engine over `db`,
    /// rebuilding graph state but skipping training. Training is
    /// deterministic given the seed, so engines built this way from the
    /// same database predict bit-identically to the engine the model was
    /// fitted on — this is how the sharded tier and the equivalence tests
    /// stamp out many engines from one (expensive) fit.
    pub fn from_fitted(
        db: Database,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
    ) -> ServeResult<Self> {
        let opts = ConvertOptions::default();
        let (graph, mapping) = build_graph(&db, &opts)?;
        Self::assemble(
            db, graph, mapping, opts, query, model, node_type, metrics, cfg,
        )
    }

    /// Wrap an already fitted model *and* an already compiled graph into an
    /// engine — the warm-restart path. `graph`/`mapping` must be current
    /// with respect to `db` (the loader catches the snapshot up with
    /// [`update_graph`] first); the engine then serves bit-identically to
    /// one built by [`ServeEngine::fit`] on the same database, without
    /// re-featurizing a single row or training anything.
    #[allow(clippy::too_many_arguments)]
    pub fn from_fitted_graph(
        db: Database,
        graph: HeteroGraph,
        mapping: GraphMapping,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
    ) -> ServeResult<Self> {
        let opts = ConvertOptions::default();
        Self::assemble(
            db, graph, mapping, opts, query, model, node_type, metrics, cfg,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        db: Database,
        graph: HeteroGraph,
        mapping: GraphMapping,
        opts: ConvertOptions,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
    ) -> ServeResult<Self> {
        let cursor = GraphCursor::capture(&db);
        let anchor = deploy_anchor(&db);
        let hops = model.sampler_cfg().fanouts.len();
        let embeddings = embedding_tiers(cfg.precision, &model, cfg.embedding_cache, 1)
            .pop()
            .expect("one tier requested");
        Ok(ServeEngine {
            db,
            graph,
            mapping,
            cursor,
            opts,
            query,
            model,
            node_type,
            metrics,
            anchor,
            hops,
            predictions: Lru::new(cfg.prediction_cache),
            embeddings,
            stats: CacheStats::default(),
            cfg,
        })
    }

    /// Score entity rows, coalesced into one fused inference pass. Cached
    /// predictions short-circuit; the rest run through the deduplicating
    /// per-node path against the embedding tier. Output order matches
    /// input order; duplicate rows are computed once.
    pub fn predict_batch(&mut self, rows: &[usize]) -> Vec<f64> {
        let t0 = std::time::Instant::now();
        let (out, _) = predict_batch_cached(
            &self.graph,
            self.node_type,
            self.anchor,
            rows,
            &mut self.predictions,
            self.embeddings.as_mut(),
            None,
            &mut self.stats,
        );
        self.sync_stats();
        if obs::enabled() {
            obs::add("serve.requests", rows.len() as u64);
            obs::observe("serve.batch.occupancy", rows.len() as f64);
            obs::record_ns("serve.predict", t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Score one entity row.
    pub fn predict_row(&mut self, row: usize) -> f64 {
        self.predict_batch(&[row])[0]
    }

    /// Resolve primary-key values to rows and score them as one batch.
    /// Unknown keys get per-request errors; the rest are still fused.
    pub fn predict_batch_keys(&mut self, keys: &[Value]) -> Vec<ServeResult<f64>> {
        let entity_table = self.query.analyzed().entity_table.clone();
        let mut rows: Vec<Option<usize>> = Vec::with_capacity(keys.len());
        {
            let table = match self.db.table(&entity_table) {
                Ok(t) => t,
                Err(e) => {
                    return keys
                        .iter()
                        .map(|_| Err(ServeError::from(e.clone())))
                        .collect()
                }
            };
            for key in keys {
                rows.push(table.row_by_key(key));
            }
        }
        let found: Vec<usize> = rows.iter().filter_map(|r| *r).collect();
        let preds = self.predict_batch(&found);
        let mut it = preds.into_iter();
        keys.iter()
            .zip(rows)
            .map(|(key, row)| match row {
                Some(_) => Ok(it.next().expect("one prediction per resolved row")),
                None => Err(ServeError::UnknownEntity {
                    table: entity_table.clone(),
                    key: key.to_string(),
                }),
            })
            .collect()
    }

    /// Append a validated batch, maintain the graph incrementally, and
    /// invalidate exactly the cache entries the delta can have touched
    /// (module docs spell out the argument). If the delta fails (dangling
    /// reference, schema drift) the engine rebuilds the graph from scratch
    /// and flushes both tiers rather than serving from a poisoned graph.
    pub fn ingest(&mut self, batch: RowBatch, policy: &IngestPolicy) -> ServeResult<IngestOutcome> {
        let _span = obs::span("serve.ingest");
        let pre_lens: Vec<usize> = self.db.tables().iter().map(|t| t.len()).collect();
        let report = self.db.ingest(batch, policy)?;
        let mut outcome = IngestOutcome {
            report,
            ..Default::default()
        };
        self.apply_delta_and_invalidate(&pre_lens, &mut outcome)?;
        Ok(outcome)
    }

    /// Append a *group* of validated batches, paying the graph delta,
    /// dirty closure and cache sweep **once** for the whole group instead
    /// of once per batch. Per-batch semantics are unchanged: each batch is
    /// validated and applied independently (a rejected batch is an `Err`
    /// in [`GroupIngestOutcome::reports`] and a no-op in the database),
    /// and the final engine state equals ingesting the batches one by one
    /// — only the amortized maintenance cost differs. The write-path
    /// counterpart of store-level group commit
    /// ([`DataDir::submit_ingest`](relgraph_store::DataDir::submit_ingest));
    /// DESIGN.md §14.8.
    pub fn ingest_group(
        &mut self,
        batches: Vec<RowBatch>,
        policy: &IngestPolicy,
    ) -> ServeResult<GroupIngestOutcome> {
        let _span = obs::span("serve.ingest");
        let pre_lens: Vec<usize> = self.db.tables().iter().map(|t| t.len()).collect();
        let mut group = GroupIngestOutcome {
            reports: Vec::with_capacity(batches.len()),
            ..Default::default()
        };
        for batch in batches {
            match self.db.ingest(batch, policy) {
                Ok(report) => {
                    group.outcome.report.accepted += report.accepted;
                    group.outcome.report.coerced += report.coerced;
                    group.outcome.report.late += report.late;
                    group.outcome.report.quarantined += report.quarantined;
                    group.reports.push(Ok(report));
                }
                Err(e) => group.reports.push(Err(e)),
            }
        }
        if group.accepted_batches() == 0 {
            // Nothing applied: the graph, anchor and caches are untouched.
            return Ok(group);
        }
        if obs::enabled() && group.reports.len() > 1 {
            obs::add("serve.invalidate.coalesced", group.reports.len() as u64 - 1);
        }
        self.apply_delta_and_invalidate(&pre_lens, &mut group.outcome)?;
        Ok(group)
    }

    /// The maintenance half of an ingest: diff the grown tables against
    /// `pre_lens`, apply one graph delta, and invalidate precisely (or
    /// flush on anchor advance / rebuild on delta failure). Shared by
    /// [`ingest`](Self::ingest) and [`ingest_group`](Self::ingest_group).
    fn apply_delta_and_invalidate(
        &mut self,
        pre_lens: &[usize],
        outcome: &mut IngestOutcome,
    ) -> ServeResult<()> {
        // Tables that grew, with their node types and pre-ingest feature
        // matrices (the delta re-featurizes grown tables in full; the
        // bitwise row diff in `dirty_closure` needs the "before").
        let grown: Vec<TableGrowth> = grown_tables(&self.db, &self.mapping, pre_lens)?;
        let pre_features: Vec<FeatureMatrix> = grown
            .iter()
            .map(|g| self.graph.features(g.node_type).clone())
            .collect();

        match update_graph(
            &self.db,
            &mut self.graph,
            &mut self.mapping,
            &mut self.cursor,
            &self.opts,
        ) {
            Ok(delta) => outcome.delta = delta,
            Err(_) => {
                // The graph may hold a partial delta; rebuild it wholesale.
                let (graph, mapping) = build_graph(&self.db, &self.opts)?;
                self.graph = graph;
                self.mapping = mapping;
                self.cursor = GraphCursor::capture(&self.db);
                self.anchor = deploy_anchor(&self.db);
                self.flush_caches();
                outcome.rebuilt = true;
                outcome.flushed = true;
                return Ok(());
            }
        }

        let new_anchor = deploy_anchor(&self.db);
        if new_anchor != self.anchor {
            // Every cached value took the anchor as an input (age features,
            // visibility windows, seed time): nothing survives.
            self.anchor = new_anchor;
            self.flush_caches();
            outcome.flushed = true;
            return Ok(());
        }

        // Dirty seeds + k-hop closure, then precise eviction of embeddings
        // at levels d..=k and predictions of dirty entity nodes (shared
        // with the sharded tier via `invalidate`).
        let dist = dirty_closure(
            &self.db,
            &self.graph,
            &self.mapping,
            &grown,
            &pre_features,
            self.hops,
        )?;
        let dirty: Vec<(usize, usize, usize)> =
            dist.iter().map(|(&(ty, node), &d)| (ty, node, d)).collect();
        let (emb, pred) = evict_dirty(
            &dirty,
            self.hops,
            self.node_type.0,
            &mut self.predictions,
            self.embeddings.l1(),
        );
        outcome.invalidated_embeddings = emb;
        outcome.invalidated_predictions = pred;
        outcome.dirty_nodes = dist.len();
        self.stats.invalidated_embeddings += outcome.invalidated_embeddings;
        self.stats.invalidated_predictions += outcome.invalidated_predictions;
        self.sync_stats();
        if obs::enabled() {
            obs::add("serve.ingest.dirty_nodes", outcome.dirty_nodes as u64);
            obs::add(
                "serve.cache.embedding.invalidations",
                outcome.invalidated_embeddings,
            );
            obs::add(
                "serve.cache.prediction.invalidations",
                outcome.invalidated_predictions,
            );
        }
        Ok(())
    }

    fn flush_caches(&mut self) {
        self.predictions.clear();
        self.embeddings.l1().clear();
        self.stats.flushes += 1;
        if obs::enabled() {
            obs::add("serve.cache.flushes", 1);
        }
    }

    fn sync_stats(&mut self) {
        self.stats.prediction_evictions = self.predictions.evictions;
        self.embeddings.l1().report(&mut self.stats);
    }

    /// Publish cache counters and hit-rate gauges through `relgraph-obs`
    /// (`serve.cache.*`, surfaced in run reports as the schema-version-2
    /// `cache` section). Publication is idempotent (absolute totals via
    /// [`relgraph_obs::counter_to`]) — call it at any cadence, as long as
    /// one engine owns the `serve.cache.*` names per process.
    pub fn publish_stats(&self) {
        self.stats.publish();
    }

    /// Cumulative cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The database being served (append via [`ingest`](Self::ingest)).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The maintained graph.
    pub fn graph(&self) -> &HeteroGraph {
        &self.graph
    }

    /// The graph's table↔node-type mapping.
    pub fn mapping(&self) -> &GraphMapping {
        &self.mapping
    }

    /// The fitted model.
    pub fn model(&self) -> &NodeModel {
        &self.model
    }

    /// A shareable handle to the fitted model (cheap clone; the sharded
    /// tier and tests hand it to [`ServeEngine::from_fitted`]).
    pub fn model_handle(&self) -> Arc<NodeModel> {
        Arc::clone(&self.model)
    }

    /// The numeric mode this engine serves in.
    pub fn precision(&self) -> Precision {
        self.cfg.precision
    }

    /// Test-split metrics, owned (pairs with [`model_handle`](Self::model_handle)
    /// when stamping out engines via [`from_fitted`](Self::from_fitted)).
    pub fn metrics_owned(&self) -> Vec<(String, f64)> {
        self.metrics.clone()
    }

    /// Node type of the entity table.
    pub fn node_type(&self) -> NodeTypeId {
        self.node_type
    }

    /// Current deploy anchor (latest timestamp in the database).
    pub fn anchor(&self) -> Timestamp {
        self.anchor
    }

    /// Test-split metrics from the fitting run.
    pub fn fit_metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// The prepared query this engine serves.
    pub fn query(&self) -> &PreparedQuery {
        &self.query
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Entity rows that may legitimately be scored right now.
    pub fn deploy_entities(&self) -> ServeResult<Vec<usize>> {
        Ok(self.query.deploy_entities(&self.db)?)
    }
}

/// Deploy anchor: the latest timestamp in the database.
pub(crate) fn deploy_anchor(db: &Database) -> Timestamp {
    db.time_span().map(|(_, hi)| hi).unwrap_or(0)
}

/// The cache-aware fused scoring path, factored out of [`ServeEngine`] so
/// each shard of the concurrent tier can run it against its *own* cache
/// slice and whatever graph snapshot it currently holds. Cached
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
/// caches — stays bit-identical to a single engine scoring the same rows.
#[allow(clippy::too_many_arguments)]
pub fn predict_batch_cached(
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
