//! The sharded concurrent serving tier: per-core engine shards over
//! epoch-swapped graph snapshots.
//!
//! # Shape
//!
//! A [`ShardedEngine`] — the one serving engine; `shards = 1` is the
//! single-engine case — splits serving into three roles:
//!
//! * **Shards** — `N` worker threads, each exclusively owning one slice of
//!   the two-tier cache (a prediction [`Lru`] and an [`EmbeddingTier`]
//!   built for the configured serving precision when the tier is
//!   assembled).
//!   A shard drains its [`InboxSet`] inbox greedily (a lone job never
//!   waits, a backlog fuses into one inference batch) and scores against
//!   whatever graph snapshot it currently holds. Nothing a shard owns is shared, so
//!   the scoring path takes **no lock**: its only synchronization is one
//!   atomic epoch load per batch.
//! * **The writer** — [`ShardedEngine::ingest`] (serialized by a mutex,
//!   never contended by readers) appends rows, applies the graph delta to
//!   a *private* copy via `update_graph_snapshot`, derives an
//!   [`InvalidationPlan`], and publishes the next [`GraphSnapshot`]
//!   through an [`EpochCell`] — the hand-rolled arc-swap. A failed delta
//!   can only poison the writer's private copy; readers keep the old
//!   snapshot until the rebuild publishes.
//! * **The front-end** — `predict_batch_*` resolves keys against the
//!   current snapshot, scatters rows into per-shard [`InboxSet`] inboxes
//!   by hash, and gathers replies. Routing is **load balancing, not
//!   correctness**: every shard can score every row, and invalidation
//!   plans broadcast to all shards, so any shard count produces
//!   bit-identical predictions (`tests/serving_equivalence.rs` sweeps
//!   shard counts 1/2/4/8). Because placement is only preference, an
//!   idle shard *steals* from a backlogged one — a hot-keyed client
//!   cannot serialize the tier (`serve.steal.*` counters).
//!
//! Under the per-shard L1 caches sits one shared read-mostly
//! [`L2Tier`]: hub embeddings are computed once,
//! promoted, and read lock-free by every shard at a matching epoch —
//! see the [`l2`](crate::l2) module docs for the coherence protocol.
//! With `cfg.affinity`, each shard pins itself to one core
//! ([`pin_current_thread`](crate::affinity::pin_current_thread)) so its
//! L1 slabs and inbox stay local.
//!
//! # Catching up
//!
//! Each published snapshot carries the last [`PLAN_HISTORY`] plans. A
//! shard that slept through epochs `s+1..=e` applies exactly those plans
//! in order; if the snapshot no longer retains plan `s+1`, the shard
//! flushes its slice wholesale instead. A flush is always *safe* (caches
//! only skip work, never change values), so correctness never depends on
//! the history bound — only warm-hit rate does.

use std::collections::VecDeque;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use relgraph_db2graph::{
    build_graph, update_graph_snapshot, ConvertOptions, GraphCursor, GraphMapping,
};
use relgraph_gnn::NodeModel;
use relgraph_graph::{HeteroGraph, NodeTypeId};
use relgraph_obs as obs;
use relgraph_pq::{ExecConfig, PreparedQuery};
use relgraph_store::{Database, IngestPolicy, RowBatch, Timestamp, Value};

use crate::cache::{CacheStats, Lru};
use crate::engine::{
    deploy_anchor, predict_batch_cached, GroupIngestOutcome, IngestOutcome, ServeConfig,
};
use crate::epoch::EpochCell;
use crate::error::{ServeError, ServeResult};
use crate::invalidate::{dirty_closure, evict_dirty, grown_tables, InvalidationPlan};
use crate::l2::L2Tier;
use crate::quant::{embedding_tiers, EmbeddingTier};
use crate::steal::InboxSet;

/// How many invalidation plans a snapshot retains. A shard more than this
/// many epochs behind flushes its cache slice instead of replaying plans —
/// a hit-rate cost, never a correctness one.
pub const PLAN_HISTORY: usize = 8;

/// Preferred depth bound of each shard's inbox, in jobs. Pushes beyond
/// this spill to the least-loaded inbox (`serve.steal.spills`) — the
/// back-pressure valve that keeps a hot-keyed stream from piling work on
/// one shard faster than stealing can drain it.
pub const INBOX_CAP: usize = 128;

/// One published graph version: everything a reader needs, immutable.
pub struct GraphSnapshot {
    /// Version number; plans transition caches between consecutive epochs.
    pub epoch: u64,
    /// The database at this version (key resolution, deploy entities).
    pub db: Database,
    /// The compiled graph at this version.
    pub graph: HeteroGraph,
    /// Deploy anchor at this version.
    pub anchor: Timestamp,
    /// The last [`PLAN_HISTORY`] plans, ascending by epoch, ending at
    /// `epoch`. Empty at epoch 0.
    pub plans: Vec<InvalidationPlan>,
}

/// Immutable state every thread of the tier shares.
struct Shared {
    model: Arc<NodeModel>,
    node_type: NodeTypeId,
    entity_table: String,
    hops: usize,
    cell: EpochCell<GraphSnapshot>,
    /// The shared read-mostly L2 embedding tier under the per-shard L1s.
    l2: L2Tier,
    cfg: ServeConfig,
}

/// A scatter job: score `rows`, send `(tag, predictions)` back. `tag` is
/// the *routing bucket* the gather side indexed its positions by — it
/// identifies the reply regardless of which shard actually computed it
/// (stealing moves jobs between shards, never between buckets).
struct Job {
    rows: Vec<usize>,
    tag: usize,
    reply: Sender<(usize, Vec<f64>)>,
}

struct ShardHandle {
    stats: Arc<Mutex<CacheStats>>,
    thread: Option<JoinHandle<()>>,
}

/// Mutable writer-side state, touched only under the writer mutex.
///
/// Deliberately holds no graph: the previous graph version lives in the
/// published snapshot (immutable, and this writer is its only publisher),
/// so each ingest reads it from there and *moves* the freshly built graph
/// into the next snapshot — one graph copy per delta (inside
/// `update_graph_snapshot`), not two.
struct WriterState {
    db: Database,
    mapping: GraphMapping,
    cursor: GraphCursor,
    opts: ConvertOptions,
    query: PreparedQuery,
    anchor: Timestamp,
    epoch: u64,
    plans: VecDeque<InvalidationPlan>,
}

/// A concurrently served predictive query: `N` cache shards, one writer,
/// epoch-swapped snapshots. See the module docs for the full model.
pub struct ShardedEngine {
    shared: Arc<Shared>,
    inboxes: Arc<InboxSet<Job>>,
    shards: Vec<ShardHandle>,
    writer: Mutex<WriterState>,
    metrics: Vec<(String, f64)>,
}

impl ShardedEngine {
    /// Fit the query on `db` and serve it across `shards` worker threads.
    pub fn fit(
        db: Database,
        query_text: &str,
        exec: &ExecConfig,
        cfg: ServeConfig,
        shards: usize,
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
            shards,
        )
    }

    /// Serve an already fitted model: rebuilds graph state over `db`,
    /// skips training. Training is deterministic given the seed, so
    /// engines built this way from the same database predict
    /// bit-identically to the engine the model was fitted on — this is how
    /// tests stamp out many engines (shard counts, precisions) from one
    /// expensive fit.
    pub fn from_fitted(
        db: Database,
        query: PreparedQuery,
        model: Arc<NodeModel>,
        node_type: NodeTypeId,
        metrics: Vec<(String, f64)>,
        cfg: ServeConfig,
        shards: usize,
    ) -> ServeResult<Self> {
        let opts = ConvertOptions::default();
        let (graph, mapping) = build_graph(&db, &opts)?;
        Self::assemble(
            db, graph, mapping, opts, query, model, node_type, metrics, cfg, shards,
        )
    }

    /// Serve an already fitted model over an already compiled graph — the
    /// warm-restart path. `graph`/`mapping` must be current with respect to
    /// `db` (the loader catches the snapshot up with `update_graph` first);
    /// the engine then serves bit-identically to one built by
    /// [`fit`](Self::fit) on the same database, without re-featurizing a
    /// row or training anything.
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
        shards: usize,
    ) -> ServeResult<Self> {
        let opts = ConvertOptions::default();
        Self::assemble(
            db, graph, mapping, opts, query, model, node_type, metrics, cfg, shards,
        )
    }

    /// Persist this tier's warm-start state (graph + model snapshots) into
    /// `dir` — the writer mutex is held, so the saved state is one
    /// consistent epoch. `query_text` is stored alongside the model so a
    /// restart can re-prepare the query. Returns total bytes written.
    pub fn save_warm_start(&self, dir: &std::path::Path, query_text: &str) -> ServeResult<u64> {
        let writer = self.writer.lock().expect("writer mutex");
        let snapshot = self.shared.cell.load();
        let graph_bytes = crate::persist::save_graph_state(
            dir,
            &snapshot.graph,
            &writer.mapping,
            &writer.cursor,
        )?;
        let model_bytes = crate::persist::save_model(
            &dir.join(crate::persist::MODEL_SNAPSHOT_FILE),
            &crate::persist::ModelSnapshot {
                query_text: query_text.to_string(),
                node_type: self.shared.node_type,
                metrics: self.metrics.clone(),
                state: self.shared.model.export(),
                precision: self.shared.cfg.precision,
            },
        )?;
        Ok(graph_bytes + model_bytes)
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
        shards: usize,
    ) -> ServeResult<Self> {
        let shards = shards.max(1);
        let cursor = GraphCursor::capture(&db);
        let anchor = deploy_anchor(&db);
        let hops = model.sampler_cfg().fanouts.len();
        let entity_table = query.analyzed().entity_table.clone();
        let snapshot = GraphSnapshot {
            epoch: 0,
            db: db.clone(),
            graph,
            anchor,
            plans: Vec::new(),
        };
        let shared = Arc::new(Shared {
            model,
            node_type,
            entity_table,
            hops,
            cell: EpochCell::new(Arc::new(snapshot)),
            l2: L2Tier::new(cfg.l2_cache),
            cfg,
        });
        // Each shard owns an equal slice of the configured cache budget,
        // so total L1 cache memory is shard-count invariant. The L2 tier
        // is one shared structure and keeps its full budget.
        let pred_cap = (shared.cfg.prediction_cache / shards).max(1);
        let emb_cap = (shared.cfg.embedding_cache / shards).max(1);
        let inboxes = Arc::new(InboxSet::new(shards, INBOX_CAP));
        // The one place the tier learns its precision: every shard gets a
        // tier of that mode, all sharing one model view.
        let tiers = embedding_tiers(shared.cfg.precision, &shared.model, emb_cap, shards);
        let handles = tiers
            .into_iter()
            .enumerate()
            .map(|(i, embeddings)| {
                let stats = Arc::new(Mutex::new(CacheStats::default()));
                let shared2 = Arc::clone(&shared);
                let inboxes2 = Arc::clone(&inboxes);
                let stats2 = Arc::clone(&stats);
                let thread = std::thread::Builder::new()
                    .name(format!("serve-shard-{i}"))
                    .spawn(move || shard_loop(i, shared2, inboxes2, stats2, pred_cap, embeddings))
                    .expect("spawn shard worker");
                ShardHandle {
                    stats,
                    thread: Some(thread),
                }
            })
            .collect();
        Ok(ShardedEngine {
            shared,
            inboxes,
            shards: handles,
            metrics,
            writer: Mutex::new(WriterState {
                db,
                mapping,
                cursor,
                opts,
                query,
                anchor,
                epoch: 0,
                plans: VecDeque::new(),
            }),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Most request lines one front-end burst carries into one
    /// [`predict_batch_keys`](Self::predict_batch_keys) call
    /// (`cfg.max_batch`, at least 1).
    pub(crate) fn max_batch(&self) -> usize {
        self.shared.cfg.max_batch.max(1)
    }

    /// Test-split metrics from the fitting run (empty when built via
    /// [`from_fitted`](Self::from_fitted) without them).
    pub fn fit_metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// A shareable handle to the fitted model (cheap clone; pairs with
    /// [`from_fitted`](Self::from_fitted) to stamp out engines from one fit).
    pub fn model_handle(&self) -> Arc<NodeModel> {
        Arc::clone(&self.shared.model)
    }

    /// Node type of the entity table.
    pub fn node_type(&self) -> NodeTypeId {
        self.shared.node_type
    }

    /// The prepared query this engine serves (a clone taken under the
    /// writer lock).
    pub fn query(&self) -> PreparedQuery {
        self.writer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .query
            .clone()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// The currently published snapshot (readers hold it lock-free).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.shared.cell.load()
    }

    /// Per-shard inbox depths (jobs queued, not yet drained by a worker).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.inboxes.depths()
    }

    /// Jobs an idle shard took from another shard's inbox.
    pub fn steals(&self) -> u64 {
        self.inboxes.steals()
    }

    /// Pushes redirected off a full preferred inbox.
    pub fn spills(&self) -> u64 {
        self.inboxes.spills()
    }

    /// The shared L2 embedding tier (for inspection; shards and the
    /// writer drive it internally).
    pub fn l2(&self) -> &L2Tier {
        &self.shared.l2
    }

    /// Cache statistics summed across shards (each slice counted once).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let slice = *s.stats.lock().unwrap_or_else(|p| p.into_inner());
            total.merge(&slice);
        }
        total
    }

    /// Publish the shard-aggregated cache counters (idempotent; see
    /// [`CacheStats::publish`]) plus per-shard queue-depth gauges.
    pub fn publish_stats(&self) {
        if !obs::enabled() {
            return;
        }
        self.stats().publish();
        self.shared.l2.publish_stats();
        obs::counter_to("serve.steal.steals", self.inboxes.steals());
        obs::counter_to("serve.steal.spills", self.inboxes.spills());
        for (i, depth) in self.inboxes.depths().into_iter().enumerate() {
            obs::gauge(&format!("serve.shard.{i}.queue_depth"), depth as f64);
        }
    }

    /// The hash-preferred shard bucket for a row — where
    /// [`predict_batch_rows`](Self::predict_batch_rows) enqueues it before
    /// any stealing moves the job. Exposed so tests and capacity planning
    /// can construct deliberately hot-keyed workloads.
    pub fn shard_of(&self, row: usize) -> usize {
        shard_of_row(row, self.shards.len())
    }

    /// Entity rows that may legitimately be scored right now.
    pub fn deploy_entities(&self) -> ServeResult<Vec<usize>> {
        let w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        Ok(w.query.deploy_entities(&w.db)?)
    }

    /// Score entity rows: scatter into the hash-preferred shard inboxes
    /// (stealing may move a job — the reply is keyed by routing bucket,
    /// not by who computed it), gather in input order. Callable from any
    /// number of threads at once.
    pub fn predict_batch_rows(&self, rows: &[usize]) -> Vec<f64> {
        let t0 = std::time::Instant::now();
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &row) in rows.iter().enumerate() {
            let s = shard_of_row(row, n);
            per_shard[s].push(row);
            positions[s].push(i);
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut sent = 0usize;
        for (s, shard_rows) in per_shard.into_iter().enumerate() {
            if shard_rows.is_empty() {
                continue;
            }
            self.inboxes.push(
                s,
                Job {
                    rows: shard_rows,
                    tag: s,
                    reply: reply_tx.clone(),
                },
            );
            sent += 1;
        }
        drop(reply_tx);
        let mut out = vec![0.0f64; rows.len()];
        for _ in 0..sent {
            let (s, preds) = reply_rx.recv().expect("shard worker replies");
            for (&pos, p) in positions[s].iter().zip(preds) {
                out[pos] = p;
            }
        }
        if obs::enabled() {
            obs::add("serve.requests", rows.len() as u64);
            obs::observe("serve.batch.occupancy", rows.len() as f64);
            obs::record_ns("serve.predict", t0.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Resolve primary keys against the current snapshot and score them.
    /// Unknown keys get per-request errors; the rest are still fused.
    pub fn predict_batch_keys(&self, keys: &[Value]) -> Vec<ServeResult<f64>> {
        let snap = self.shared.cell.load();
        let table = match snap.db.table(&self.shared.entity_table) {
            Ok(t) => t,
            Err(e) => {
                return keys
                    .iter()
                    .map(|_| Err(ServeError::from(e.clone())))
                    .collect()
            }
        };
        let rows: Vec<Option<usize>> = keys.iter().map(|k| table.row_by_key(k)).collect();
        let found: Vec<usize> = rows.iter().filter_map(|r| *r).collect();
        let preds = self.predict_batch_rows(&found);
        let mut it = preds.into_iter();
        keys.iter()
            .zip(rows)
            .map(|(key, row)| match row {
                Some(_) => Ok(it.next().expect("one prediction per resolved row")),
                None => Err(ServeError::UnknownEntity {
                    table: self.shared.entity_table.clone(),
                    key: key.to_string(),
                }),
            })
            .collect()
    }

    /// Append a validated batch and publish the next graph snapshot.
    ///
    /// The writer mutates only its private copies; readers keep serving
    /// the old snapshot until the single release-store in
    /// [`EpochCell::publish`] — they never block, and never observe a
    /// partially applied delta (`crates/serve/tests/sharded.rs` hammers
    /// this under sustained read load).
    pub fn ingest(&self, batch: RowBatch, policy: &IngestPolicy) -> ServeResult<IngestOutcome> {
        let mut group = self.ingest_group(vec![batch], policy)?;
        let report = group.reports.pop().expect("one report per batch")?;
        let mut outcome = group.outcome;
        outcome.report = report;
        Ok(outcome)
    }

    /// Append a *group* of validated batches under **one** writer-lock
    /// hold and publish **one** graph snapshot for the whole group: one
    /// delta application, one dirty closure, one [`InvalidationPlan`], one
    /// epoch bump — where N separate [`ingest`](Self::ingest) calls would
    /// broadcast N plans and swap N snapshots. Per-batch semantics are
    /// unchanged (a rejected batch is an `Err` in
    /// [`GroupIngestOutcome::reports`] and a no-op in the database), and
    /// the published state equals the one N individual ingests would have
    /// reached; only the maintenance cost is amortized. The serving-tier
    /// counterpart of store-level WAL group commit (DESIGN.md §14.8).
    pub fn ingest_group(
        &self,
        batches: Vec<RowBatch>,
        policy: &IngestPolicy,
    ) -> ServeResult<GroupIngestOutcome> {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let _span = obs::span("serve.ingest");
        // The previous graph version is read from the published snapshot:
        // it is immutable and this writer (serialized by the mutex above)
        // is its only publisher, so it matches the writer's cursor exactly.
        let prev = self.shared.cell.load();
        let pre_lens: Vec<usize> = w.db.tables().iter().map(|t| t.len()).collect();
        let mut group = GroupIngestOutcome {
            reports: Vec::with_capacity(batches.len()),
            ..Default::default()
        };
        {
            let _span = obs::span("serve.ingest.apply");
            for batch in batches {
                match w.db.ingest(batch, policy) {
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
        }
        if group.accepted_batches() == 0 {
            // Nothing applied: readers keep the current snapshot; no epoch
            // is spent on a no-op group.
            return Ok(group);
        }
        if obs::enabled() && group.reports.len() > 1 {
            obs::add("serve.invalidate.coalesced", group.reports.len() as u64 - 1);
        }
        let outcome = &mut group.outcome;
        let grown = grown_tables(&w.db, &w.mapping, &pre_lens)?;
        let next_epoch = w.epoch + 1;
        let delta = {
            let _span = obs::span("serve.ingest.delta");
            update_graph_snapshot(&w.db, &prev.graph, &w.mapping, &w.cursor, &w.opts)
        };
        let (graph, plan) = match delta {
            Ok((graph, mapping, cursor, delta)) => {
                outcome.delta = delta;
                let new_anchor = deploy_anchor(&w.db);
                let plan = if new_anchor != w.anchor {
                    // Anchor advance: every cached value took the anchor
                    // as an input; every shard flushes.
                    outcome.flushed = true;
                    InvalidationPlan::flush(next_epoch)
                } else {
                    let _span = obs::span("serve.ingest.closure");
                    // `prev.graph` is the pre-delta graph the closure diffs
                    // features against: the delta built a new graph and
                    // left the published one untouched.
                    let dist = dirty_closure(
                        &w.db,
                        &prev.graph,
                        &graph,
                        &mapping,
                        &grown,
                        self.shared.hops,
                    )?;
                    outcome.dirty_nodes = dist.len();
                    InvalidationPlan::precise(next_epoch, &dist)
                };
                w.mapping = mapping;
                w.cursor = cursor;
                w.anchor = new_anchor;
                (graph, plan)
            }
            Err(_) => {
                // The failed delta only touched its private clone; rebuild
                // from the database and flush every shard.
                let (graph, mapping) = build_graph(&w.db, &w.opts)?;
                w.mapping = mapping;
                w.cursor = GraphCursor::capture(&w.db);
                w.anchor = deploy_anchor(&w.db);
                outcome.rebuilt = true;
                outcome.flushed = true;
                (graph, InvalidationPlan::flush(next_epoch))
            }
        };
        // Evict and republish the shared L2 tier *before* the graph
        // snapshot below: a reader that acquires epoch `next_epoch` must
        // already see an L2 at `next_epoch` (never a stale one) — see the
        // coherence protocol in the `l2` module docs.
        {
            let _span = obs::span("serve.l2.apply_plan");
            self.shared.l2.apply_plan(&plan);
        }
        w.epoch = next_epoch;
        w.plans.push_back(plan);
        while w.plans.len() > PLAN_HISTORY {
            w.plans.pop_front();
        }
        let snapshot = {
            let _span = obs::span("serve.ingest.snapshot");
            GraphSnapshot {
                epoch: next_epoch,
                db: w.db.clone(),
                graph, // moved, not cloned: the writer keeps no copy
                anchor: w.anchor,
                plans: w.plans.iter().cloned().collect(),
            }
        };
        {
            let _span = obs::span("serve.ingest.swap");
            self.shared.cell.publish(Arc::new(snapshot));
        }
        if obs::enabled() {
            obs::add("serve.ingest.dirty_nodes", outcome.dirty_nodes as u64);
            obs::add("serve.epoch.published", 1);
        }
        Ok(group)
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Workers drain what's queued, then `pop_batch` returns `None`.
        self.inboxes.close();
        for s in &mut self.shards {
            if let Some(t) = s.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// Route a row to a shard (splitmix64 finalizer). Pure load balancing:
/// any routing function is correct, this one is just well mixed.
fn shard_of_row(row: usize, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut x = (row as u64) ^ 0x9e37_79b9_7f4a_7c15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// One shard's worker loop: drain jobs (own inbox first, steal on idle),
/// catch the cache slice up to the published epoch, fuse the jobs into
/// one scoring pass layered over the shared L2 tier, reply.
fn shard_loop(
    index: usize,
    shared: Arc<Shared>,
    inboxes: Arc<InboxSet<Job>>,
    stats_out: Arc<Mutex<CacheStats>>,
    pred_cap: usize,
    mut embeddings: Box<dyn EmbeddingTier>,
) {
    if shared.cfg.affinity {
        // Placement hint only; a Failed/Unsupported outcome changes
        // nothing but locality.
        let outcome = crate::affinity::pin_current_thread(index);
        if obs::enabled() && outcome.is_pinned() {
            obs::add("serve.affinity.pinned", 1);
        }
    }
    let mut snap = shared.cell.load();
    let mut local_epoch = snap.epoch;
    let mut predictions: Lru<usize, f64> = Lru::new(pred_cap);
    let mut stats = CacheStats::default();
    let requests_name = format!("serve.shard.{index}.requests");
    while let Some(drain) = inboxes.pop_batch(index, shared.cfg.max_batch) {
        if drain.saturated && obs::enabled() {
            obs::add("serve.batcher.full_drains", 1);
        }
        // One acquire load per drained batch; the slot lock inside
        // `load()` is touched only when the epoch actually moved.
        if shared.cell.epoch() != local_epoch {
            let next = shared.cell.load();
            catch_up(
                &shared,
                &next,
                local_epoch,
                &mut predictions,
                embeddings.as_mut(),
                &mut stats,
            );
            local_epoch = next.epoch;
            snap = next;
        }
        // The shared L2 is consulted only at a matching epoch: the
        // writer republishes L2 *before* the graph, so a mismatch means
        // this shard's own snapshot is what's stale — skip, never cross.
        let l2snap = shared.l2.load();
        let l2 = (l2snap.graph_epoch == local_epoch).then_some(&*l2snap);
        // Fuse every drained job into one pass so concurrent clients'
        // single-row requests still share neighborhood work.
        let jobs = drain.items;
        let mut rows: Vec<usize> = Vec::new();
        let mut spans: Vec<usize> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            rows.extend_from_slice(&job.rows);
            spans.push(job.rows.len());
        }
        let (preds, staged) = predict_batch_cached(
            &snap.graph,
            shared.node_type,
            snap.anchor,
            &rows,
            &mut predictions,
            embeddings.as_mut(),
            l2,
            &mut stats,
        );
        shared.l2.promote(local_epoch, staged);
        // Publish stats BEFORE replying: a caller that reads
        // `ShardedEngine::stats()` right after a returned request must
        // see the counters that request produced, not race the sync.
        stats.prediction_evictions = predictions.evictions;
        embeddings.l1().report(&mut stats);
        *stats_out.lock().unwrap_or_else(|p| p.into_inner()) = stats;
        let mut offset = 0usize;
        for (job, span) in jobs.into_iter().zip(spans) {
            let slice = preds[offset..offset + span].to_vec();
            offset += span;
            // A gatherer that gave up is not an error for the shard.
            let _ = job.reply.send((job.tag, slice));
        }
        if obs::enabled() {
            obs::add(&requests_name, rows.len() as u64);
        }
    }
}

/// Bring one shard's cache slice from `local_epoch` to `snap.epoch` by
/// replaying the snapshot's retained plans, or flush if the shard fell
/// further behind than [`PLAN_HISTORY`].
fn catch_up(
    shared: &Shared,
    snap: &GraphSnapshot,
    local_epoch: u64,
    predictions: &mut Lru<usize, f64>,
    embeddings: &mut dyn EmbeddingTier,
    stats: &mut CacheStats,
) {
    debug_assert!(snap.epoch > local_epoch);
    let needed = local_epoch + 1;
    let retained_from = snap.plans.first().map(|p| p.epoch);
    if retained_from.is_none_or(|from| from > needed) {
        predictions.clear();
        embeddings.l1().clear();
        stats.flushes += 1;
        return;
    }
    // Coalesce the needed plans into one equivalent plan (union of dirty
    // sets at minimum distance, flush dominating) so a shard that slept
    // through N epochs pays one cache sweep, not N.
    let pending: Vec<InvalidationPlan> = snap
        .plans
        .iter()
        .filter(|p| p.epoch >= needed)
        .cloned()
        .collect();
    let coalesced = pending.len().saturating_sub(1);
    let Some(plan) = InvalidationPlan::merge(&pending) else {
        return;
    };
    if coalesced > 0 && obs::enabled() {
        obs::add("serve.invalidate.coalesced", coalesced as u64);
    }
    if plan.flush {
        predictions.clear();
        embeddings.l1().clear();
        stats.flushes += 1;
    } else {
        let (emb, pred) = evict_dirty(
            &plan.dirty,
            shared.hops,
            shared.node_type.0,
            predictions,
            embeddings.l1(),
        );
        stats.invalidated_embeddings += emb;
        stats.invalidated_predictions += pred;
    }
}

#[cfg(test)]
mod tests {
    use super::shard_of_row;

    #[test]
    fn routing_is_total_and_balanced_enough() {
        for shards in [1usize, 2, 4, 8] {
            let mut counts = vec![0usize; shards];
            for row in 0..8000 {
                counts[shard_of_row(row, shards)] += 1;
            }
            let expect = 8000 / shards;
            for &c in &counts {
                assert!(
                    c > expect / 2 && c < expect * 2,
                    "shard load {c} far from {expect} at n={shards}"
                );
            }
        }
    }
}
