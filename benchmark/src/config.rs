//! The fixed configuration: what is measured, at what size, under which
//! names. Nothing here follows `--seed` except the data and the key streams.

use std::time::Duration;

use relgraph_pq::ExecConfig;
use relgraph_serve::ServeConfig;

/// The predictive query every workload fits and serves.
pub const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";

/// Serving shards (the reference host has two cores).
pub const SHARDS: usize = 2;

/// Requests in flight per connection in every closed loop.
pub const WINDOW: usize = 16;

/// Paced read rates, requests per second. Set once at roughly 40 % of the
/// closed-loop capacity measured at the commit that introduced the
/// benchmark, then frozen: a paced phase compares latency at the same
/// offered load on both sides of a change.
pub const HOT_RATE: f64 = 8000.0;
pub const COLD_RATE: f64 = 2000.0;

/// Paced ingest schedule of `serve_mixed`, groups per second.
pub const GROUP_RATE: f64 = 10.0;

/// A paced operation that starts later than this after its due instant
/// counts as failed.
pub const LATE_LIMIT: Duration = Duration::from_secs(1);

/// One ingest group: `GROUP_BATCHES` batches of `BATCH_ROWS` `orders` rows,
/// committed under `CommitWindow::batches(GROUP_BATCHES)`.
pub const GROUP_BATCHES: usize = 8;
pub const BATCH_ROWS: usize = 8;

/// Lowest test AUROC at which `query_fit` counts a fit as correct (full
/// scale only; the planted signal needs the full data to show).
pub const MIN_AUROC: f64 = 0.80;

/// Model configuration: the model seed stays at its default, so only the
/// data changes with `--seed`.
pub fn exec_config() -> ExecConfig {
    ExecConfig {
        epochs: 5,
        max_predictions: None,
        ..ExecConfig::default()
    }
}

/// `serve_cold` tiers: the working set (all deploy entities, two embedding
/// levels over ~25.8k nodes) is several times every tier.
pub fn cold_serve_config() -> ServeConfig {
    ServeConfig {
        prediction_cache: 128,
        embedding_cache: 4096,
        l2_cache: 4096,
        ..ServeConfig::default()
    }
}

/// Sizes that differ between the full run and `--quick`.
#[derive(Debug, Clone)]
pub struct Scale {
    pub quick: bool,
    pub customers: usize,
    pub products: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed `pq::execute` repetitions in `query_fit`.
    pub fit_reps: usize,
    /// Timed passes of the fitted model over every deploy entity in
    /// `query_fit`.
    pub score_reps: usize,
    /// Distinct keys `serve_hot` (and the `serve_mixed` reader) draws from.
    pub hot_keys: usize,
    /// Length of the closed-loop read phase.
    pub closed: Duration,
    /// Length of the paced read phase.
    pub paced: Duration,
    /// Groups `ingest_restart` writes back to back, and the warm boots it
    /// then times.
    pub burst_groups: usize,
    pub boots: usize,
    /// Groups `serve_mixed` releases on its fixed schedule.
    pub paced_groups: usize,
    /// Calls per micro-probe in a traced run.
    pub probe_calls: usize,
}

impl Scale {
    /// `seconds` is the run's nominal measuring time: the closed-loop read
    /// phase takes 0.64 of it and the paced read phase 0.20 (throughput
    /// is the noisier of the two by far, so it gets the time). Phases whose
    /// cost depends on state (fits, scoring passes, ingest groups, warm
    /// boots) are fixed work and do not scale.
    pub fn full(seconds: f64) -> Self {
        Scale {
            quick: false,
            customers: 2000,
            products: 200,
            setup_reps: 3,
            fit_reps: 7,
            score_reps: 41,
            hot_keys: 1024,
            closed: Duration::from_secs_f64(seconds * 0.64),
            paced: Duration::from_secs_f64(seconds * 0.20),
            burst_groups: 300,
            boots: 11,
            paced_groups: 150,
            probe_calls: 20_000,
        }
    }

    /// Smoke-test scale: every code path, one second or less per phase.
    pub fn quick() -> Self {
        Scale {
            quick: true,
            customers: 200,
            products: 20,
            setup_reps: 1,
            fit_reps: 3,
            score_reps: 3,
            hot_keys: 128,
            closed: Duration::from_secs(1),
            paced: Duration::from_secs(1),
            burst_groups: 10,
            boots: 2,
            paced_groups: 10,
            probe_calls: 500,
        }
    }

    pub fn to_json(&self, seeds: crate::common::Seeds) -> String {
        format!(
            "{{\"seed\": {}, \"data_seed\": {}, \"quick\": {}, \"customers\": {}, \"products\": {}, \
             \"epochs\": 5, \"shards\": {SHARDS}, \"window\": {WINDOW}, \"precision\": \"f64\", \
             \"setup_reps\": {}, \"fit_reps\": {}, \"score_reps\": {}, \"hot_keys\": {}, \
             \"closed_s\": {}, \"paced_s\": {}, \"hot_rate\": {HOT_RATE}, \
             \"cold_rate\": {COLD_RATE}, \"group_rate\": {GROUP_RATE}, \"burst_groups\": {}, \
             \"boots\": {}, \"paced_groups\": {}}}",
            seeds.streams,
            seeds.data,
            self.quick,
            self.customers,
            self.products,
            self.setup_reps,
            self.fit_reps,
            self.score_reps,
            self.hot_keys,
            self.closed.as_secs_f64(),
            self.paced.as_secs_f64(),
            self.burst_groups,
            self.boots,
            self.paced_groups,
        )
    }
}

/// End-to-end metrics, in print order: `(name, unit)`. `BENCHMARK.json`
/// has one flat list of them and every workload reports every name from its
/// untraced run, so a name is a slot: the README table says which whole-life
/// figure fills it on which workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("val_auroc", "ratio"),
];

/// Per-layer metrics of the traced run, in print order: `(name, unit)`. A
/// layer a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("obs.trace_overhead_share", "ratio"),
    // `VmHWM` at exit. Not an end-to-end metric: which thread's allocator
    // arena a buffer lands in moves it by 20 MiB from run to run.
    ("peak_rss_mb", "MiB"),
    // query_fit: the steps of `pq::execute`, called one by one.
    ("pq.execute_s", "s"),
    ("pq.steps_sum_s", "s"),
    ("pq.parse_us", "us"),
    ("pq.analyze_us", "us"),
    ("pq.traintable_s", "s"),
    ("pq.traintable_examples", "count"),
    ("db2graph.build_s", "s"),
    ("db2graph.nodes", "count"),
    ("db2graph.edges", "count"),
    ("gnn.train_s", "s"),
    ("gnn.train_examples_per_s", "1/s"),
    ("gnn.predict_us_per_seed", "us"),
    ("graph.sample_us_per_seed", "us"),
    ("graph.sampled_edges_per_seed", "count"),
    ("tensor.matmul_calls", "count"),
    ("tensor.matmul_flops", "count"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    // serve front-end: codec, engine call, socket.
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.engine.read_us", "us"),
    ("serve.server.handle_line_us", "us"),
    ("serve.socket.roundtrip_us", "us"),
    ("serve.socket.overhead_us", "us"),
    ("serve.cpu_us_per_read", "us"),
    ("serve.cache.pred_hit_rate", "ratio"),
    ("serve.cache.pred_evictions", "count"),
    // serve inference path: embedding tiers, stealing, the GNN walk.
    ("serve.cache.emb_hit_rate", "ratio"),
    ("serve.cache.emb_evictions", "count"),
    ("serve.l2.hit_rate", "ratio"),
    ("serve.steal.steals", "count"),
    ("serve.steal.spills", "count"),
    ("gnn.infer_us_per_miss", "us"),
    // write path: WAL, delta, invalidation, publish.
    ("store.wal.group_commit_ms", "ms"),
    ("store.wal.bytes_per_row", "B"),
    ("store.wal.syncs_per_group", "count"),
    ("serve.ingest.publish_ms", "ms"),
    ("serve.ingest.dirty_nodes_per_group", "count"),
    ("serve.ingest.invalidated_embeddings_per_group", "count"),
    ("serve.ingest.invalidated_predictions_per_group", "count"),
    ("serve.ingest.flushes", "count"),
    ("serve.ingest.rebuilds", "count"),
    ("serve.ingest.queue_wait_ms", "ms"),
    // persistence: base snapshot, warm-start snapshots, recovery.
    ("store.create_s", "s"),
    ("store.base_bytes_per_row", "B"),
    ("store.open_columns_s", "s"),
    ("store.replayed_batches", "count"),
    ("serve.persist.save_s", "s"),
    ("serve.persist.snapshot_bytes", "B"),
    ("serve.persist.load_s", "s"),
    ("serve.persist.catch_up_nodes", "count"),
    // the load generator itself: tails and lateness, diagnostic only.
    ("loadgen.read_p90_us", "us"),
    ("loadgen.read_p99_us", "us"),
    ("loadgen.read_p999_us", "us"),
    ("loadgen.samples", "count"),
    ("loadgen.max_late_us", "us"),
    ("loadgen.late_share", "ratio"),
];
