//! Warm-restart persistence for the serving tier: save a fitted engine's
//! graph and model snapshots into a data directory, and boot a new engine
//! from them in seconds instead of re-featurizing and re-training.
//!
//! Two artifacts live under the data directory's `snapshots/` folder:
//!
//! * `graph.snap` — the compiled [`HeteroGraph`] + [`GraphMapping`] +
//!   [`GraphCursor`], written by `relgraph-db2graph`'s
//!   [`relgraph_db2graph::save_graph`];
//! * `model.snap` — the query text, entity node type, fit metrics and the
//!   trained model's [`ModelState`], framed with the store's checksummed
//!   blob format under magic `RGMS` (DESIGN.md §14.6).
//!
//! The warm boot path ([`warm_sharded`] / [`warm_sharded_partial`], saved
//! by [`ShardedEngine::save_warm_start`]) loads both,
//! catches the graph up with [`update_graph`] for any rows the database
//! ingested after the snapshots were taken, re-prepares the query against
//! the recovered database, and rebuilds the model from its state.
//! `tests/recovery_equivalence.rs` holds the line that a warm-booted
//! engine's predictions are byte-for-byte identical to a cold
//! fit-from-scratch at shard counts 1 and 4.

use std::path::Path;
use std::sync::Arc;

use relgraph_db2graph::{
    load_graph, save_graph, update_graph, ConvertOptions, DeltaStats, GraphCursor, GraphMapping,
};
use relgraph_gnn::{
    Aggregation, GnnConfig, ModelState, NodeModel, Precision, TaskKind, TrainReport,
};
use relgraph_graph::{EdgeTypeMeta, HeteroGraph, NodeTypeId, SamplerConfig};
use relgraph_nn::Activation;
use relgraph_obs as obs;
use relgraph_pq::{ExecConfig, PreparedQuery};
use relgraph_store::persist::format::{read_blob, write_blob, ByteReader, ByteWriter};
use relgraph_store::{
    BaseColumnSelection, DataDir, Database, PartialLoadReport, RecoveryReport, StoreError,
};
use relgraph_tensor::Tensor;

use crate::engine::ServeConfig;
use crate::error::{ServeError, ServeResult};
use crate::sharded::ShardedEngine;

/// Magic prefix of model snapshot files (`model.snap`).
pub const MAGIC_MODEL: &[u8; 4] = b"RGMS";
/// Body-format version of `model.snap`. Version 1 (implicit — the body
/// began directly with the query text) predates the serving-precision
/// field; version 2 prefixes the body with this version number and the
/// [`Precision`] tag so warm restarts serve in the mode the snapshot was
/// saved under. Version-1 files load as a structured
/// [`StoreError::UnsupportedVersion`], never a panic or a misparse.
pub const MODEL_FORMAT_VERSION: u16 = 2;
/// File name of the graph snapshot inside a snapshots directory.
pub const GRAPH_SNAPSHOT_FILE: &str = "graph.snap";
/// File name of the model snapshot inside a snapshots directory.
pub const MODEL_SNAPSHOT_FILE: &str = "model.snap";

/// Everything `model.snap` stores: the query being served, where its
/// entity table sits in the graph, the fit metrics, and the trained
/// model's full state.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    /// The predictive-query text the engine was fitted on.
    pub query_text: String,
    /// Node type of the query's entity table.
    pub node_type: NodeTypeId,
    /// Named test-split metrics from the fitting run.
    pub metrics: Vec<(String, f64)>,
    /// The trained model, flattened.
    pub state: ModelState,
    /// The serving precision the engine ran under when saved; warm boots
    /// re-serve in the same mode so warm ≡ cold holds per mode.
    pub precision: Precision,
}

/// What a warm boot did.
#[derive(Debug, Clone, Default)]
pub struct WarmBootReport {
    /// The graph delta applied to catch the snapshot up with rows the
    /// database ingested after the snapshot was taken.
    pub catch_up: DeltaStats,
    /// Named test-split metrics restored from the model snapshot.
    pub metrics: Vec<(String, f64)>,
    /// The stored query text.
    pub query_text: String,
}

fn corrupt(path: &Path, message: impl Into<String>) -> ServeError {
    ServeError::Store(StoreError::Corrupt {
        file: path.display().to_string(),
        message: message.into(),
    })
}

fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    let (rows, cols) = t.shape();
    w.put_u64(rows as u64);
    w.put_u64(cols as u64);
    for &v in t.data() {
        w.put_f64(v);
    }
}

fn take_tensor(r: &mut ByteReader<'_>) -> ServeResult<Tensor> {
    let rows = r.take_u64()? as usize;
    let cols = r.take_u64()? as usize;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(r.take_f64()?);
    }
    Ok(Tensor::from_vec(rows, cols, data))
}

fn put_activation(w: &mut ByteWriter, a: Activation) {
    match a {
        Activation::Identity => w.put_u8(0),
        Activation::Relu => w.put_u8(1),
        Activation::LeakyRelu(slope) => {
            w.put_u8(2);
            w.put_f64(slope);
        }
        Activation::Tanh => w.put_u8(3),
        Activation::Sigmoid => w.put_u8(4),
    }
}

fn take_activation(r: &mut ByteReader<'_>, path: &Path) -> ServeResult<Activation> {
    Ok(match r.take_u8()? {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::LeakyRelu(r.take_f64()?),
        3 => Activation::Tanh,
        4 => Activation::Sigmoid,
        t => return Err(corrupt(path, format!("unknown activation tag {t}"))),
    })
}

/// Serialize a [`ModelSnapshot`] into `path` (conventionally
/// `model.snap`). Returns the file size in bytes.
pub fn save_model(path: &Path, snap: &ModelSnapshot) -> ServeResult<u64> {
    let _span = obs::span("snapshot.model.save");
    let mut w = ByteWriter::new();
    w.put_u16(MODEL_FORMAT_VERSION);
    w.put_u8(snap.precision.tag());
    w.put_str(&snap.query_text);
    w.put_u32(snap.node_type.0 as u32);
    w.put_u32(snap.metrics.len() as u32);
    for (name, v) in &snap.metrics {
        w.put_str(name);
        w.put_f64(*v);
    }

    let s = &snap.state;
    w.put_u8(match s.task {
        TaskKind::Binary => 0,
        TaskKind::Regression => 1,
    });
    w.put_f64(s.label_mean);
    w.put_f64(s.label_std);

    w.put_u32(s.sampler_cfg.fanouts.len() as u32);
    for &f in &s.sampler_cfg.fanouts {
        w.put_u64(f as u64);
    }
    w.put_u8(s.sampler_cfg.temporal as u8);
    w.put_u8(s.sampler_cfg.degree_features as u8);

    w.put_u64(s.gnn_config.hidden_dim as u64);
    w.put_u64(s.gnn_config.layers as u64);
    w.put_u64(s.gnn_config.out_dim as u64);
    put_activation(&mut w, s.gnn_config.activation);
    w.put_u8(match s.gnn_config.aggregation {
        Aggregation::Mean => 0,
        Aggregation::Sum => 1,
        Aggregation::Max => 2,
    });
    w.put_u64(s.gnn_config.seed);

    w.put_u32(s.in_dims.len() as u32);
    for &d in &s.in_dims {
        w.put_u64(d as u64);
    }
    w.put_u32(s.seed_type as u32);
    w.put_u32(s.edge_types.len() as u32);
    for et in &s.edge_types {
        w.put_str(&et.name);
        w.put_u32(et.src.0 as u32);
        w.put_u32(et.dst.0 as u32);
    }

    w.put_u32(s.params.len() as u32);
    for t in &s.params {
        put_tensor(&mut w, t);
    }

    w.put_u64(s.report.epochs_run as u64);
    w.put_f64(s.report.best_val_loss);
    w.put_u32(s.report.train_losses.len() as u32);
    for &l in &s.report.train_losses {
        w.put_f64(l);
    }
    w.put_u32(s.report.val_losses.len() as u32);
    for &l in &s.report.val_losses {
        w.put_f64(l);
    }

    let bytes = write_blob(path, MAGIC_MODEL, &w.into_bytes())?;
    obs::add("snapshot.model.bytes", bytes);
    Ok(bytes)
}

/// Load a snapshot written by [`save_model`].
pub fn load_model(path: &Path) -> ServeResult<ModelSnapshot> {
    let _span = obs::span("snapshot.model.load");
    let body = read_blob(path, MAGIC_MODEL)?;
    let name = path.display().to_string();
    let mut r = ByteReader::new(&body, &name);

    // Version-1 bodies began with the query text's u32 length, so this
    // u16 reads its low bytes — any realistic query length differs from
    // the version number, and the mismatch surfaces as a structured
    // version error rather than a misparse deeper in.
    let version = r.take_u16()?;
    if version != MODEL_FORMAT_VERSION {
        return Err(ServeError::Store(StoreError::UnsupportedVersion {
            file: name,
            found: version as u32,
            supported: MODEL_FORMAT_VERSION as u32,
        }));
    }
    let precision =
        Precision::from_tag(r.take_u8()?).ok_or_else(|| corrupt(path, "unknown precision tag"))?;
    let query_text = r.take_str()?;
    let node_type = NodeTypeId(r.take_u32()? as usize);
    let n = r.take_u32()? as usize;
    let mut metrics = Vec::with_capacity(n);
    for _ in 0..n {
        let metric = r.take_str()?;
        metrics.push((metric, r.take_f64()?));
    }

    let task = match r.take_u8()? {
        0 => TaskKind::Binary,
        1 => TaskKind::Regression,
        t => return Err(corrupt(path, format!("unknown task tag {t}"))),
    };
    let label_mean = r.take_f64()?;
    let label_std = r.take_f64()?;

    let n = r.take_u32()? as usize;
    let mut fanouts = Vec::with_capacity(n);
    for _ in 0..n {
        fanouts.push(r.take_u64()? as usize);
    }
    let temporal = r.take_u8()? != 0;
    let degree_features = r.take_u8()? != 0;
    let mut sampler_cfg = SamplerConfig::new(fanouts);
    if !temporal {
        sampler_cfg = sampler_cfg.leaky();
    }
    if !degree_features {
        sampler_cfg = sampler_cfg.without_degree_features();
    }

    let gnn_config = GnnConfig {
        hidden_dim: r.take_u64()? as usize,
        layers: r.take_u64()? as usize,
        out_dim: r.take_u64()? as usize,
        activation: take_activation(&mut r, path)?,
        aggregation: match r.take_u8()? {
            0 => Aggregation::Mean,
            1 => Aggregation::Sum,
            2 => Aggregation::Max,
            t => return Err(corrupt(path, format!("unknown aggregation tag {t}"))),
        },
        seed: r.take_u64()?,
    };

    let n = r.take_u32()? as usize;
    let mut in_dims = Vec::with_capacity(n);
    for _ in 0..n {
        in_dims.push(r.take_u64()? as usize);
    }
    let seed_type = r.take_u32()? as usize;
    let n = r.take_u32()? as usize;
    let mut edge_types = Vec::with_capacity(n);
    for _ in 0..n {
        edge_types.push(EdgeTypeMeta {
            name: r.take_str()?,
            src: NodeTypeId(r.take_u32()? as usize),
            dst: NodeTypeId(r.take_u32()? as usize),
        });
    }

    let n = r.take_u32()? as usize;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(take_tensor(&mut r)?);
    }

    let epochs_run = r.take_u64()? as usize;
    let best_val_loss = r.take_f64()?;
    let n = r.take_u32()? as usize;
    let mut train_losses = Vec::with_capacity(n);
    for _ in 0..n {
        train_losses.push(r.take_f64()?);
    }
    let n = r.take_u32()? as usize;
    let mut val_losses = Vec::with_capacity(n);
    for _ in 0..n {
        val_losses.push(r.take_f64()?);
    }
    if !r.is_empty() {
        return Err(corrupt(
            path,
            format!("{} trailing byte(s) after snapshot body", r.remaining()),
        ));
    }

    Ok(ModelSnapshot {
        query_text,
        node_type,
        metrics,
        state: ModelState {
            task,
            label_mean,
            label_std,
            sampler_cfg,
            gnn_config,
            in_dims,
            seed_type,
            edge_types,
            params,
            report: TrainReport {
                epochs_run,
                best_val_loss,
                train_losses,
                val_losses,
            },
        },
        precision,
    })
}

/// Write the graph-side warm-start state (`graph.snap`) into `dir`,
/// creating it as needed. Returns bytes written.
pub fn save_graph_state(
    dir: &Path,
    graph: &HeteroGraph,
    mapping: &GraphMapping,
    cursor: &GraphCursor,
) -> ServeResult<u64> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServeError::Store(StoreError::Io(format!("{}: {e}", dir.display()))))?;
    Ok(save_graph(
        &dir.join(GRAPH_SNAPSHOT_FILE),
        graph,
        mapping,
        cursor,
    )?)
}

/// The warm boot both loaders share; they differ only in `open`, which
/// opens the database given the graph snapshot's cursor. Loads the graph
/// and model snapshots from `snaps`, catches the graph up with any rows the
/// database holds beyond the snapshot's cursor, re-prepares the query,
/// rebuilds the model, and assembles the engine. The snapshot's stored
/// serving precision overrides `cfg.precision`: a warm boot must agree
/// bitwise with the engine that was saved, which it can only do in the
/// same numeric mode.
fn warm_boot<T>(
    snaps: &Path,
    exec: &ExecConfig,
    mut cfg: ServeConfig,
    shards: usize,
    open: impl FnOnce(&GraphCursor) -> ServeResult<(Database, T)>,
) -> ServeResult<(ShardedEngine, WarmBootReport, T)> {
    let _span = obs::span("serve.warm_boot");
    let (mut graph, mut mapping, mut cursor) = load_graph(&snaps.join(GRAPH_SNAPSHOT_FILE))?;
    let snap = load_model(&snaps.join(MODEL_SNAPSHOT_FILE))?;
    let (db, opened) = open(&cursor)?;
    let catch_up = update_graph(
        &db,
        &mut graph,
        &mut mapping,
        &mut cursor,
        &ConvertOptions::default(),
    )?;
    let query = PreparedQuery::prepare(&db, &snap.query_text, exec)?;
    let model = NodeModel::from_state(snap.state)
        .map_err(|e| ServeError::Engine(format!("model snapshot rejected: {e}")))?;
    let report = WarmBootReport {
        catch_up,
        metrics: snap.metrics.clone(),
        query_text: snap.query_text,
    };
    if obs::enabled() {
        obs::add("serve.warm_boots", 1);
        obs::add("serve.warm_boot.catch_up_nodes", catch_up.new_nodes as u64);
        obs::add("serve.warm_boot.catch_up_edges", catch_up.new_edges as u64);
    }
    cfg.precision = snap.precision;
    let engine = ShardedEngine::from_fitted_graph(
        db,
        graph,
        mapping,
        query,
        Arc::new(model),
        snap.node_type,
        snap.metrics,
        cfg,
        shards,
    )?;
    Ok((engine, report, opened))
}

/// Everything [`warm_sharded_partial`] hands back: the opened data
/// directory, the booted engine, and the three reports describing what the
/// boot did.
pub struct PartialWarmBoot {
    /// The data-directory handle (WAL replayed, torn tail truncated).
    pub data_dir: DataDir,
    /// The booted serving tier.
    pub engine: ShardedEngine,
    /// The warm-boot report (catch-up delta, restored metrics, query).
    pub report: WarmBootReport,
    /// What WAL recovery did during the open.
    pub recovery: RecoveryReport,
    /// How much of the base load was skipped.
    pub partial: PartialLoadReport,
}

/// Boot a [`ShardedEngine`] warm over a **partially materialized** base:
/// open `root` with [`DataDir::open_columns`] instead of a full
/// [`DataDir::open`], loading only each table's key/FK/time columns. This
/// cuts warm-boot time and resident memory on wide tables, and the served
/// predictions are still bitwise-identical to a fully-loaded warm boot
/// (`tests/recovery_equivalence.rs`), because everything inference reads
/// comes from the graph snapshot — node features are baked into
/// `graph.snap`, so the database only backs key lookup, FK validation and
/// temporal anchoring.
///
/// The graph snapshot is loaded *first*: its cursor provides the
/// per-table expected row counts, so any table whose base grew beyond the
/// snapshot (e.g. a compaction folded post-snapshot ingests into the
/// base) is loaded in full and re-featurized by catch-up; tables with
/// unapplied WAL records are likewise forced full by `open_columns`
/// itself. Tables left partial refuse further ingest
/// ([`StoreError::PartiallyLoaded`]) rather than serving fabricated
/// NULLs. The stored serving precision overrides `cfg.precision`, as in
/// [`warm_sharded`].
pub fn warm_sharded_partial(
    root: &Path,
    exec: &ExecConfig,
    cfg: ServeConfig,
    shards: usize,
) -> ServeResult<PartialWarmBoot> {
    let snaps = DataDir::snapshots_path(root);
    let (engine, report, (data_dir, recovery, partial)) =
        warm_boot(&snaps, exec, cfg, shards, |cursor| {
            // Keys and time only: features ride in `graph.snap`, and the
            // two safety rules inside `open_columns` (WAL-touched and
            // unexpectedly grown tables load fully) keep every table the
            // catch-up delta will re-featurize fully materialized.
            let selection = BaseColumnSelection {
                expected_rows: cursor.counts().to_vec(),
                ..Default::default()
            };
            let (data_dir, db, recovery, partial) = DataDir::open_columns(root, &selection)?;
            Ok((db, (data_dir, recovery, partial)))
        })?;
    Ok(PartialWarmBoot {
        data_dir,
        engine,
        report,
        recovery,
        partial,
    })
}

/// Boot a [`ShardedEngine`] warm from the snapshots in `dir` (written by
/// [`ShardedEngine::save_warm_start`]), serving `db` (typically just
/// recovered via [`DataDir::open`]). No featurization, no training —
/// predictions are byte-for-byte what a cold [`ShardedEngine::fit`] on the
/// same database would produce, at any shard count. The stored serving
/// precision overrides `cfg.precision`.
pub fn warm_sharded(
    dir: &Path,
    db: Database,
    exec: &ExecConfig,
    cfg: ServeConfig,
    shards: usize,
) -> ServeResult<(ShardedEngine, WarmBootReport)> {
    let (engine, report, ()) = warm_boot(dir, exec, cfg, shards, |_| Ok((db, ())))?;
    Ok((engine, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
    use std::path::PathBuf;

    const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("relgraph-servesnap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_db() -> Database {
        generate_ecommerce(&EcommerceConfig {
            customers: 60,
            seed: 11,
            ..Default::default()
        })
        .unwrap()
    }

    fn exec() -> ExecConfig {
        ExecConfig {
            epochs: 2,
            hidden_dim: 8,
            fanouts: vec![4, 4],
            ..Default::default()
        }
    }

    #[test]
    fn warm_boot_predicts_bit_identically() {
        let db = small_db();
        let cold =
            ShardedEngine::fit(db.clone(), QUERY, &exec(), ServeConfig::default(), 1).unwrap();
        let dir = tmp("warm-bit-identical");
        cold.save_warm_start(&dir, QUERY).unwrap();

        let (warm, report) = warm_sharded(&dir, db, &exec(), ServeConfig::default(), 1).unwrap();
        assert!(report.catch_up.is_empty());
        assert_eq!(report.query_text, QUERY);
        let rows = cold.deploy_entities().unwrap();
        let a = cold.predict_batch_rows(&rows);
        let b = warm.predict_batch_rows(&rows);
        assert_eq!(
            a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_snapshot_round_trip() {
        let db = small_db();
        let engine = ShardedEngine::fit(db, QUERY, &exec(), ServeConfig::default(), 1).unwrap();
        let dir = tmp("model-round-trip");
        let path = dir.join(MODEL_SNAPSHOT_FILE);
        let snap = ModelSnapshot {
            query_text: QUERY.to_string(),
            node_type: engine.node_type(),
            metrics: engine.fit_metrics().to_vec(),
            state: engine.model_handle().export(),
            precision: Precision::Q8,
        };
        save_model(&path, &snap).unwrap();
        let back = load_model(&path).unwrap();
        assert_eq!(back.query_text, snap.query_text);
        assert_eq!(back.node_type, snap.node_type);
        assert_eq!(back.metrics, snap.metrics);
        assert_eq!(back.precision, Precision::Q8);
        assert_eq!(back.state.params.len(), snap.state.params.len());
        for (a, b) in back.state.params.iter().zip(&snap.state.params) {
            assert_eq!(a.shape(), b.shape());
            let same = a
                .data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "parameter tensors must round-trip bit-exactly");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_model_snapshot_is_structured_error() {
        let db = small_db();
        let engine = ShardedEngine::fit(db, QUERY, &exec(), ServeConfig::default(), 1).unwrap();
        let dir = tmp("model-corrupt");
        let path = dir.join(MODEL_SNAPSHOT_FILE);
        save_model(
            &path,
            &ModelSnapshot {
                query_text: QUERY.to_string(),
                node_type: engine.node_type(),
                metrics: engine.fit_metrics().to_vec(),
                state: engine.model_handle().export(),
                precision: Precision::F64,
            },
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match load_model(&path) {
            Err(ServeError::Store(StoreError::Corrupt { .. })) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version1_model_snapshot_is_structured_error() {
        // Hand-build a version-1 body (it began directly with the query
        // text, no version/precision prefix) inside a valid checksummed
        // blob frame: the loader must report the version mismatch as a
        // structured error, not panic or misparse.
        let dir = tmp("model-v1-corpus");
        let path = dir.join(MODEL_SNAPSHOT_FILE);
        let mut w = ByteWriter::new();
        w.put_str(QUERY); // v1 layout: u32 text length first
        w.put_u32(0); // node type (never reached)
        write_blob(&path, MAGIC_MODEL, &w.into_bytes()).unwrap();
        match load_model(&path) {
            Err(ServeError::Store(StoreError::UnsupportedVersion {
                found, supported, ..
            })) => {
                assert_eq!(supported, MODEL_FORMAT_VERSION as u32);
                assert_ne!(found, MODEL_FORMAT_VERSION as u32);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
