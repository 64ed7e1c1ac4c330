//! Query execution: compile an analyzed query into a trained model,
//! evaluate it on the temporal test split, and produce deploy-time
//! predictions.

use std::collections::{HashMap, HashSet};

use relgraph_baselines::{
    CoVisitRecommender, FeatureConfig, FeatureEngineer, Gbdt, GbdtConfig, GbdtObjective,
    LinearConfig, LinearRegressor, LogisticRegressor, MajorityClass, MeanRegressor, MulticlassGbdt,
    MulticlassLogReg, PopularityRecommender, PriorClassifier,
};
use relgraph_db2graph::{build_graph, ConvertOptions, GraphMapping};
use relgraph_gnn::{
    train_multiclass_model, train_node_model, train_two_tower, Aggregation, GnnResult, NodeModel,
    TaskKind, TrainConfig, TwoTowerConfig,
};
use relgraph_graph::{HeteroGraph, NodeTypeId, Seed};
use relgraph_metrics as metrics;
use relgraph_obs as obs;
use relgraph_store::{Database, Timestamp, Value};

use crate::analyze::{analyze, AnalyzedQuery, TaskType};
use crate::error::{PqError, PqResult};
use crate::explain::explain;
use crate::parser::parse;
use crate::traintable::{build_training_table, Example, TrainTableConfig, TrainingTable};

/// Named metrics plus per-entity predictions — every `run_*` family
/// returns this pair.
type MetricsAndPredictions = (Vec<(String, f64)>, Vec<Prediction>);

/// A borrowed, already-compiled graph handed to the GNN arms so repeated
/// executions (streaming ingest) skip the full database→graph conversion.
type PrebuiltGraph<'a> = Option<(&'a HeteroGraph, &'a GraphMapping)>;

/// Which model family executes the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Temporal heterogeneous GNN (the paper's approach; default).
    Gnn,
    /// Gradient-boosted trees on engineered features.
    Gbdt,
    /// Logistic regression on engineered features (classification).
    LogReg,
    /// Ridge linear regression on engineered features (regression).
    LinReg,
    /// Class prior / global mean (sanity floor).
    Trivial,
    /// Popularity recommender (recommendation only).
    Popularity,
    /// Co-visitation recommender (recommendation only).
    CoVisit,
}

impl ModelChoice {
    fn from_str(s: &str) -> PqResult<Self> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "gnn" | "rdl" => ModelChoice::Gnn,
            "gbdt" | "boosted" | "trees" => ModelChoice::Gbdt,
            "logreg" | "logistic" => ModelChoice::LogReg,
            "linreg" | "linear" => ModelChoice::LinReg,
            "trivial" | "prior" | "mean" => ModelChoice::Trivial,
            "popularity" | "pop" => ModelChoice::Popularity,
            "covisit" | "cooccurrence" => ModelChoice::CoVisit,
            other => {
                return Err(PqError::Analyze(format!(
                    "unknown model `{other}` (expected gnn, gbdt, logreg, linreg, trivial, \
                     popularity or covisit)"
                )))
            }
        })
    }
}

impl std::fmt::Display for ModelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelChoice::Gnn => "gnn",
            ModelChoice::Gbdt => "gbdt",
            ModelChoice::LogReg => "logreg",
            ModelChoice::LinReg => "linreg",
            ModelChoice::Trivial => "trivial",
            ModelChoice::Popularity => "popularity",
            ModelChoice::CoVisit => "covisit",
        };
        f.write_str(s)
    }
}

/// Execution configuration. `USING` options in the query override the
/// corresponding fields.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Training-table construction.
    pub traintable: TrainTableConfig,
    /// Model family (overridden by `USING model = …`).
    pub model: ModelChoice,
    /// GNN epochs.
    pub epochs: usize,
    /// GNN hidden width.
    pub hidden_dim: usize,
    /// GNN per-hop fanouts (layer count = length).
    pub fanouts: Vec<usize>,
    /// Learning rate (GNN).
    pub lr: f64,
    /// Mini-batch size (GNN).
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Temporal (leak-free) sampling; `false` only for the leakage ablation.
    pub temporal: bool,
    /// Degree-count features in GNN inputs (default); `false` only for the
    /// depth ablation.
    pub degree_features: bool,
    /// GNN neighborhood aggregation (mean / sum / max).
    pub aggregation: Aggregation,
    /// Recommendation list length.
    pub top_k: usize,
    /// GBDT boosting rounds.
    pub gbdt_rounds: usize,
    /// Feature-engineering windows (days; 0 = all history).
    pub feature_windows: Vec<i64>,
    /// Cap on engineered features (the F4 effort sweep).
    pub max_features: Option<usize>,
    /// Cap on deploy-time predictions returned (None = all entities).
    pub max_predictions: Option<usize>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            traintable: TrainTableConfig::default(),
            model: ModelChoice::Gnn,
            epochs: 15,
            hidden_dim: 32,
            fanouts: vec![10, 10],
            lr: 0.01,
            batch_size: 64,
            seed: 17,
            temporal: true,
            degree_features: true,
            aggregation: Aggregation::Mean,
            top_k: 10,
            gbdt_rounds: 120,
            feature_windows: vec![7, 30, 90, 0],
            max_features: None,
            max_predictions: Some(500),
        }
    }
}

impl ExecConfig {
    /// Apply `USING key = value` overrides from the query.
    fn apply_options(&mut self, options: &[(String, String)]) -> PqResult<()> {
        for (key, value) in options {
            let bad = || PqError::Analyze(format!("invalid value `{value}` for option `{key}`"));
            match key.as_str() {
                "model" => self.model = ModelChoice::from_str(value)?,
                "epochs" => self.epochs = value.parse().map_err(|_| bad())?,
                "hidden" | "hidden_dim" => self.hidden_dim = value.parse().map_err(|_| bad())?,
                "lr" => self.lr = value.parse().map_err(|_| bad())?,
                "batch" | "batch_size" => self.batch_size = value.parse().map_err(|_| bad())?,
                "seed" => self.seed = value.parse().map_err(|_| bad())?,
                "layers" | "hops" => {
                    let n: usize = value.parse().map_err(|_| bad())?;
                    let fanout = self.fanouts.first().copied().unwrap_or(10);
                    self.fanouts = vec![fanout; n];
                }
                "fanout" => {
                    let f: usize = value.parse().map_err(|_| bad())?;
                    self.fanouts = self.fanouts.iter().map(|_| f).collect();
                }
                "anchors" => self.traintable.num_anchors = value.parse().map_err(|_| bad())?,
                "top_k" | "k" => self.top_k = value.parse().map_err(|_| bad())?,
                "rounds" | "gbdt_rounds" => self.gbdt_rounds = value.parse().map_err(|_| bad())?,
                "temporal" => {
                    self.temporal = match value.as_str() {
                        "true" | "1" => true,
                        "false" | "0" => false,
                        _ => return Err(bad()),
                    }
                }
                "max_features" => self.max_features = Some(value.parse().map_err(|_| bad())?),
                "agg" | "aggregation" => {
                    self.aggregation = match value.to_ascii_lowercase().as_str() {
                        "mean" => Aggregation::Mean,
                        "sum" => Aggregation::Sum,
                        "max" => Aggregation::Max,
                        _ => return Err(bad()),
                    }
                }
                "degrees" | "degree_features" => {
                    self.degree_features = match value.as_str() {
                        "true" | "1" => true,
                        "false" | "0" => false,
                        _ => return Err(bad()),
                    }
                }
                other => return Err(PqError::Analyze(format!("unknown USING option `{other}`"))),
            }
        }
        Ok(())
    }
}

/// One deploy-time prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The entity's primary-key value.
    pub entity_key: Value,
    /// Probability / predicted value, or ranked item primary keys.
    pub value: PredictionValue,
}

/// The predicted quantity.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictionValue {
    /// Probability (classification) or value (regression).
    Score(f64),
    /// Ranked item primary keys (recommendation).
    Items(Vec<Value>),
    /// Predicted class (MODE queries).
    Class(String),
}

/// Result of executing a predictive query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Inferred task.
    pub task: TaskType,
    /// Model that ran.
    pub model: ModelChoice,
    /// Test-split metrics, e.g. `("auroc", 0.81)`.
    pub metrics: Vec<(String, f64)>,
    /// Deploy-time predictions (anchored at the database's latest time).
    pub predictions: Vec<Prediction>,
    /// The compiled plan, human-readable.
    pub explain: String,
    /// Training-split size (examples).
    pub train_size: usize,
    /// Validation-split size (examples).
    pub val_size: usize,
    /// Test-split size (examples).
    pub test_size: usize,
}

impl QueryOutcome {
    /// Look up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("{n}={v:.4}"))
            .collect();
        format!(
            "{} via {} | train/val/test = {}/{}/{} | {} | {} predictions",
            self.task,
            self.model,
            self.train_size,
            self.val_size,
            self.test_size,
            metrics.join(" "),
            self.predictions.len()
        )
    }
}

/// Parse, analyze, compile, train, evaluate, predict.
pub fn execute(db: &Database, query_text: &str, config: &ExecConfig) -> PqResult<QueryOutcome> {
    let _root = obs::span("pq.execute");
    PreparedQuery::prepare(db, query_text, config)?.run_task(db, None)
}

/// A predictive query parsed and analyzed once, re-runnable cheaply as the
/// database grows — the serving-side half of streaming ingest.
///
/// Analysis binds schema-level facts only (entity table, join path, task
/// type), all of which stay valid under append-only growth; what changes
/// per run is the training table (anchors track the advancing time span)
/// and the graph. [`run_on_graph`](Self::run_on_graph) accepts an
/// incrementally-maintained graph so the database→graph conversion is
/// skipped entirely.
///
/// ```no_run
/// use relgraph_pq::{ExecConfig, PreparedQuery};
/// use relgraph_db2graph::{build_graph, ConvertOptions, GraphCursor, update_graph};
/// # use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
/// # let mut db = generate_ecommerce(&EcommerceConfig::default()).unwrap();
/// let pq = PreparedQuery::prepare(
///     &db,
///     "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
///     &ExecConfig::default(),
/// ).unwrap();
/// let opts = ConvertOptions::default();
/// let (mut graph, mut mapping) = build_graph(&db, &opts).unwrap();
/// let mut cursor = GraphCursor::capture(&db);
/// // ... db.ingest(batch, &policy) ...
/// update_graph(&db, &mut graph, &mut mapping, &mut cursor, &opts).unwrap();
/// let outcome = pq.run_on_graph(&db, &graph, &mapping).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    aq: AnalyzedQuery,
    cfg: ExecConfig,
}

impl PreparedQuery {
    /// Parse, apply `USING` overrides onto `config`, and analyze against
    /// `db`'s schema.
    pub fn prepare(db: &Database, query_text: &str, config: &ExecConfig) -> PqResult<Self> {
        let query = {
            let _s = obs::span("pq.parse");
            parse(query_text)?
        };
        let mut cfg = config.clone();
        cfg.apply_options(&query.options)?;
        let aq = {
            let _s = obs::span("pq.analyze");
            analyze(db, query)?
        };
        Ok(PreparedQuery { aq, cfg })
    }

    /// The analyzed query.
    pub fn analyzed(&self) -> &AnalyzedQuery {
        &self.aq
    }

    /// The effective configuration (`USING` overrides applied).
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Train the query's GNN node model against an already-compiled graph
    /// and hand back the trained model itself instead of a one-shot
    /// [`QueryOutcome`]. This is the serving entry point: the caller keeps
    /// the [`FittedNodeModel`] alive and scores individual entities on a
    /// maintained graph without retraining per request.
    ///
    /// Only classification and regression queries compiled to
    /// [`ModelChoice::Gnn`] can be fitted this way; anything else is a
    /// structured error. `graph`/`mapping` must describe `db` and must
    /// have been built with [`ConvertOptions::default`] (see
    /// [`run_on_graph`](Self::run_on_graph)).
    pub fn fit_node_model(
        &self,
        db: &Database,
        graph: &HeteroGraph,
        mapping: &GraphMapping,
    ) -> PqResult<FittedNodeModel> {
        let _root = obs::span("pq.fit");
        let aq = &self.aq;
        let cfg = &self.cfg;
        if cfg.model != ModelChoice::Gnn {
            return Err(PqError::Execution(format!(
                "serving requires the gnn model, but this query compiled to `{}`",
                cfg.model
            )));
        }
        if !matches!(aq.task, TaskType::Classification | TaskType::Regression) {
            return Err(PqError::Execution(format!(
                "serving supports classification and regression queries, not {}",
                aq.task
            )));
        }
        let table = build_training_table(db, aq, &cfg.traintable)?;
        let run = Run {
            db,
            aq,
            table: &table,
            cfg,
            prebuilt: Some((graph, mapping)),
        };
        let fit = run.fit_node_gnn(None)?;
        Ok(FittedNodeModel {
            model: fit.model,
            node_type: fit.node_type,
            metrics: node_metrics(aq.task, &fit.test, &scalars(&table.test)),
        })
    }

    /// Entity rows alive (present at the deploy anchor and passing the
    /// query's filter) in the database's current state — the population a
    /// serving engine may legitimately be asked to score. Unlike
    /// [`run_on_graph`](Self::run_on_graph) this does not apply
    /// `max_predictions`.
    pub fn deploy_entities(&self, db: &Database) -> PqResult<Vec<usize>> {
        alive_entities(db, &self.aq, deploy_anchor(db))
    }

    /// Primary-key value of an entity row (for labelling predictions).
    pub fn entity_key_of(&self, db: &Database, row: usize) -> Value {
        entity_key(db, &self.aq, row)
    }

    /// Re-run against the database's current state using an
    /// already-compiled graph for the GNN arms (for non-GNN models the
    /// graph is simply unused). `graph`/`mapping` must describe `db` —
    /// e.g. maintained by
    /// [`update_graph`](relgraph_db2graph::update_graph) after each
    /// ingested batch — and must have been built with
    /// [`ConvertOptions::default`], like `execute` does internally.
    pub fn run_on_graph(
        &self,
        db: &Database,
        graph: &HeteroGraph,
        mapping: &GraphMapping,
    ) -> PqResult<QueryOutcome> {
        let _root = obs::span("pq.execute");
        self.run_task(db, Some((graph, mapping)))
    }

    /// The body of every execution: build the training table from `db`'s
    /// current state, then train, evaluate and predict with the task's
    /// runner. `prebuilt` short-circuits graph construction in the GNN arms
    /// (the streaming-ingest path maintains the graph incrementally).
    fn run_task(&self, db: &Database, prebuilt: PrebuiltGraph<'_>) -> PqResult<QueryOutcome> {
        let (aq, cfg) = (&self.aq, &self.cfg);
        let table = build_training_table(db, aq, &cfg.traintable)?;
        let _span = obs::span("pq.run_task");
        let explain_text = explain(db, aq, Some(&table));
        let run = Run {
            db,
            aq,
            table: &table,
            cfg,
            prebuilt,
        };
        let (metrics, predictions) = match aq.task {
            TaskType::Classification | TaskType::Regression => run_node_task(run)?,
            TaskType::Recommendation => run_recommendation(run)?,
            TaskType::Multiclass => run_multiclass(run)?,
        };
        if obs::enabled() {
            for (name, value) in &metrics {
                obs::gauge(&format!("metric.{name}"), *value);
            }
            obs::add("pq.predictions", predictions.len() as u64);
        }
        Ok(QueryOutcome {
            task: aq.task,
            model: cfg.model,
            metrics,
            predictions,
            explain: explain_text,
            train_size: table.train.len(),
            val_size: table.val.len(),
            test_size: table.test.len(),
        })
    }
}

/// A prepared query trained all the way to a reusable GNN node model —
/// the unit of deployment for the serving engine. Produced by
/// [`PreparedQuery::fit_node_model`]; score entities with
/// [`NodeModel::predict`] or the cached per-node path in `relgraph-gnn`.
pub struct FittedNodeModel {
    /// The trained model.
    pub model: NodeModel,
    /// Node type of the query's entity table in the fitting graph.
    pub node_type: NodeTypeId,
    /// Named test-split metrics from the fitting run (same set a full
    /// [`QueryOutcome`] would report).
    pub metrics: Vec<(String, f64)>,
}

impl ExecConfig {
    /// The GNN training configuration of this execution configuration.
    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            fanouts: self.fanouts.clone(),
            hidden_dim: self.hidden_dim,
            seed: self.seed,
            temporal: self.temporal,
            degree_features: self.degree_features,
            aggregation: self.aggregation,
            ..Default::default()
        }
    }
}

/// One run of an analyzed query over its training table: what every task
/// runner reads.
#[derive(Clone, Copy)]
struct Run<'a> {
    db: &'a Database,
    aq: &'a AnalyzedQuery,
    table: &'a TrainingTable,
    cfg: &'a ExecConfig,
    prebuilt: PrebuiltGraph<'a>,
}

/// The entities a run predicts for: those alive at the deploy anchor (the
/// database's latest timestamp), capped at `max_predictions`.
struct Deploy {
    anchor: Timestamp,
    rows: Vec<usize>,
}

impl Deploy {
    /// The deploy rows as seeds of `node_type`.
    fn seeds(&self, node_type: NodeTypeId) -> Vec<Seed> {
        self.rows
            .iter()
            .map(|&r| Seed {
                node_type,
                node: r,
                time: self.anchor,
            })
            .collect()
    }
}

/// A GNN arm's outcome: the trained model, the entity node type it was
/// trained for, and its test-split and deploy predictions.
struct GnnFit<M, P> {
    model: M,
    node_type: NodeTypeId,
    test: Vec<P>,
    deploy: Vec<P>,
}

impl Run<'_> {
    /// The run's [`Deploy`] rows.
    fn deploy(&self) -> PqResult<Deploy> {
        let anchor = deploy_anchor(self.db);
        let mut rows = alive_entities(self.db, self.aq, anchor)?;
        if let Some(cap) = self.cfg.max_predictions {
            rows.truncate(cap);
        }
        Ok(Deploy { anchor, rows })
    }

    /// Run a GNN arm on the graph it trains on — the prebuilt one, or one
    /// compiled from the database here — with the entity node type, checked
    /// to cover every entity row.
    fn with_graph<R>(
        &self,
        arm: impl FnOnce(&HeteroGraph, &GraphMapping, NodeTypeId) -> PqResult<R>,
    ) -> PqResult<R> {
        let built;
        let (graph, mapping) = match self.prebuilt {
            Some(gm) => gm,
            None => {
                built = build_graph(self.db, &ConvertOptions::default())?;
                (&built.0, &built.1)
            }
        };
        let node_type =
            resolve_covered_node_type(self.db, graph, mapping, &self.aq.entity_table, "entity")?;
        arm(graph, mapping, node_type)
    }

    /// The GNN arm of the node-level tasks: train with `train` on the
    /// train/val examples as seeds labelled `labels`, then predict the test
    /// split and `deploy` (when given) with `predict`.
    fn fit_gnn<L: Copy, M, P>(
        &self,
        labels: (&[L], &[L]),
        deploy: Option<&Deploy>,
        train: impl FnOnce(&HeteroGraph, &[(Seed, L)], &[(Seed, L)], &TrainConfig) -> GnnResult<M>,
        predict: impl Fn(&M, &HeteroGraph, &[Seed]) -> Vec<P>,
    ) -> PqResult<GnnFit<M, P>> {
        self.with_graph(|graph, _, node_type| {
            let seeds = |examples: &[Example]| -> Vec<Seed> {
                examples.iter().map(|e| seed_of(node_type, e)).collect()
            };
            let labelled = |examples: &[Example], labels: &[L]| -> Vec<(Seed, L)> {
                seeds(examples)
                    .into_iter()
                    .zip(labels.iter().copied())
                    .collect()
            };
            let train_set = labelled(&self.table.train, labels.0);
            let val_set = labelled(&self.table.val, labels.1);
            let model = train(graph, &train_set, &val_set, &self.cfg.train_config())?;
            let test = predict(&model, graph, &seeds(&self.table.test));
            let deploy =
                deploy.map_or_else(Vec::new, |d| predict(&model, graph, &d.seeds(node_type)));
            Ok(GnnFit {
                model,
                node_type,
                test,
                deploy,
            })
        })
    }

    /// [`fit_gnn`](Self::fit_gnn) for a classification or regression query.
    fn fit_node_gnn(&self, deploy: Option<&Deploy>) -> PqResult<GnnFit<NodeModel, f64>> {
        let task = match self.aq.task {
            TaskType::Classification => TaskKind::Binary,
            _ => TaskKind::Regression,
        };
        let (train, val) = (scalars(&self.table.train), scalars(&self.table.val));
        self.fit_gnn(
            (&train, &val),
            deploy,
            |graph, train, val, tc| train_node_model(graph, task, train, val, tc),
            |model, graph, seeds| model.predict(graph, seeds),
        )
    }

    /// The tabular arms' inputs: engineered features of the train and test
    /// examples at their anchors and of the deploy rows at the deploy
    /// anchor, in that order.
    fn features(&self, deploy: &Deploy) -> PqResult<[Vec<Vec<f64>>; 3]> {
        let exec_err = |e: relgraph_store::StoreError| PqError::Execution(e.to_string());
        let fe = FeatureEngineer::new(
            self.db,
            &self.aq.entity_table,
            FeatureConfig {
                windows_days: self.cfg.feature_windows.clone(),
                max_features: self.cfg.max_features,
                ..Default::default()
            },
        )
        .map_err(exec_err)?;
        let at_anchors = |ex: &[Example]| -> Vec<(usize, Timestamp)> {
            ex.iter().map(|e| (e.entity_row, e.anchor)).collect()
        };
        let deploy_pairs: Vec<(usize, Timestamp)> =
            deploy.rows.iter().map(|&r| (r, deploy.anchor)).collect();
        Ok([
            fe.compute(self.db, &at_anchors(&self.table.train))
                .map_err(exec_err)?,
            fe.compute(self.db, &at_anchors(&self.table.test))
                .map_err(exec_err)?,
            fe.compute(self.db, &deploy_pairs).map_err(exec_err)?,
        ])
    }
}

/// An example's entity row, as a seed of `node_type` at the example's
/// anchor.
fn seed_of(node_type: NodeTypeId, e: &Example) -> Seed {
    Seed {
        node_type,
        node: e.entity_row,
        time: e.anchor,
    }
}

/// The scalar labels of classification or regression examples.
fn scalars(examples: &[Example]) -> Vec<f64> {
    examples.iter().map(|e| e.label.scalar()).collect()
}

/// Deploy anchor: the latest timestamp in the database.
fn deploy_anchor(db: &Database) -> Timestamp {
    db.time_span().map(|(_, hi)| hi).unwrap_or(0)
}

/// Resolve `table` to its node type and verify the graph covers every row
/// the database currently holds for it. The GNN arms index the sampler with
/// raw row ids, so a graph compiled from an older snapshot (or an empty one
/// — zero rows at the anchor timestamp) would read out of bounds and panic
/// deep inside the CSR. Surface the drift as a structured error instead.
fn resolve_covered_node_type(
    db: &Database,
    graph: &HeteroGraph,
    mapping: &GraphMapping,
    table: &str,
    role: &str,
) -> PqResult<NodeTypeId> {
    let node_type = mapping
        .node_type(table)
        .ok_or_else(|| PqError::Execution(format!("{role} table missing from graph")))?;
    let rows = db.table(table)?.len();
    let nodes = graph.num_nodes(node_type);
    if nodes < rows {
        return Err(PqError::Execution(format!(
            "graph is stale for {role} table `{table}`: it has {nodes} node(s) but the \
             database has {rows} row(s); rebuild the graph (or apply pending ingest \
             deltas with update_graph) before running this query"
        )));
    }
    Ok(node_type)
}

/// Entities alive at `anchor` and passing the filter, as row indices.
fn alive_entities(db: &Database, aq: &AnalyzedQuery, anchor: Timestamp) -> PqResult<Vec<usize>> {
    let entity = db.table(&aq.entity_table)?;
    let mut out = Vec::new();
    for row in 0..entity.len() {
        if let Some(p) = &aq.filter {
            if !p
                .eval(entity, row)
                .map_err(|e| PqError::Analyze(e.to_string()))?
            {
                continue;
            }
        }
        if let Some(t) = entity.row_timestamp(row) {
            if t > anchor {
                continue;
            }
        }
        out.push(row);
    }
    Ok(out)
}

fn entity_key(db: &Database, aq: &AnalyzedQuery, row: usize) -> Value {
    let entity = db.table(&aq.entity_table).expect("entity table exists");
    let pk = entity
        .schema()
        .primary_key_index()
        .expect("analyzer checked the pk");
    entity.value(row, pk)
}

fn node_metrics(task: TaskType, preds: &[f64], truth: &[f64]) -> Vec<(String, f64)> {
    match task {
        TaskType::Classification => {
            let labels: Vec<bool> = truth.iter().map(|&v| v > 0.5).collect();
            let mut m = Vec::new();
            if let Some(a) = metrics::auroc(preds, &labels) {
                m.push(("auroc".to_string(), a));
            }
            m.push((
                "accuracy".to_string(),
                metrics::accuracy(preds, &labels, 0.5),
            ));
            m.push(("logloss".to_string(), metrics::log_loss(preds, &labels)));
            m
        }
        TaskType::Regression => {
            let mut m = vec![
                ("mae".to_string(), metrics::mae(preds, truth)),
                ("rmse".to_string(), metrics::rmse(preds, truth)),
            ];
            if let Some(r2) = metrics::r_squared(preds, truth) {
                m.push(("r2".to_string(), r2));
            }
            m
        }
        TaskType::Recommendation | TaskType::Multiclass => {
            unreachable!("node metrics on a ranking/multiclass task")
        }
    }
}

/// Execute a MODE (multiclass) query: class vocabulary from the training
/// split; unseen test classes keep their own indices (never predictable,
/// always counted as errors).
fn run_multiclass(run: Run<'_>) -> PqResult<MetricsAndPredictions> {
    let Run { table, cfg, .. } = run;
    // Class indices in first-seen order, growing `classes` as needed.
    let index = |examples: &[Example], classes: &mut Vec<String>| -> Vec<usize> {
        let mut of = |name: &str| match classes.iter().position(|c| c == name) {
            Some(i) => i,
            None => {
                classes.push(name.to_string());
                classes.len() - 1
            }
        };
        examples.iter().map(|e| of(e.label.class())).collect()
    };
    let mut classes: Vec<String> = Vec::new();
    let train_idx = index(&table.train, &mut classes);
    let val_idx = index(&table.val, &mut classes);
    let k = classes.len();
    if k < 2 {
        return Err(PqError::TrainingTable(format!(
            "MODE training split contains {k} distinct class(es); need at least 2"
        )));
    }
    // Test truth may extend the vocabulary (unseen classes stay wrong).
    let mut ext_classes = classes.clone();
    let test_idx = index(&table.test, &mut ext_classes);
    let n_ext = ext_classes.len();
    let deploy = run.deploy()?;

    let (test_pred, deploy_pred): (Vec<usize>, Vec<usize>) = match cfg.model {
        ModelChoice::Gnn => {
            let fit = run.fit_gnn(
                (&train_idx, &val_idx),
                Some(&deploy),
                |graph, train, val, tc| {
                    train_multiclass_model(graph, classes.clone(), train, val, tc)
                },
                |model, graph, seeds| model.predict(graph, seeds),
            )?;
            (fit.test, fit.deploy)
        }
        ModelChoice::Trivial => {
            let m =
                MajorityClass::fit(&train_idx, k).map_err(|e| PqError::Execution(e.to_string()))?;
            (m.predict(table.test.len()), m.predict(deploy.rows.len()))
        }
        ModelChoice::Gbdt => {
            let [x_train, x_test, x_deploy] = run.features(&deploy)?;
            let gbdt = GbdtConfig {
                rounds: cfg.gbdt_rounds,
                ..Default::default()
            };
            let m = MulticlassGbdt::fit(&x_train, &train_idx, k, &gbdt)?;
            (m.predict(&x_test), m.predict(&x_deploy))
        }
        ModelChoice::LogReg => {
            let [x_train, x_test, x_deploy] = run.features(&deploy)?;
            let m = MulticlassLogReg::fit(&x_train, &train_idx, k, &LinearConfig::default())?;
            (m.predict(&x_test), m.predict(&x_deploy))
        }
        other => {
            return Err(PqError::Analyze(format!(
                "model `{other}` does not support MODE (multiclass) queries"
            )))
        }
    };

    let metrics = vec![
        (
            "accuracy".to_string(),
            metrics::multiclass_accuracy(&test_pred, &test_idx),
        ),
        (
            "macro_f1".to_string(),
            metrics::macro_f1(&test_pred, &test_idx, n_ext),
        ),
        ("classes".to_string(), k as f64),
    ];
    let predictions = deploy
        .rows
        .iter()
        .zip(&deploy_pred)
        .map(|(&row, &c)| Prediction {
            entity_key: entity_key(run.db, run.aq, row),
            value: PredictionValue::Class(classes[c].clone()),
        })
        .collect();
    Ok((metrics, predictions))
}

fn run_node_task(run: Run<'_>) -> PqResult<MetricsAndPredictions> {
    let Run { aq, table, cfg, .. } = run;
    let test_truth = scalars(&table.test);
    let deploy = run.deploy()?;

    let (test_preds, deploy_preds) = match cfg.model {
        ModelChoice::Gnn => {
            let fit = run.fit_node_gnn(Some(&deploy))?;
            (fit.test, fit.deploy)
        }
        ModelChoice::Trivial => {
            let train_labels = scalars(&table.train);
            match aq.task {
                TaskType::Classification => {
                    let m = PriorClassifier::fit(&train_labels);
                    (m.predict(table.test.len()), m.predict(deploy.rows.len()))
                }
                _ => {
                    let m = MeanRegressor::fit(&train_labels);
                    (m.predict(table.test.len()), m.predict(deploy.rows.len()))
                }
            }
        }
        ModelChoice::Gbdt | ModelChoice::LogReg | ModelChoice::LinReg => {
            let [x_train, x_test, x_deploy] = run.features(&deploy)?;
            let y_train = scalars(&table.train);
            let linear = LinearConfig::default();
            match cfg.model {
                ModelChoice::Gbdt => {
                    let objective = match aq.task {
                        TaskType::Classification => GbdtObjective::Binary,
                        _ => GbdtObjective::Regression,
                    };
                    let gbdt = GbdtConfig {
                        rounds: cfg.gbdt_rounds,
                        ..Default::default()
                    };
                    let m = Gbdt::fit(&x_train, &y_train, objective, &gbdt)?;
                    (m.predict(&x_test), m.predict(&x_deploy))
                }
                ModelChoice::LogReg => {
                    let m = LogisticRegressor::fit(&x_train, &y_train, &linear)?;
                    (m.predict_proba(&x_test), m.predict_proba(&x_deploy))
                }
                _ => {
                    let m = LinearRegressor::fit(&x_train, &y_train, &linear)?;
                    (m.predict(&x_test), m.predict(&x_deploy))
                }
            }
        }
        ModelChoice::Popularity | ModelChoice::CoVisit => {
            return Err(PqError::Analyze(format!(
                "model `{}` only applies to recommendation queries",
                cfg.model
            )))
        }
    };

    let _eval = obs::span("pq.eval");
    let metrics = node_metrics(aq.task, &test_preds, &test_truth);
    let predictions = deploy
        .rows
        .iter()
        .zip(&deploy_preds)
        .map(|(&row, &score)| Prediction {
            entity_key: entity_key(run.db, aq, row),
            value: PredictionValue::Score(score),
        })
        .collect();
    Ok((metrics, predictions))
}

/// Entity → time-sorted (interaction time, item row) pairs, derived from
/// the target table (used for history exclusion and baseline training).
fn interaction_index(
    db: &Database,
    aq: &AnalyzedQuery,
) -> PqResult<HashMap<usize, Vec<(Timestamp, usize)>>> {
    let target = db.table(&aq.target_table)?;
    let entity = db.table(&aq.entity_table)?;
    let item_table = db.table(
        aq.item_table
            .as_deref()
            .expect("recommendation has an item table"),
    )?;
    let item_col = target
        .column_by_name(
            aq.value_column
                .as_deref()
                .expect("list_distinct has a column"),
        )
        .expect("analyzer validated the column");
    // Recommendation targets join to the entity directly via the first step.
    let fk_col_name = &aq
        .join_path
        .first()
        .ok_or_else(|| {
            PqError::Analyze("recommendation target must reference the entity table".into())
        })?
        .fk_column;
    let fk_col = target
        .column_by_name(fk_col_name)
        .expect("fk column exists");
    let mut index: HashMap<usize, Vec<(Timestamp, usize)>> = HashMap::new();
    for row in 0..target.len() {
        let ekey = fk_col.get(row);
        let ikey = item_col.get(row);
        if ekey.is_null() || ikey.is_null() {
            continue;
        }
        let (Some(erow), Some(irow), Some(t)) = (
            entity.row_by_key(&ekey),
            item_table.row_by_key(&ikey),
            target.row_timestamp(row),
        ) else {
            continue;
        };
        index.entry(erow).or_default().push((t, irow));
    }
    for v in index.values_mut() {
        v.sort_unstable();
    }
    Ok(index)
}

fn history_before(
    index: &HashMap<usize, Vec<(Timestamp, usize)>>,
    entity: usize,
    anchor: Timestamp,
) -> Vec<usize> {
    match index.get(&entity) {
        Some(rows) => {
            let hi = rows.partition_point(|&(t, _)| t <= anchor);
            rows[..hi].iter().map(|&(_, i)| i).collect()
        }
        None => Vec::new(),
    }
}

fn run_recommendation(run: Run<'_>) -> PqResult<MetricsAndPredictions> {
    let Run {
        db, aq, table, cfg, ..
    } = run;
    let item_table_name = aq.item_table.as_deref().expect("recommendation item table");
    let item_table = db.table(item_table_name)?;
    let index = interaction_index(db, aq)?;
    let k = cfg.top_k;
    let deploy = run.deploy()?;

    // Evaluation targets: test examples with at least one future positive.
    let eval: Vec<&Example> = table
        .test
        .iter()
        .filter(|e| !e.label.items().is_empty())
        .collect();
    if eval.is_empty() {
        return Err(PqError::TrainingTable(
            "no test-split entities with future interactions to evaluate on".into(),
        ));
    }
    let relevant: Vec<HashSet<u64>> = eval
        .iter()
        .map(|e| e.label.items().iter().map(|&i| i as u64).collect())
        .collect();

    let (recommended, deploy_recs): (Vec<Vec<u64>>, Vec<Vec<usize>>) = match cfg.model {
        ModelChoice::Gnn => run.with_graph(|graph, mapping, node_type| {
            let item_type = resolve_covered_node_type(db, graph, mapping, item_table_name, "item")?;
            let to_pairs = |examples: &[Example]| -> Vec<(Seed, usize)> {
                examples
                    .iter()
                    .flat_map(|e| e.label.items().iter().map(|&i| (seed_of(node_type, e), i)))
                    .collect()
            };
            let pairs = to_pairs(&table.train);
            let val_pairs = to_pairs(&table.val);
            let tt_cfg = TwoTowerConfig {
                embed_dim: cfg.hidden_dim.min(32),
                hidden_dim: cfg.hidden_dim,
                fanouts: cfg.fanouts.clone(),
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                // BPR is step-size sensitive; cap below the node-task rate.
                lr: cfg.lr.min(0.005),
                eval_k: cfg.top_k,
                seed: cfg.seed,
                ..Default::default()
            };
            let model = train_two_tower(graph, item_type, &pairs, &val_pairs, &tt_cfg)?;
            let seeds: Vec<Seed> = eval.iter().map(|e| seed_of(node_type, e)).collect();
            let exclude: Vec<HashSet<usize>> = eval
                .iter()
                .map(|e| {
                    history_before(&index, e.entity_row, e.anchor)
                        .into_iter()
                        .collect()
                })
                .collect();
            let recs = model.recommend(graph, &seeds, k, &exclude);
            let deploy_exclude: Vec<HashSet<usize>> = deploy
                .rows
                .iter()
                .map(|&r| {
                    history_before(&index, r, deploy.anchor)
                        .into_iter()
                        .collect()
                })
                .collect();
            let deploy_recs = model.recommend(graph, &deploy.seeds(node_type), k, &deploy_exclude);
            Ok((
                recs.into_iter()
                    .map(|r| r.into_iter().map(|i| i as u64).collect())
                    .collect(),
                deploy_recs,
            ))
        })?,
        ModelChoice::Popularity | ModelChoice::CoVisit | ModelChoice::Trivial => {
            // Fit on interactions visible at the *latest training anchor*.
            let train_cut = table
                .train
                .iter()
                .chain(&table.val)
                .map(|e| e.anchor)
                .max()
                .unwrap_or(deploy.anchor);
            let mut interactions: Vec<(u64, u64)> = Vec::new();
            for (&erow, rows) in &index {
                for &(t, item) in rows {
                    if t <= train_cut {
                        interactions.push((erow as u64, item as u64));
                    }
                }
            }
            // Only the chosen recommender is fitted; Trivial is popularity.
            let recommend: Box<dyn Fn(Vec<u64>) -> Vec<u64>> = match cfg.model {
                ModelChoice::CoVisit => {
                    let m = CoVisitRecommender::fit(&interactions);
                    Box::new(move |history| m.recommend(&history, k))
                }
                _ => {
                    let m = PopularityRecommender::fit(&interactions);
                    Box::new(move |history| m.recommend(k, &history.into_iter().collect()))
                }
            };
            let recommend_for = |entity: usize, anchor: Timestamp| -> Vec<u64> {
                recommend(
                    history_before(&index, entity, anchor)
                        .into_iter()
                        .map(|i| i as u64)
                        .collect(),
                )
            };
            let recs: Vec<Vec<u64>> = eval
                .iter()
                .map(|e| recommend_for(e.entity_row, e.anchor))
                .collect();
            let deploy_recs: Vec<Vec<usize>> = deploy
                .rows
                .iter()
                .map(|&r| {
                    recommend_for(r, deploy.anchor)
                        .into_iter()
                        .map(|i| i as usize)
                        .collect()
                })
                .collect();
            (recs, deploy_recs)
        }
        _ => {
            return Err(PqError::Analyze(format!(
                "model `{}` does not support recommendation queries",
                cfg.model
            )))
        }
    };

    let metrics = vec![
        (
            format!("map@{k}"),
            metrics::map_at_k(&recommended, &relevant, k),
        ),
        (
            format!("recall@{k}"),
            metrics::recall_at_k(&recommended, &relevant, k),
        ),
        (
            format!("ndcg@{k}"),
            metrics::ndcg_at_k(&recommended, &relevant, k),
        ),
    ];
    let item_pk = item_table.schema().primary_key_index().ok_or_else(|| {
        PqError::Analyze(format!(
            "item table `{item_table_name}` needs a primary key"
        ))
    })?;
    let predictions = deploy
        .rows
        .iter()
        .zip(deploy_recs)
        .map(|(&row, items)| Prediction {
            entity_key: entity_key(db, aq, row),
            value: PredictionValue::Items(
                items
                    .into_iter()
                    .map(|i| item_table.value(i, item_pk))
                    .collect(),
            ),
        })
        .collect();
    Ok((metrics, predictions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relgraph_datagen::{generate_ecommerce, EcommerceConfig};

    fn shop() -> Database {
        generate_ecommerce(&EcommerceConfig {
            customers: 60,
            products: 20,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
    }

    fn fast() -> ExecConfig {
        ExecConfig {
            epochs: 4,
            hidden_dim: 16,
            fanouts: vec![5, 5],
            max_predictions: Some(20),
            gbdt_rounds: 40,
            ..Default::default()
        }
    }

    #[test]
    fn classification_end_to_end_gnn() {
        let db = shop();
        let out = execute(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
            &fast(),
        )
        .unwrap();
        assert_eq!(out.task, TaskType::Classification);
        assert_eq!(out.model, ModelChoice::Gnn);
        assert!(out.metric("accuracy").is_some());
        assert!(!out.predictions.is_empty());
        for p in &out.predictions {
            match &p.value {
                PredictionValue::Score(s) => assert!((0.0..=1.0).contains(s)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(out.summary().contains("classification"));
        assert!(out.explain.contains("Join path"));
    }

    #[test]
    fn using_clause_switches_models() {
        let db = shop();
        for model in ["gbdt", "logreg", "trivial"] {
            let out = execute(
                &db,
                &format!(
                    "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id \
                     USING model = {model}"
                ),
                &fast(),
            )
            .unwrap();
            assert!(
                out.metric("accuracy").is_some(),
                "{model} produced no metrics"
            );
        }
    }

    #[test]
    fn regression_end_to_end() {
        let db = shop();
        for model in ["gnn", "gbdt", "linreg", "trivial"] {
            let out = execute(
                &db,
                &format!(
                    "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id \
                     USING model = {model}"
                ),
                &fast(),
            )
            .unwrap();
            assert_eq!(out.task, TaskType::Regression);
            assert!(out.metric("mae").is_some(), "{model} produced no MAE");
        }
    }

    #[test]
    fn recommendation_end_to_end() {
        let db = shop();
        for model in ["gnn", "popularity", "covisit"] {
            let out = execute(
                &db,
                &format!(
                    "PREDICT LIST_DISTINCT(orders.product_id, 0, 60) \
                     FOR EACH customers.customer_id USING model = {model}, k = 5"
                ),
                &fast(),
            )
            .unwrap();
            assert_eq!(out.task, TaskType::Recommendation);
            let recall = out.metric("recall@5").unwrap();
            assert!((0.0..=1.0).contains(&recall), "{model} recall {recall}");
            for p in &out.predictions {
                match &p.value {
                    PredictionValue::Items(items) => assert!(items.len() <= 5),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn where_filter_limits_predictions() {
        let db = shop();
        let all = execute(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id USING model = trivial",
            &ExecConfig { max_predictions: None, ..fast() },
        )
        .unwrap();
        let north = execute(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id \
             WHERE region = 'north' USING model = trivial",
            &ExecConfig {
                max_predictions: None,
                ..fast()
            },
        )
        .unwrap();
        assert!(north.predictions.len() < all.predictions.len());
        assert!(!north.predictions.is_empty());
    }

    #[test]
    fn mode_multiclass_end_to_end() {
        let db = shop();
        for model in ["gnn", "gbdt", "logreg", "trivial"] {
            let out = execute(
                &db,
                &format!(
                    "PREDICT MODE(orders.channel, 0, 60) FOR EACH customers.customer_id \
                     USING model = {model}"
                ),
                &fast(),
            )
            .unwrap_or_else(|e| panic!("{model}: {e}"));
            assert_eq!(out.task, TaskType::Multiclass);
            let acc = out.metric("accuracy").unwrap();
            assert!((0.0..=1.0).contains(&acc), "{model} accuracy {acc}");
            assert!(out.metric("macro_f1").is_some());
            assert!(out.metric("classes").unwrap() >= 2.0);
            for p in &out.predictions {
                match &p.value {
                    PredictionValue::Class(c) => {
                        assert!(["web", "app", "store"].contains(&c.as_str()))
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mode_beats_majority_class() {
        // The sticky-channel signal is in each customer's history. Use a
        // larger fixture than `shop()`: with 60 customers the eval split is
        // ~24 rows and the comparison is at the mercy of sampling noise.
        let db = generate_ecommerce(&EcommerceConfig {
            customers: 150,
            products: 20,
            seed: 5,
            ..Default::default()
        })
        .unwrap();
        let cfg = ExecConfig {
            max_predictions: Some(20),
            gbdt_rounds: 60,
            ..Default::default()
        };
        let q = "PREDICT MODE(orders.channel, 0, 90) FOR EACH customers.customer_id";
        let trivial = execute(&db, &format!("{q} USING model = trivial"), &cfg).unwrap();
        let gbdt = execute(&db, &format!("{q} USING model = gbdt"), &cfg).unwrap();
        assert!(
            gbdt.metric("accuracy").unwrap() > trivial.metric("accuracy").unwrap(),
            "gbdt {:?} should beat majority {:?}",
            gbdt.metric("accuracy"),
            trivial.metric("accuracy")
        );
    }

    #[test]
    fn mode_rejects_bad_columns() {
        let db = shop();
        // FLOAT column.
        assert!(execute(
            &db,
            "PREDICT MODE(orders.amount, 0, 30) FOR EACH customers.customer_id",
            &fast()
        )
        .is_err());
        // FK column.
        assert!(execute(
            &db,
            "PREDICT MODE(orders.product_id, 0, 30) FOR EACH customers.customer_id",
            &fast()
        )
        .is_err());
        // Comparison.
        assert!(execute(
            &db,
            "PREDICT MODE(orders.channel, 0, 30) > 1 FOR EACH customers.customer_id",
            &fast()
        )
        .is_err());
    }

    #[test]
    fn bad_using_option_rejected() {
        let db = shop();
        assert!(execute(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id USING bogus = 1",
            &fast()
        )
        .is_err());
        assert!(execute(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id USING model = nope",
            &fast()
        )
        .is_err());
    }

    #[test]
    fn popularity_on_node_task_rejected() {
        let db = shop();
        let err = execute(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id USING model = popularity",
            &fast(),
        )
        .unwrap_err();
        assert!(matches!(err, PqError::Analyze(_)));
    }
}
