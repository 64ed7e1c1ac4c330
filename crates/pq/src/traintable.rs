//! Training-table construction: turning a predictive query into supervised
//! examples without temporal leakage.
//!
//! For a set of historical *anchor times*, every entity alive at an anchor
//! (and passing the query's filter) becomes one example whose label is the
//! query aggregate computed over the window `(anchor + start, anchor + end]`
//! — i.e. the entity's *future* relative to the anchor. Models may only use
//! data from `≤ anchor` (enforced downstream by the temporal sampler and
//! the feature engineer).
//!
//! The split is **temporal**: earlier anchors train, the middle validates,
//! the latest anchors test — matching deployment, where a model trained on
//! the past predicts the future.

use std::collections::{HashMap, HashSet};

use rayon::prelude::*;
use relgraph_store::{Database, Timestamp, SECONDS_PER_DAY};

use crate::analyze::{AnalyzedQuery, TaskType};
use crate::ast::Agg;
use crate::error::{PqError, PqResult};

/// A label: scalar for classification/regression, item-row set for
/// recommendation.
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// Numeric label (classification targets use `0.0`/`1.0`).
    Scalar(f64),
    /// Row indices in the item table (future positives).
    Items(Vec<usize>),
    /// Most frequent categorical value in the window (MODE).
    Class(String),
}

impl Label {
    /// Scalar view (panics on other variants; callers know the task type).
    pub fn scalar(&self) -> f64 {
        match self {
            Label::Scalar(v) => *v,
            other => panic!("label {other:?} has no scalar view"),
        }
    }

    /// Item view.
    pub fn items(&self) -> &[usize] {
        match self {
            Label::Items(v) => v,
            other => panic!("label {other:?} has no item view"),
        }
    }

    /// Class view (MODE labels).
    pub fn class(&self) -> &str {
        match self {
            Label::Class(c) => c,
            other => panic!("label {other:?} has no class view"),
        }
    }
}

/// One supervised example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Row index in the entity table.
    pub entity_row: usize,
    /// Anchor time (features come from `≤ anchor`).
    pub anchor: Timestamp,
    /// Label computed from `(anchor+start, anchor+end]`.
    pub label: Label,
}

/// Temporal split fractions (test takes the remainder).
#[derive(Debug, Clone, Copy)]
pub struct SplitSpec {
    /// Fraction of anchors whose examples train the model.
    pub train_frac: f64,
    /// Fraction of anchors used for validation/early stopping.
    pub val_frac: f64,
}

impl Default for SplitSpec {
    fn default() -> Self {
        SplitSpec {
            train_frac: 0.6,
            val_frac: 0.2,
        }
    }
}

/// Configuration for [`build_training_table`].
#[derive(Debug, Clone)]
pub struct TrainTableConfig {
    /// Number of anchor times.
    pub num_anchors: usize,
    /// Days of history required before the first anchor.
    pub min_history_days: i64,
    /// Temporal split fractions over anchors.
    pub split: SplitSpec,
}

impl Default for TrainTableConfig {
    fn default() -> Self {
        TrainTableConfig {
            num_anchors: 8,
            min_history_days: 30,
            split: SplitSpec::default(),
        }
    }
}

/// The supervised dataset a query compiles into.
#[derive(Debug, Clone)]
pub struct TrainingTable {
    /// Training examples (earliest anchors).
    pub train: Vec<Example>,
    /// Validation examples (middle anchors).
    pub val: Vec<Example>,
    /// Test examples (latest anchors).
    pub test: Vec<Example>,
    /// All anchors, ascending; train anchors precede val precede test.
    pub anchors: Vec<Timestamp>,
    /// Task type copied from the analyzed query.
    pub task: TaskType,
}

impl TrainingTable {
    /// Total examples across splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True if no examples were generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positive rate over a split (classification only).
    pub fn positive_rate(examples: &[Example]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        examples.iter().filter(|e| e.label.scalar() > 0.5).count() as f64 / examples.len() as f64
    }
}

/// Map every target-table row to its entity row by following the FK chain.
fn map_target_rows_to_entity(db: &Database, aq: &AnalyzedQuery) -> PqResult<Vec<Option<usize>>> {
    let target = db.table(&aq.target_table)?;
    if aq.join_path.is_empty() {
        return Ok((0..target.len()).map(Some).collect());
    }
    // current[r] = row index in the "current" table for target row r.
    let mut current: Vec<Option<usize>> = (0..target.len()).map(Some).collect();
    let mut current_table = aq.target_table.clone();
    for step in &aq.join_path {
        debug_assert_eq!(step.table, current_table);
        let table = db.table(&step.table)?;
        let fk = table
            .schema()
            .foreign_key_on(&step.fk_column)
            .ok_or_else(|| {
                PqError::Analyze(format!(
                    "internal: `{}`.`{}` lost its foreign key",
                    step.table, step.fk_column
                ))
            })?;
        let next = db.table(&fk.referenced_table)?;
        let col = table
            .column_by_name(&step.fk_column)
            .expect("fk column exists");
        current = current
            .into_iter()
            .map(|row| {
                let r = row?;
                let key = col.get(r);
                if key.is_null() {
                    None
                } else {
                    next.row_by_key(&key)
                }
            })
            .collect();
        current_table = fk.referenced_table.clone();
    }
    Ok(current)
}

/// Per-target-row payload for label computation.
enum Payload {
    None,
    Value(f64),
    Key(String),
    Item(usize),
}

/// Build the training table for an analyzed query.
pub fn build_training_table(
    db: &Database,
    aq: &AnalyzedQuery,
    cfg: &TrainTableConfig,
) -> PqResult<TrainingTable> {
    let _span = relgraph_obs::span("pq.traintable");
    let entity = db.table(&aq.entity_table)?;
    let target = db.table(&aq.target_table)?;
    let (t0, t1) = db
        .time_span()
        .ok_or_else(|| PqError::TrainingTable("database has no timestamps".into()))?;

    // Anchor schedule.
    let end_offset = aq.query.target.end_days * SECONDS_PER_DAY;
    let first = t0 + cfg.min_history_days * SECONDS_PER_DAY;
    let last = t1 - end_offset;
    if cfg.num_anchors == 0 {
        return Err(PqError::TrainingTable(
            "num_anchors must be positive".into(),
        ));
    }
    if last <= first {
        return Err(PqError::TrainingTable(format!(
            "time span too short: first possible anchor {first} is not before last {last} \
             (need ≥ {} days of history plus the {}-day window)",
            cfg.min_history_days, aq.query.target.end_days
        )));
    }
    let anchors: Vec<Timestamp> = if cfg.num_anchors == 1 {
        vec![last]
    } else {
        (0..cfg.num_anchors)
            .map(|i| first + (last - first) * i as i64 / (cfg.num_anchors as i64 - 1))
            .collect()
    };

    // Entity → time-sorted (target time, payload).
    let target_to_entity = map_target_rows_to_entity(db, aq)?;
    let value_col = aq.value_column.as_ref().map(|c| {
        target
            .column_by_name(c)
            .expect("analyzer validated the value column")
    });
    let item_table = aq.item_table.as_ref().map(|t| db.table(t)).transpose()?;
    let mut by_entity: HashMap<usize, Vec<(Timestamp, usize)>> = HashMap::new();
    for (row, ent) in target_to_entity.iter().enumerate() {
        let Some(ent) = ent else { continue };
        let Some(t) = target.row_timestamp(row) else {
            continue;
        };
        if let Some(p) = &aq.target_filter {
            if !p
                .eval(target, row)
                .map_err(|e| PqError::Analyze(e.to_string()))?
            {
                continue; // conditional aggregate: row doesn't qualify
            }
        }
        by_entity.entry(*ent).or_default().push((t, row));
    }
    for v in by_entity.values_mut() {
        v.sort_unstable();
    }
    let payload = |row: usize| -> Payload {
        match (&aq.query.target.agg, &value_col) {
            (Agg::Count | Agg::Exists, _) => Payload::None,
            (Agg::ListDistinct, Some(col)) => {
                let key = col.get(row);
                if key.is_null() {
                    return Payload::None;
                }
                match item_table.and_then(|it| it.row_by_key(&key)) {
                    Some(r) => Payload::Item(r),
                    None => Payload::None,
                }
            }
            (Agg::Mode, Some(col)) => {
                let v = col.get(row);
                if v.is_null() {
                    Payload::None
                } else {
                    Payload::Key(v.to_string())
                }
            }
            (Agg::CountDistinct, Some(col)) => {
                let v = col.get(row);
                if v.is_null() {
                    Payload::None
                } else {
                    Payload::Key(v.group_key())
                }
            }
            (_, Some(col)) => match col.get_f64(row) {
                Some(v) => Payload::Value(v),
                None => Payload::None,
            },
            (_, None) => Payload::None,
        }
    };

    // Eligible entities (filter evaluated once; aliveness is per anchor).
    let filter_pass: Vec<bool> = match &aq.filter {
        Some(p) => (0..entity.len())
            .map(|i| p.eval(entity, i))
            .collect::<Result<_, _>>()
            .map_err(|e| PqError::Analyze(e.to_string()))?,
        None => vec![true; entity.len()],
    };

    // Emit examples per anchor. Anchors are independent (each reads only
    // the pre-sorted per-entity event lists), so they run in parallel and
    // collect back in anchor order — identical output to the serial loop.
    let start_offset = aq.query.target.start_days * SECONDS_PER_DAY;
    let empty: Vec<(Timestamp, usize)> = Vec::new();
    let emit_anchor = |anchor: Timestamp| {
        let mut examples = Vec::new();
        for (erow, &pass) in filter_pass.iter().enumerate() {
            if !pass {
                continue;
            }
            if let Some(et) = entity.row_timestamp(erow) {
                if et > anchor {
                    continue; // entity does not exist yet
                }
            }
            let rows = by_entity.get(&erow).unwrap_or(&empty);
            let lo = rows.partition_point(|&(t, _)| t <= anchor + start_offset);
            let hi = rows.partition_point(|&(t, _)| t <= anchor + end_offset);
            let window = &rows[lo..hi];
            let label = match aq.query.target.agg {
                Agg::Count => Some(window.len() as f64),
                Agg::Exists => Some(if window.is_empty() { 0.0 } else { 1.0 }),
                Agg::CountDistinct => {
                    let mut set = HashSet::new();
                    for &(_, r) in window {
                        if let Payload::Key(k) = payload(r) {
                            set.insert(k);
                        }
                    }
                    Some(set.len() as f64)
                }
                Agg::Sum => Some(
                    window
                        .iter()
                        .filter_map(|&(_, r)| match payload(r) {
                            Payload::Value(v) => Some(v),
                            _ => None,
                        })
                        .sum(),
                ),
                Agg::Avg | Agg::Min | Agg::Max => {
                    let vals: Vec<f64> = window
                        .iter()
                        .filter_map(|&(_, r)| match payload(r) {
                            Payload::Value(v) => Some(v),
                            _ => None,
                        })
                        .collect();
                    if vals.is_empty() {
                        None // aggregate undefined: skip this example
                    } else {
                        Some(match aq.query.target.agg {
                            Agg::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
                            Agg::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
                            _ => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                        })
                    }
                }
                Agg::Mode => {
                    // Most frequent value; ties break to the smallest
                    // string for determinism. Empty windows are skipped.
                    let mut counts: HashMap<String, usize> = HashMap::new();
                    for &(_, r) in window {
                        if let Payload::Key(k) = payload(r) {
                            *counts.entry(k).or_insert(0) += 1;
                        }
                    }
                    let best = counts
                        .into_iter()
                        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
                    if let Some((class, _)) = best {
                        examples.push(Example {
                            entity_row: erow,
                            anchor,
                            label: Label::Class(class),
                        });
                    }
                    continue;
                }
                Agg::ListDistinct => {
                    let mut seen = HashSet::new();
                    let mut items = Vec::new();
                    for &(_, r) in window {
                        if let Payload::Item(i) = payload(r) {
                            if seen.insert(i) {
                                items.push(i);
                            }
                        }
                    }
                    per_anchor_push_items(&mut examples, erow, anchor, items);
                    continue;
                }
            };
            let Some(mut v) = label else { continue };
            if let Some((op, c)) = &aq.query.target.compare {
                let ord = v.partial_cmp(c).unwrap_or(std::cmp::Ordering::Equal);
                v = if op.eval(ord) { 1.0 } else { 0.0 };
            }
            examples.push(Example {
                entity_row: erow,
                anchor,
                label: Label::Scalar(v),
            });
        }
        examples
    };
    // Each anchor scans every entity once, so `anchors × entities` is the
    // total work, ~0.17 µs per unit on the reference host. Two threads
    // measured 0.84x of inline at 8 000 units, 0.94x at 16 000, 1.08x at
    // 32 000 and 1.11x at 64 000 (EXPERIMENTS.md, "Parallel grain"):
    // below the threshold, ~5 ms of scanning, the halves do not repay a
    // second thread, so the identical closure runs serially instead.
    const PAR_WORK_THRESHOLD: usize = 32_768;
    let work = anchors.len().saturating_mul(entity.len());
    let per_anchor: Vec<Vec<Example>> = if work < PAR_WORK_THRESHOLD {
        anchors.iter().map(|&a| emit_anchor(a)).collect()
    } else {
        anchors.par_iter().map(|&a| emit_anchor(a)).collect()
    };

    // Temporal split over anchors.
    let n = anchors.len();
    let n_train = ((n as f64 * cfg.split.train_frac).round() as usize).clamp(1, n);
    let n_val = ((n as f64 * cfg.split.val_frac).round() as usize).min(n - n_train);
    let mut table = TrainingTable {
        train: Vec::new(),
        val: Vec::new(),
        test: Vec::new(),
        anchors: anchors.clone(),
        task: aq.task,
    };
    for (i, examples) in per_anchor.into_iter().enumerate() {
        let bucket = if i < n_train {
            &mut table.train
        } else if i < n_train + n_val {
            &mut table.val
        } else {
            &mut table.test
        };
        bucket.extend(examples);
    }
    if table.train.is_empty() {
        return Err(PqError::TrainingTable(
            "no training examples were generated".into(),
        ));
    }
    if relgraph_obs::enabled() {
        relgraph_obs::add("pq.traintable.anchors", anchors.len() as u64);
        relgraph_obs::add("pq.traintable.train_examples", table.train.len() as u64);
        relgraph_obs::add("pq.traintable.val_examples", table.val.len() as u64);
        relgraph_obs::add("pq.traintable.test_examples", table.test.len() as u64);
        // Leakage-window stats: the label window each anchor reads from,
        // in days, and the anchor schedule's span.
        relgraph_obs::gauge(
            "pq.traintable.window_start_days",
            aq.query.target.start_days as f64,
        );
        relgraph_obs::gauge(
            "pq.traintable.window_end_days",
            aq.query.target.end_days as f64,
        );
        relgraph_obs::gauge(
            "pq.traintable.anchor_span_days",
            (last - first) as f64 / SECONDS_PER_DAY as f64,
        );
    }
    Ok(table)
}

fn per_anchor_push_items(
    examples: &mut Vec<Example>,
    entity_row: usize,
    anchor: Timestamp,
    items: Vec<usize>,
) {
    examples.push(Example {
        entity_row,
        anchor,
        label: Label::Items(items),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;
    use relgraph_datagen::{generate_ecommerce, EcommerceConfig};

    fn shop() -> Database {
        generate_ecommerce(&EcommerceConfig {
            customers: 40,
            products: 15,
            seed: 2,
            ..Default::default()
        })
        .unwrap()
    }

    fn table_for(db: &Database, q: &str, cfg: &TrainTableConfig) -> TrainingTable {
        let aq = analyze(db, parse(q).unwrap()).unwrap();
        build_training_table(db, &aq, cfg).unwrap()
    }

    #[test]
    fn builds_classification_table() {
        let db = shop();
        let t = table_for(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        assert_eq!(t.task, TaskType::Classification);
        assert!(!t.train.is_empty());
        assert!(!t.test.is_empty());
        // Labels are 0/1.
        for e in t.train.iter().chain(&t.test) {
            let v = e.label.scalar();
            assert!(v == 0.0 || v == 1.0);
        }
        // Both classes appear (the generator plants heterogeneous activity).
        let rate = TrainingTable::positive_rate(&t.train);
        assert!(rate > 0.05 && rate < 0.95, "positive rate {rate}");
    }

    #[test]
    fn anchors_ascend_and_split_temporally() {
        let db = shop();
        let t = table_for(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        for w in t.anchors.windows(2) {
            assert!(w[0] < w[1]);
        }
        let max_train = t.train.iter().map(|e| e.anchor).max().unwrap();
        let min_test = t.test.iter().map(|e| e.anchor).min().unwrap();
        assert!(max_train < min_test, "test anchors must be strictly later");
    }

    #[test]
    fn labels_match_future_window_only() {
        // Hand-built DB: one customer with orders on days 10, 40, 70.
        use relgraph_store::{DataType, Row, TableSchema, Value};
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::builder("customers")
                .column("customer_id", DataType::Int)
                .column("signup", DataType::Timestamp)
                .primary_key("customer_id")
                .time_column("signup")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::builder("orders")
                .column("order_id", DataType::Int)
                .column("customer_id", DataType::Int)
                .column("placed_at", DataType::Timestamp)
                .primary_key("order_id")
                .time_column("placed_at")
                .foreign_key("customer_id", "customers")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("customers", Row::new().push(1i64).push(Value::Timestamp(0)))
            .unwrap();
        for (oid, day) in [(1i64, 10i64), (2, 40), (3, 70)] {
            db.insert(
                "orders",
                Row::new()
                    .push(oid)
                    .push(1i64)
                    .push(Value::Timestamp(day * SECONDS_PER_DAY)),
            )
            .unwrap();
        }
        let aq = analyze(
            &db,
            parse("PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id").unwrap(),
        )
        .unwrap();
        let cfg = TrainTableConfig {
            num_anchors: 2,
            min_history_days: 5,
            split: SplitSpec {
                train_frac: 0.5,
                val_frac: 0.0,
            },
        };
        let t = build_training_table(&db, &aq, &cfg).unwrap();
        // Anchors: day 5 and day 40. Window (anchor, anchor+30]:
        // anchor day 5 → order day 10 only → 1; anchor day 40 → day 70 → 1.
        assert_eq!(t.anchors, vec![5 * SECONDS_PER_DAY, 40 * SECONDS_PER_DAY]);
        assert_eq!(t.train.len(), 1);
        assert_eq!(t.train[0].label, Label::Scalar(1.0));
        assert_eq!(t.test.len(), 1);
        // Day-40 order is exactly at the anchor: excluded (strictly future).
        assert_eq!(t.test[0].label, Label::Scalar(1.0));
    }

    #[test]
    fn filter_restricts_entities() {
        let db = shop();
        let all = table_for(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        let north = table_for(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id \
             WHERE region = 'north'",
            &TrainTableConfig::default(),
        );
        assert!(north.len() < all.len());
        assert!(!north.is_empty());
    }

    #[test]
    fn recommendation_labels_are_item_rows() {
        let db = shop();
        let t = table_for(
            &db,
            "PREDICT LIST_DISTINCT(orders.product_id, 0, 60) FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        assert_eq!(t.task, TaskType::Recommendation);
        let n_products = db.table("products").unwrap().len();
        let mut any_nonempty = false;
        for e in &t.train {
            for &item in e.label.items() {
                assert!(item < n_products);
                any_nonempty = true;
            }
        }
        assert!(any_nonempty, "expected some future purchases");
    }

    #[test]
    fn too_short_timespan_errors() {
        let db = shop();
        let aq = analyze(
            &db,
            parse("PREDICT COUNT(orders.*, 0, 10000) FOR EACH customers.customer_id").unwrap(),
        )
        .unwrap();
        assert!(matches!(
            build_training_table(&db, &aq, &TrainTableConfig::default()),
            Err(PqError::TrainingTable(_))
        ));
    }

    #[test]
    fn conditional_aggregate_filters_target_rows() {
        let db = shop();
        let all = table_for(
            &db,
            "PREDICT COUNT(orders.*, 0, 60) FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        let big = table_for(
            &db,
            "PREDICT COUNT(orders.* WHERE amount > 50, 0, 60) FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        assert_eq!(all.len(), big.len(), "same entities and anchors");
        // Conditional counts are pointwise ≤ unconditional counts and
        // strictly smaller somewhere.
        let mut strictly_smaller = false;
        for (a, b) in all.train.iter().zip(&big.train) {
            assert_eq!(a.entity_row, b.entity_row);
            assert!(b.label.scalar() <= a.label.scalar());
            if b.label.scalar() < a.label.scalar() {
                strictly_smaller = true;
            }
        }
        assert!(strictly_smaller, "filter should exclude some orders");
    }

    #[test]
    fn entities_born_after_anchor_are_excluded() {
        let db = shop();
        let t = table_for(
            &db,
            "PREDICT COUNT(orders.*, 0, 30) FOR EACH customers.customer_id",
            &TrainTableConfig::default(),
        );
        let customers = db.table("customers").unwrap();
        for e in t.train.iter().chain(&t.val).chain(&t.test) {
            let signup = customers.row_timestamp(e.entity_row).unwrap();
            assert!(signup <= e.anchor, "entity predates its anchor");
        }
    }
}
