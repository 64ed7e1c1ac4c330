//! Streaming ingest: validated, policy-driven batch appends.
//!
//! A [`RowBatch`] is an ordered set of rows destined for one or more
//! tables. [`Database::ingest`] validates the whole batch against the
//! current database state *before* applying anything, so a batch rejected
//! by a [`PolicyAction::Reject`] policy leaves the database untouched.
//!
//! Four violation categories are distinguished, each with its own
//! configurable [`PolicyAction`] in the [`IngestPolicy`]:
//!
//! | category | Reject | Quarantine | Coerce |
//! |---|---|---|---|
//! | type / arity mismatch | abort batch | set row aside | convert the cell (`42` → `42.0`, `"7"` → `7`, …); quarantine if impossible |
//! | FK violation | abort batch | set row aside | NULL the FK cell if nullable; quarantine otherwise |
//! | out-of-order timestamp | abort batch | set row aside | accept as-is (the temporal index re-sorts); counted as *late* |
//! | duplicate primary key | abort batch | set row aside | quarantine (a key collision cannot be repaired) |
//!
//! Quarantined rows are retrievable for inspection via
//! [`Database::quarantine`] and can be drained with
//! [`Database::take_quarantine`] (e.g. to repair and re-ingest).
//!
//! Intra-batch references work in arrival order: a row may reference the
//! primary key of an *earlier* row in the same batch (order parents before
//! children).

use std::collections::{HashMap, HashSet};

use relgraph_obs as obs;

use crate::database::Database;
use crate::error::{StoreError, StoreResult};
use crate::row::Row;
use crate::table::PkKey;
use crate::value::{DataType, Timestamp, Value};

/// What to do when a batch row violates one of the validation checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Abort the whole batch with an error; nothing is applied.
    Reject,
    /// Set the offending row aside (retrievable via
    /// [`Database::quarantine`]) and continue with the rest of the batch.
    Quarantine,
    /// Repair the row if possible (category-specific, see the module docs);
    /// fall back to quarantine when no repair exists.
    Coerce,
}

impl std::str::FromStr for PolicyAction {
    type Err = String;

    /// Parse from a CLI-style string (`reject` | `quarantine` | `coerce`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reject" => Ok(PolicyAction::Reject),
            "quarantine" => Ok(PolicyAction::Quarantine),
            "coerce" => Ok(PolicyAction::Coerce),
            other => Err(format!(
                "unknown policy `{other}` (reject|quarantine|coerce)"
            )),
        }
    }
}

/// Per-violation-category actions for one ingest call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestPolicy {
    /// Arity mismatches, cell-type mismatches, NULLs in non-nullable
    /// columns and NULL primary keys.
    pub on_type_mismatch: PolicyAction,
    /// Foreign-key cells with no matching referenced row (existing or
    /// earlier in the batch).
    pub on_fk_violation: PolicyAction,
    /// Rows whose time-column value is older than the table's current
    /// watermark (its maximum ingested timestamp).
    pub on_out_of_order: PolicyAction,
    /// Primary keys already present in the table or earlier in the batch.
    pub on_duplicate_key: PolicyAction,
}

impl IngestPolicy {
    /// Every category aborts the batch (the default; strictest).
    pub fn reject_all() -> Self {
        IngestPolicy {
            on_type_mismatch: PolicyAction::Reject,
            on_fk_violation: PolicyAction::Reject,
            on_out_of_order: PolicyAction::Reject,
            on_duplicate_key: PolicyAction::Reject,
        }
    }

    /// Every category quarantines the offending row.
    pub fn quarantine_all() -> Self {
        IngestPolicy {
            on_type_mismatch: PolicyAction::Quarantine,
            on_fk_violation: PolicyAction::Quarantine,
            on_out_of_order: PolicyAction::Quarantine,
            on_duplicate_key: PolicyAction::Quarantine,
        }
    }

    /// Every category tries to repair (falling back to quarantine).
    pub fn coerce_all() -> Self {
        IngestPolicy {
            on_type_mismatch: PolicyAction::Coerce,
            on_fk_violation: PolicyAction::Coerce,
            on_out_of_order: PolicyAction::Coerce,
            on_duplicate_key: PolicyAction::Coerce,
        }
    }
}

impl Default for IngestPolicy {
    fn default() -> Self {
        IngestPolicy::reject_all()
    }
}

/// An ordered set of rows to append, possibly spanning several tables.
#[derive(Debug, Clone, Default)]
pub struct RowBatch {
    rows: Vec<(String, Row)>,
}

impl RowBatch {
    /// Empty batch.
    pub fn new() -> Self {
        RowBatch::default()
    }

    /// Append a row destined for `table` (chainable).
    pub fn with(mut self, table: impl Into<String>, row: Row) -> Self {
        self.rows.push((table.into(), row));
        self
    }

    /// Append a row destined for `table`.
    pub fn push(&mut self, table: impl Into<String>, row: Row) {
        self.rows.push((table.into(), row));
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(table, row)` pairs in arrival order.
    pub fn rows(&self) -> &[(String, Row)] {
        &self.rows
    }

    /// Append rows parsed *leniently* from CSV (see
    /// [`crate::csv::read_csv_batch`]): fields that fail to parse as their
    /// column type are kept as raw text so the ingest policy can coerce or
    /// quarantine them. Returns the number of rows appended.
    pub fn push_csv<R: std::io::BufRead>(
        &mut self,
        table: &str,
        schema: &crate::schema::TableSchema,
        reader: R,
    ) -> StoreResult<usize> {
        let rows = crate::csv::read_csv_batch(schema, reader)?;
        let n = rows.len();
        for row in rows {
            self.rows.push((table.to_string(), row));
        }
        Ok(n)
    }
}

/// A row set aside by a [`PolicyAction::Quarantine`] (or a failed coerce).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedRow {
    /// Destination table.
    pub table: String,
    /// Index of the row within its batch.
    pub batch_row: usize,
    /// The offending row, as submitted (before any coercion).
    pub row: Row,
    /// Human-readable reason.
    pub reason: String,
}

/// Outcome of one [`Database::ingest`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Rows applied to their tables.
    pub accepted: usize,
    /// Accepted rows with at least one coerced cell.
    pub coerced: usize,
    /// Accepted rows older than their table's watermark (out-of-order
    /// under [`PolicyAction::Coerce`]).
    pub late: usize,
    /// Rows set aside; details live in [`Database::quarantine`].
    pub quarantined: usize,
}

impl IngestReport {
    /// Total rows the batch contained.
    pub fn total(&self) -> usize {
        self.accepted + self.quarantined
    }
}

/// Attempt a lossless-ish conversion of `v` into type `ty`.
fn coerce_value(v: &Value, ty: DataType) -> Option<Value> {
    match (v, ty) {
        (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
        (Value::Int(i), DataType::Timestamp) => Some(Value::Timestamp(*i)),
        (Value::Int(i), DataType::Bool) => match i {
            0 => Some(Value::Bool(false)),
            1 => Some(Value::Bool(true)),
            _ => None,
        },
        (Value::Timestamp(t), DataType::Int) => Some(Value::Int(*t)),
        (Value::Timestamp(t), DataType::Float) => Some(Value::Float(*t as f64)),
        (Value::Float(f), DataType::Int) if f.fract() == 0.0 && f.abs() < 9.0e18 => {
            Some(Value::Int(*f as i64))
        }
        (Value::Float(f), DataType::Timestamp) if f.fract() == 0.0 && f.abs() < 9.0e18 => {
            Some(Value::Timestamp(*f as i64))
        }
        (Value::Bool(b), DataType::Int) => Some(Value::Int(i64::from(*b))),
        (Value::Text(s), DataType::Int) => s.trim().parse().ok().map(Value::Int),
        (Value::Text(s), DataType::Float) => s.trim().parse().ok().map(Value::Float),
        (Value::Text(s), DataType::Timestamp) => s.trim().parse().ok().map(Value::Timestamp),
        (Value::Text(s), DataType::Bool) => match s.trim() {
            "true" | "TRUE" | "1" | "t" => Some(Value::Bool(true)),
            "false" | "FALSE" | "0" | "f" => Some(Value::Bool(false)),
            _ => None,
        },
        (v, DataType::Text) if !v.is_null() => Some(Value::Text(v.to_string())),
        _ => None,
    }
}

/// Rows staged for one table while the batch validates.
#[derive(Default)]
struct Staged {
    rows: Vec<Row>,
    keys: HashSet<PkKey>,
    /// Highest timestamp staged so far (tables with a time column only).
    watermark: Option<Timestamp>,
}

impl Database {
    /// Validate `batch` under `policy` and append every surviving row.
    ///
    /// Validation runs over the whole batch *first*; the database is only
    /// mutated if no check demanded [`PolicyAction::Reject`], so a rejected
    /// batch is a no-op. Quarantined rows are recorded on the database
    /// ([`Database::quarantine`]) and counted in the returned
    /// [`IngestReport`].
    pub fn ingest(&mut self, batch: RowBatch, policy: &IngestPolicy) -> StoreResult<IngestReport> {
        let _span = obs::span("store.ingest");
        // Staged rows per destination table, keyed by the batch's own names.
        let mut staged: HashMap<&str, Staged> = HashMap::new();
        // Tables in batch-arrival order so the apply phase is deterministic.
        let mut staged_order: Vec<&str> = Vec::new();
        let mut quarantined: Vec<QuarantinedRow> = Vec::new();
        let mut report = IngestReport::default();

        'rows: for (batch_row, (table_name, row)) in batch.rows.iter().enumerate() {
            // Unknown destination tables are always a hard error: no policy
            // can route the row anywhere.
            let table = self.table(table_name)?;
            // So are partially-loaded destinations: their deferred columns
            // hold placeholder NULLs, and growth would re-derive state
            // (features, statistics) from fabricated values. The whole
            // batch is refused before anything is staged.
            if table.is_partially_loaded() {
                return Err(StoreError::PartiallyLoaded {
                    table: table_name.clone(),
                    deferred: table.deferred_columns().to_vec(),
                });
            }
            let schema = table.schema();
            let mut row = row.clone();
            let mut cell_coerced = false;
            let mut late = false;

            // Resolve one violation: Reject aborts the whole ingest call,
            // Quarantine sets the row aside (continue 'rows), Coerce is
            // handled by the caller before invoking this.
            macro_rules! offend {
                ($action:expr, $reason:expr) => {{
                    match $action {
                        PolicyAction::Reject => {
                            return Err(StoreError::BatchRejected {
                                table: table_name.clone(),
                                batch_row,
                                reason: $reason,
                            })
                        }
                        _ => {
                            quarantined.push(QuarantinedRow {
                                table: table_name.clone(),
                                batch_row,
                                row: batch.rows[batch_row].1.clone(),
                                reason: $reason,
                            });
                            continue 'rows;
                        }
                    }
                }};
            }

            // -- arity (never coercible).
            if row.arity() != schema.arity() {
                offend!(
                    policy.on_type_mismatch,
                    format!(
                        "arity mismatch: expected {} values, got {}",
                        schema.arity(),
                        row.arity()
                    )
                );
            }

            // -- cell types and nullability.
            let pk_index = schema.primary_key_index();
            for (i, def) in schema.columns().iter().enumerate() {
                let v = &row[i];
                if !v.conforms_to(def.data_type) {
                    let fixed = match policy.on_type_mismatch {
                        PolicyAction::Coerce => coerce_value(v, def.data_type),
                        _ => None,
                    };
                    match fixed {
                        Some(fv) => {
                            row.set(i, fv);
                            cell_coerced = true;
                        }
                        None => offend!(
                            policy.on_type_mismatch,
                            format!(
                                "type mismatch in column `{}`: expected {}, got {}",
                                def.name,
                                def.data_type,
                                v.data_type()
                                    .map_or_else(|| "NULL".to_string(), |t| t.to_string())
                            )
                        ),
                    }
                }
                if row[i].is_null() && !def.nullable && Some(i) != pk_index {
                    offend!(
                        policy.on_type_mismatch,
                        format!("NULL in non-nullable column `{}`", def.name)
                    );
                }
            }

            // -- primary key: NULL and duplicates (vs table and vs batch).
            if let Some(pk) = pk_index {
                let key = &row[pk];
                if key.is_null() {
                    offend!(policy.on_type_mismatch, "NULL primary key".to_string());
                }
                let pk = PkKey::of(key).expect("NULL key handled above");
                let dup_in_table = table.row_by_pk(&pk).is_some();
                let dup_in_batch = staged
                    .get(table_name.as_str())
                    .is_some_and(|s| s.keys.contains(&pk));
                if dup_in_table || dup_in_batch {
                    // A key collision has no repair; Coerce degrades to
                    // quarantine.
                    offend!(
                        policy.on_duplicate_key,
                        format!("duplicate primary key `{key}`")
                    );
                }
            }

            // -- foreign keys: the referenced row must exist already or be
            // staged earlier in this batch.
            for fk in schema.foreign_keys() {
                let ci = schema
                    .column_index(&fk.column)
                    .expect("schema guarantees the FK column exists");
                let key = &row[ci];
                let Some(pk) = PkKey::of(key) else {
                    continue;
                };
                let target = self.table(&fk.referenced_table)?;
                let exists = target.row_by_pk(&pk).is_some()
                    || staged
                        .get(fk.referenced_table.as_str())
                        .is_some_and(|s| s.keys.contains(&pk));
                if exists {
                    continue;
                }
                let nullable = schema.columns().get(ci).is_some_and(|d| d.nullable);
                if policy.on_fk_violation == PolicyAction::Coerce && nullable {
                    row.set(ci, Value::Null);
                    cell_coerced = true;
                    continue;
                }
                offend!(
                    policy.on_fk_violation,
                    format!(
                        "foreign key `{}` = `{key}` has no match in `{}`",
                        fk.column, fk.referenced_table
                    )
                );
            }

            // -- out-of-order timestamps, against the table's watermark
            // (the kept span of existing rows plus rows staged so far).
            if let Some(tc) = schema.time_column_index() {
                if let Some(ts) = row[tc].as_timestamp() {
                    let existing = table.time_span().map(|(_, hi)| hi);
                    let staged_hi = staged.get(table_name.as_str()).and_then(|s| s.watermark);
                    let watermark = match (existing, staged_hi) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    if watermark.is_some_and(|w| ts < w) {
                        match policy.on_out_of_order {
                            // Coerce = accept the late row as-is; the
                            // temporal index re-sorts on rebuild.
                            PolicyAction::Coerce => late = true,
                            action => offend!(
                                action,
                                format!(
                                    "out-of-order timestamp {ts} (watermark {})",
                                    watermark.unwrap()
                                )
                            ),
                        }
                    }
                }
            }

            // -- stage the validated row.
            if !staged.contains_key(table_name.as_str()) {
                staged_order.push(table_name);
            }
            let entry = staged.entry(table_name).or_default();
            if let Some(k) = pk_index.and_then(|pk| PkKey::of(&row[pk])) {
                entry.keys.insert(k);
            }
            if let Some(tc) = schema.time_column_index() {
                if let Some(ts) = row[tc].as_timestamp() {
                    entry.watermark = Some(entry.watermark.map_or(ts, |w| w.max(ts)));
                }
            }
            entry.rows.push(row);
            report.accepted += 1;
            report.coerced += usize::from(cell_coerced);
            report.late += usize::from(late);
        }

        // Apply phase: every staged row was fully validated, so inserts
        // cannot fail; an error here would be a validator bug and is
        // propagated as-is.
        for table_name in staged_order {
            let rows = staged.remove(table_name).expect("staged");
            for row in rows.rows {
                self.insert(table_name, row)?;
            }
        }
        report.quarantined = quarantined.len();
        self.push_quarantine(quarantined);

        if obs::enabled() {
            obs::add("ingest.rows_accepted", report.accepted as u64);
            obs::add("ingest.rows_quarantined", report.quarantined as u64);
            obs::add("ingest.rows_coerced", report.coerced as u64);
            obs::add("ingest.rows_late", report.late as u64);
            obs::add("ingest.batches", 1);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn shop() -> Database {
        let mut db = Database::new("shop");
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
                .nullable_column("customer_id", DataType::Int)
                .column("amount", DataType::Float)
                .column("placed_at", DataType::Timestamp)
                .primary_key("order_id")
                .time_column("placed_at")
                .foreign_key("customer_id", "customers")
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "customers",
            Row::new().push(1i64).push(Value::Timestamp(100)),
        )
        .unwrap();
        db.insert(
            "orders",
            Row::new()
                .push(10i64)
                .push(1i64)
                .push(5.0)
                .push(Value::Timestamp(150)),
        )
        .unwrap();
        db
    }

    fn order(id: i64, cust: i64, t: i64) -> Row {
        Row::new()
            .push(id)
            .push(cust)
            .push(1.0)
            .push(Value::Timestamp(t))
    }

    #[test]
    fn clean_batch_is_applied() {
        let mut db = shop();
        let batch = RowBatch::new()
            .with(
                "customers",
                Row::new().push(2i64).push(Value::Timestamp(200)),
            )
            .with("orders", order(11, 2, 250));
        let r = db.ingest(batch, &IngestPolicy::default()).unwrap();
        assert_eq!(r.accepted, 2);
        assert_eq!(r.quarantined, 0);
        assert_eq!(db.table("orders").unwrap().len(), 2);
        assert_eq!(db.validate().unwrap(), 2);
    }

    #[test]
    fn reject_policy_is_atomic() {
        let mut db = shop();
        let batch = RowBatch::new()
            .with("orders", order(11, 1, 200))
            .with("orders", order(12, 99, 300)); // dangling FK
        let err = db.ingest(batch, &IngestPolicy::default()).unwrap_err();
        assert!(matches!(
            err,
            StoreError::BatchRejected { batch_row: 1, .. }
        ));
        // Nothing applied, including the valid first row.
        assert_eq!(db.table("orders").unwrap().len(), 1);
    }

    #[test]
    fn quarantine_keeps_rest_of_batch() {
        let mut db = shop();
        let batch = RowBatch::new()
            .with("orders", order(11, 99, 200)) // dangling FK
            .with("orders", order(12, 1, 300));
        let r = db.ingest(batch, &IngestPolicy::quarantine_all()).unwrap();
        assert_eq!(r.accepted, 1);
        assert_eq!(r.quarantined, 1);
        assert_eq!(db.table("orders").unwrap().len(), 2);
        assert_eq!(db.quarantine().len(), 1);
        assert_eq!(db.quarantine()[0].batch_row, 0);
        assert!(db.quarantine()[0].reason.contains("foreign key"));
        let drained = db.take_quarantine();
        assert_eq!(drained.len(), 1);
        assert!(db.quarantine().is_empty());
    }

    #[test]
    fn coerce_fixes_cell_types() {
        let mut db = shop();
        // amount as Int, placed_at as Int: both coercible.
        let batch = RowBatch::new().with(
            "orders",
            Row::new().push(11i64).push(1i64).push(7i64).push(200i64),
        );
        let r = db.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
        assert_eq!((r.accepted, r.coerced, r.quarantined), (1, 1, 0));
        let t = db.table("orders").unwrap();
        assert_eq!(t.value_by_name(1, "amount").unwrap(), Value::Float(7.0));
        assert_eq!(t.row_timestamp(1), Some(200));
    }

    #[test]
    fn coerce_nulls_dangling_nullable_fk() {
        let mut db = shop();
        let batch = RowBatch::new().with("orders", order(11, 99, 200));
        let r = db.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
        assert_eq!((r.accepted, r.coerced), (1, 1));
        assert_eq!(
            db.table("orders")
                .unwrap()
                .value_by_name(1, "customer_id")
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn out_of_order_policies() {
        // Watermark of orders is 150.
        let mut db = shop();
        let err = db
            .ingest(
                RowBatch::new().with("orders", order(11, 1, 120)),
                &IngestPolicy::default(),
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::BatchRejected { .. }));

        let mut db = shop();
        let r = db
            .ingest(
                RowBatch::new().with("orders", order(11, 1, 120)),
                &IngestPolicy::quarantine_all(),
            )
            .unwrap();
        assert_eq!((r.accepted, r.quarantined), (0, 1));

        let mut db = shop();
        let r = db
            .ingest(
                RowBatch::new().with("orders", order(11, 1, 120)),
                &IngestPolicy::coerce_all(),
            )
            .unwrap();
        assert_eq!((r.accepted, r.late), (1, 1));
        // The late row keeps its original timestamp.
        assert_eq!(db.table("orders").unwrap().row_timestamp(1), Some(120));
    }

    #[test]
    fn duplicate_keys_detected_across_table_and_batch() {
        let mut db = shop();
        let batch = RowBatch::new()
            .with("orders", order(10, 1, 200)) // dup vs table
            .with("orders", order(11, 1, 210))
            .with("orders", order(11, 1, 220)); // dup vs batch
        let r = db.ingest(batch, &IngestPolicy::quarantine_all()).unwrap();
        assert_eq!((r.accepted, r.quarantined), (1, 2));
        assert_eq!(db.table("orders").unwrap().len(), 2);
    }

    #[test]
    fn intra_batch_fk_resolution_is_order_sensitive() {
        let mut db = shop();
        // Child before parent: quarantined under quarantine_all.
        let batch = RowBatch::new().with("orders", order(11, 2, 200)).with(
            "customers",
            Row::new().push(2i64).push(Value::Timestamp(180)),
        );
        let r = db.ingest(batch, &IngestPolicy::quarantine_all()).unwrap();
        assert_eq!((r.accepted, r.quarantined), (1, 1));
        // Parent before child: both accepted.
        let mut db = shop();
        let batch = RowBatch::new()
            .with(
                "customers",
                Row::new().push(2i64).push(Value::Timestamp(180)),
            )
            .with("orders", order(11, 2, 200));
        let r = db.ingest(batch, &IngestPolicy::quarantine_all()).unwrap();
        assert_eq!((r.accepted, r.quarantined), (2, 0));
    }

    #[test]
    fn unknown_table_is_always_an_error() {
        let mut db = shop();
        let batch = RowBatch::new().with("nope", Row::new().push(1i64));
        assert!(matches!(
            db.ingest(batch, &IngestPolicy::coerce_all()),
            Err(StoreError::UnknownTable(_))
        ));
    }

    #[test]
    fn arity_mismatch_cannot_be_coerced() {
        let mut db = shop();
        let batch = RowBatch::new().with("orders", Row::new().push(11i64));
        let r = db.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
        assert_eq!((r.accepted, r.quarantined), (0, 1));
        assert!(db.quarantine()[0].reason.contains("arity"));
    }
}
