//! Columnar tables with primary-key lookup.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::row::Row;
use crate::schema::TableSchema;
use crate::value::{Timestamp, Value};

/// A primary-key value as the index holds it. Two keys are equal exactly
/// when the values' [`Value::group_key`]s are equal, but building one
/// formats no string: only a text key owns a heap allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PkKey {
    Int(i64),
    Timestamp(Timestamp),
    /// The float's bits, with every NaN made one canonical NaN: `group_key`
    /// prints every NaN as `NaN`, and `0.0` and `-0.0` differently.
    Float(u64),
    Bool(bool),
    Text(Box<str>),
}

impl PkKey {
    /// The key for `v`; `None` for NULL, which no primary key holds.
    pub(crate) fn of(v: &Value) -> Option<PkKey> {
        Some(match v {
            Value::Null => return None,
            Value::Int(i) => PkKey::Int(*i),
            Value::Timestamp(t) => PkKey::Timestamp(*t),
            Value::Float(f) if f.is_nan() => PkKey::Float(f64::NAN.to_bits()),
            Value::Float(f) => PkKey::Float(f.to_bits()),
            Value::Bool(b) => PkKey::Bool(*b),
            Value::Text(s) => PkKey::Text(s.as_str().into()),
        })
    }
}

/// Widen `span` to cover `t`.
fn widen(span: &mut Option<(Timestamp, Timestamp)>, t: Timestamp) {
    *span = Some(match *span {
        None => (t, t),
        Some((lo, hi)) => (lo.min(t), hi.max(t)),
    });
}

/// A single table: schema + typed columns + primary-key index.
///
/// Rows are append-only and identified by their insertion index
/// (`0..table.len()`); the graph layer uses that index as the node id.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: TableSchema,
    columns: Vec<Column>,
    /// Map from primary-key value to row index.
    pk_index: HashMap<PkKey, usize>,
    /// `(min, max)` of the non-null time cells, kept by every insert so
    /// [`time_span`](Self::time_span) is O(1).
    span: Option<(Timestamp, Timestamp)>,
    /// Names of columns whose cells are deferred all-NULL placeholders
    /// from a partial base load (`DataDir::open_columns`) rather than real
    /// data. Non-empty only on partially-loaded tables, which refuse
    /// ingest — see [`Table::deferred_columns`].
    deferred: Vec<String>,
}

impl Table {
    /// Create an empty table for `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::new(c.data_type))
            .collect();
        Table {
            schema,
            columns,
            pk_index: HashMap::new(),
            span: None,
            deferred: Vec::new(),
        }
    }

    /// Columns this table carries only as deferred all-NULL placeholders
    /// (partial base load). Empty on fully-materialized tables. A table
    /// with deferred columns is read-only:
    /// [`Database::ingest`](crate::Database::ingest) refuses batches that
    /// target it, so a
    /// placeholder NULL can never leak into freshly-derived state.
    pub fn deferred_columns(&self) -> &[String] {
        &self.deferred
    }

    /// True when any column is a deferred placeholder.
    pub fn is_partially_loaded(&self) -> bool {
        !self.deferred.is_empty()
    }

    /// Mark `names` as deferred placeholders (the partial-load path).
    pub(crate) fn set_deferred_columns(&mut self, names: Vec<String>) {
        self.deferred = names;
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve capacity for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        // Columns grow independently; reserving on each avoids repeated
        // reallocation during bulk loads.
        for col in &mut self.columns {
            col.reserve(additional);
        }
        self.pk_index.reserve(additional);
    }

    /// Insert a row, validating arity, types, nullability and primary-key
    /// uniqueness. Returns the new row's index.
    pub fn insert(&mut self, row: Row) -> StoreResult<usize> {
        if row.arity() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                table: self.name().to_string(),
                expected: self.schema.arity(),
                got: row.arity(),
            });
        }
        for (i, def) in self.schema.columns().iter().enumerate() {
            let v = &row[i];
            if !v.conforms_to(def.data_type) {
                return Err(StoreError::TypeMismatch {
                    table: self.name().to_string(),
                    column: def.name.clone(),
                    expected: def.data_type,
                    got: v.data_type(),
                });
            }
            if v.is_null() && !def.nullable && Some(i) != self.schema.primary_key_index() {
                return Err(StoreError::TypeMismatch {
                    table: self.name().to_string(),
                    column: def.name.clone(),
                    expected: def.data_type,
                    got: None,
                });
            }
        }
        if let Some(pk) = self.schema.primary_key_index() {
            let key = &row[pk];
            if key.is_null() {
                return Err(StoreError::NullKey {
                    table: self.name().to_string(),
                });
            }
            let pk = PkKey::of(key).expect("NULL key rejected above");
            if self.pk_index.contains_key(&pk) {
                return Err(StoreError::DuplicateKey {
                    table: self.name().to_string(),
                    key: key.to_string(),
                });
            }
            self.pk_index.insert(pk, self.len());
        }
        if let Some(t) = self
            .schema
            .time_column_index()
            .and_then(|tc| row[tc].as_timestamp())
        {
            widen(&mut self.span, t);
        }
        let idx = self.len();
        for (col, v) in self.columns.iter_mut().zip(row.values()) {
            col.push(v);
        }
        Ok(idx)
    }

    /// Reassemble a table from decoded columns (the persistence reload
    /// path). The primary-key index is rebuilt by scanning the key column,
    /// exactly as a sequence of [`insert`](Self::insert)s would have built
    /// it; duplicate or NULL keys mean the file is corrupt.
    pub(crate) fn from_parts(schema: TableSchema, columns: Vec<Column>) -> StoreResult<Self> {
        if columns.len() != schema.arity() {
            return Err(StoreError::ArityMismatch {
                table: schema.name().to_string(),
                expected: schema.arity(),
                got: columns.len(),
            });
        }
        let n = columns.first().map_or(0, Column::len);
        if columns.iter().any(|c| c.len() != n) {
            return Err(StoreError::InvalidSchema(format!(
                "table `{}` has ragged columns",
                schema.name()
            )));
        }
        let mut pk_index = HashMap::new();
        if let Some(pk) = schema.primary_key_index() {
            pk_index.reserve(n);
            for i in 0..n {
                let key = columns[pk].get(i);
                let Some(k) = PkKey::of(&key) else {
                    return Err(StoreError::NullKey {
                        table: schema.name().to_string(),
                    });
                };
                if pk_index.insert(k, i).is_some() {
                    return Err(StoreError::DuplicateKey {
                        table: schema.name().to_string(),
                        key: key.to_string(),
                    });
                }
            }
        }
        let mut span = None;
        if let Some(tc) = schema.time_column_index() {
            for t in (0..n).filter_map(|i| columns[tc].get_timestamp(i)) {
                widen(&mut span, t);
            }
        }
        Ok(Table {
            schema,
            columns,
            pk_index,
            span,
            deferred: Vec::new(),
        })
    }

    /// Column by index.
    pub fn column(&self, i: usize) -> Option<&Column> {
        self.columns.get(i)
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema
            .column_index(name)
            .and_then(|i| self.columns.get(i))
    }

    /// Cell value at (`row`, `column` index).
    pub fn value(&self, row: usize, column: usize) -> Value {
        self.columns.get(column).map_or(Value::Null, |c| c.get(row))
    }

    /// Cell value at (`row`, named column).
    pub fn value_by_name(&self, row: usize, column: &str) -> StoreResult<Value> {
        let i = self
            .schema
            .column_index(column)
            .ok_or_else(|| StoreError::UnknownColumn {
                table: self.name().to_string(),
                column: column.to_string(),
            })?;
        Ok(self.value(row, i))
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Option<Row> {
        if i >= self.len() {
            return None;
        }
        Some(Row::from(self.columns.iter().map(|c| c.get(i)).collect()))
    }

    /// Iterate over all rows (materializing each).
    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.len()).map(move |i| self.row(i).expect("index in range"))
    }

    /// Look up the row index holding primary key `key`.
    pub fn row_by_key(&self, key: &Value) -> Option<usize> {
        self.row_by_pk(&PkKey::of(key)?)
    }

    /// Look up the row index holding an already-built key.
    pub(crate) fn row_by_pk(&self, key: &PkKey) -> Option<usize> {
        self.pk_index.get(key).copied()
    }

    /// The event/creation timestamp of row `i`, if the table has a time
    /// column and the cell is non-null.
    pub fn row_timestamp(&self, i: usize) -> Option<Timestamp> {
        let tc = self.schema.time_column_index()?;
        self.columns[tc].get_timestamp(i)
    }

    /// Minimum and maximum non-null timestamps over the time column. O(1):
    /// the span is kept by [`insert`](Self::insert) and computed once on
    /// reload.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn orders() -> Table {
        Table::new(
            TableSchema::builder("orders")
                .column("order_id", DataType::Int)
                .column("customer_id", DataType::Int)
                .nullable_column("note", DataType::Text)
                .column("placed_at", DataType::Timestamp)
                .primary_key("order_id")
                .time_column("placed_at")
                .build()
                .unwrap(),
        )
    }

    fn row(id: i64, cust: i64, t: i64) -> Row {
        Row::from(vec![
            Value::Int(id),
            Value::Int(cust),
            Value::Null,
            Value::Timestamp(t),
        ])
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = orders();
        assert_eq!(t.insert(row(10, 1, 5)).unwrap(), 0);
        assert_eq!(t.insert(row(11, 2, 9)).unwrap(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row_by_key(&Value::Int(11)), Some(1));
        assert_eq!(t.row_by_key(&Value::Int(99)), None);
        assert_eq!(t.value_by_name(0, "customer_id").unwrap(), Value::Int(1));
        assert_eq!(t.row_timestamp(1), Some(9));
        assert_eq!(t.time_span(), Some((5, 9)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = orders();
        let err = t.insert(Row::from(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(
            err,
            StoreError::ArityMismatch {
                expected: 4,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = orders();
        let err = t
            .insert(Row::from(vec![
                Value::Text("x".into()),
                Value::Int(1),
                Value::Null,
                Value::Timestamp(0),
            ]))
            .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn null_in_non_nullable_column_rejected() {
        let mut t = orders();
        let err = t
            .insert(Row::from(vec![
                Value::Int(1),
                Value::Null,
                Value::Null,
                Value::Timestamp(0),
            ]))
            .unwrap_err();
        assert!(matches!(err, StoreError::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_key_rejected_and_table_unchanged() {
        let mut t = orders();
        t.insert(row(1, 1, 0)).unwrap();
        let err = t.insert(row(1, 2, 1)).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateKey { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn null_key_rejected() {
        let mut t = orders();
        let err = t
            .insert(Row::from(vec![
                Value::Null,
                Value::Int(1),
                Value::Null,
                Value::Timestamp(0),
            ]))
            .unwrap_err();
        assert!(matches!(err, StoreError::NullKey { .. }));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn rows_iterator_materializes_everything() {
        let mut t = orders();
        t.insert(row(1, 1, 0)).unwrap();
        t.insert(row(2, 1, 3)).unwrap();
        let rows: Vec<Row> = t.rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], Value::Int(2));
    }

    #[test]
    fn reserve_preserves_rows() {
        let mut t = orders();
        t.insert(row(1, 1, 0)).unwrap();
        t.reserve(100);
        assert_eq!(t.len(), 1);
        assert_eq!(t.value_by_name(0, "order_id").unwrap(), Value::Int(1));
        t.insert(row(2, 1, 1)).unwrap();
        assert_eq!(t.len(), 2);
    }
}
