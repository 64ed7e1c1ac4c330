//! Typed columnar storage.
//!
//! Each [`Column`] stores a single table column as a dense typed vector plus
//! a validity mask, so scans touch contiguous memory instead of boxed values.
//! Text is no exception: every cell's bytes live in one buffer, so cloning
//! or freeing a column costs a handful of allocations, not one per cell.

use crate::value::{DataType, Timestamp, Value};

/// A typed column of cells with a validity (non-null) mask.
#[derive(Debug, Clone)]
pub enum Column {
    Int {
        data: Vec<i64>,
        valid: Vec<bool>,
    },
    Float {
        data: Vec<f64>,
        valid: Vec<bool>,
    },
    /// Every cell's UTF-8 bytes back to back in `bytes`; cell `i` is
    /// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first cell). A NULL
    /// cell appends no bytes, so two columns with equal cells are equal.
    Text {
        bytes: String,
        ends: Vec<usize>,
        valid: Vec<bool>,
    },
    Bool {
        data: Vec<bool>,
        valid: Vec<bool>,
    },
    Timestamp {
        data: Vec<Timestamp>,
        valid: Vec<bool>,
    },
}

/// Cell `i` of a contiguous text column.
fn text_cell<'a>(bytes: &'a str, ends: &[usize], i: usize) -> &'a str {
    let lo = if i == 0 { 0 } else { ends[i - 1] };
    &bytes[lo..ends[i]]
}

/// Columns are equal when their cells are stored identically: float cells
/// compare by bit pattern, so a column holding a NaN equals itself and a
/// bit-identical reload. ([`Value`]'s `==` keeps IEEE semantics, which
/// predicates such as `0.0 == -0.0` rely on.)
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        use Column::*;
        match (self, other) {
            (Int { data: a, valid: x }, Int { data: b, valid: y }) => a == b && x == y,
            (Float { data: a, valid: x }, Float { data: b, valid: y }) => {
                x == y
                    && a.iter()
                        .map(|v| v.to_bits())
                        .eq(b.iter().map(|v| v.to_bits()))
            }
            (
                Text {
                    bytes: a,
                    ends: e,
                    valid: x,
                },
                Text {
                    bytes: b,
                    ends: f,
                    valid: y,
                },
            ) => a == b && e == f && x == y,
            (Bool { data: a, valid: x }, Bool { data: b, valid: y }) => a == b && x == y,
            (Timestamp { data: a, valid: x }, Timestamp { data: b, valid: y }) => a == b && x == y,
            _ => false,
        }
    }
}

impl Column {
    /// An empty column of the given type.
    pub fn new(ty: DataType) -> Self {
        match ty {
            DataType::Int => Column::Int {
                data: Vec::new(),
                valid: Vec::new(),
            },
            DataType::Float => Column::Float {
                data: Vec::new(),
                valid: Vec::new(),
            },
            DataType::Text => Column::Text {
                bytes: String::new(),
                ends: Vec::new(),
                valid: Vec::new(),
            },
            DataType::Bool => Column::Bool {
                data: Vec::new(),
                valid: Vec::new(),
            },
            DataType::Timestamp => Column::Timestamp {
                data: Vec::new(),
                valid: Vec::new(),
            },
        }
    }

    /// An empty column with pre-reserved capacity.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        match ty {
            DataType::Int => Column::Int {
                data: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            DataType::Float => Column::Float {
                data: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            DataType::Text => Column::Text {
                bytes: String::new(),
                ends: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            DataType::Bool => Column::Bool {
                data: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
            DataType::Timestamp => Column::Timestamp {
                data: Vec::with_capacity(cap),
                valid: Vec::with_capacity(cap),
            },
        }
    }

    /// A column of `len` NULL cells — the deferred placeholder a partial
    /// base load installs for columns it skipped (see
    /// `persist::snapshot::read_base_columns`). Shape-compatible with the
    /// real column (same type, same length), every cell invalid.
    pub fn nulls(ty: DataType, len: usize) -> Self {
        match ty {
            DataType::Int => Column::Int {
                data: vec![0; len],
                valid: vec![false; len],
            },
            DataType::Float => Column::Float {
                data: vec![0.0; len],
                valid: vec![false; len],
            },
            DataType::Text => Column::Text {
                bytes: String::new(),
                ends: vec![0; len],
                valid: vec![false; len],
            },
            DataType::Bool => Column::Bool {
                data: vec![false; len],
                valid: vec![false; len],
            },
            DataType::Timestamp => Column::Timestamp {
                data: vec![0; len],
                valid: vec![false; len],
            },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Text { .. } => DataType::Text,
            Column::Bool { .. } => DataType::Bool,
            Column::Timestamp { .. } => DataType::Timestamp,
        }
    }

    /// Number of cells (including nulls).
    pub fn len(&self) -> usize {
        match self {
            Column::Int { valid, .. }
            | Column::Float { valid, .. }
            | Column::Text { valid, .. }
            | Column::Bool { valid, .. }
            | Column::Timestamp { valid, .. } => valid.len(),
        }
    }

    /// True if the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the cell at `i` is non-null. Out-of-range indices are null.
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Int { valid, .. }
            | Column::Float { valid, .. }
            | Column::Text { valid, .. }
            | Column::Bool { valid, .. }
            | Column::Timestamp { valid, .. } => valid.get(i).copied().unwrap_or(false),
        }
    }

    /// Reserve room for `additional` more cells (text bytes grow on push).
    pub(crate) fn reserve(&mut self, additional: usize) {
        match self {
            Column::Int { data, valid } | Column::Timestamp { data, valid } => {
                data.reserve(additional);
                valid.reserve(additional);
            }
            Column::Float { data, valid } => {
                data.reserve(additional);
                valid.reserve(additional);
            }
            Column::Text { ends, valid, .. } => {
                ends.reserve(additional);
                valid.reserve(additional);
            }
            Column::Bool { data, valid } => {
                data.reserve(additional);
                valid.reserve(additional);
            }
        }
    }

    /// Append a value. The caller must have checked type conformance;
    /// a mismatched value is recorded as NULL (this is a programming error
    /// guarded upstream by [`crate::table::Table::insert`]).
    pub fn push(&mut self, v: &Value) {
        match (self, v) {
            (Column::Int { data, valid }, Value::Int(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (Column::Float { data, valid }, Value::Float(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (Column::Text { bytes, ends, valid }, Value::Text(x)) => {
                bytes.push_str(x);
                ends.push(bytes.len());
                valid.push(true);
            }
            (Column::Bool { data, valid }, Value::Bool(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (Column::Timestamp { data, valid }, Value::Timestamp(x)) => {
                data.push(*x);
                valid.push(true);
            }
            (col, _) => match col {
                Column::Int { data, valid } => {
                    data.push(0);
                    valid.push(false);
                }
                Column::Float { data, valid } => {
                    data.push(0.0);
                    valid.push(false);
                }
                Column::Text { bytes, ends, valid } => {
                    ends.push(bytes.len());
                    valid.push(false);
                }
                Column::Bool { data, valid } => {
                    data.push(false);
                    valid.push(false);
                }
                Column::Timestamp { data, valid } => {
                    data.push(0);
                    valid.push(false);
                }
            },
        }
    }

    /// Append a text cell (`None` is NULL) without building a [`Value`].
    /// Like [`push`](Self::push), a non-text column records NULL.
    pub(crate) fn push_str(&mut self, s: Option<&str>) {
        match (self, s) {
            (Column::Text { bytes, ends, valid }, s) => {
                bytes.push_str(s.unwrap_or(""));
                ends.push(bytes.len());
                valid.push(s.is_some());
            }
            (col, _) => col.push(&Value::Null),
        }
    }

    /// Cell at position `i` as a [`Value`] (NULL for invalid/out-of-range).
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int { data, .. } => Value::Int(data[i]),
            Column::Float { data, .. } => Value::Float(data[i]),
            Column::Text { bytes, ends, .. } => Value::Text(text_cell(bytes, ends, i).to_string()),
            Column::Bool { data, .. } => Value::Bool(data[i]),
            Column::Timestamp { data, .. } => Value::Timestamp(data[i]),
        }
    }

    /// Fast numeric view of the cell at `i` (see [`Value::as_f64`]).
    pub fn get_f64(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Column::Int { data, .. } => Some(data[i] as f64),
            Column::Float { data, .. } => Some(data[i]),
            Column::Bool { data, .. } => Some(if data[i] { 1.0 } else { 0.0 }),
            Column::Timestamp { data, .. } => Some(data[i] as f64),
            Column::Text { .. } => None,
        }
    }

    /// Fast integer view of the cell at `i`.
    pub fn get_i64(&self, i: usize) -> Option<i64> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Column::Int { data, .. } => Some(data[i]),
            Column::Timestamp { data, .. } => Some(data[i]),
            _ => None,
        }
    }

    /// Fast timestamp view of the cell at `i`.
    pub fn get_timestamp(&self, i: usize) -> Option<Timestamp> {
        self.get_i64(i)
    }

    /// Fast text view of the cell at `i`.
    pub fn get_str(&self, i: usize) -> Option<&str> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Column::Text { bytes, ends, .. } => Some(text_cell(bytes, ends, i)),
            _ => None,
        }
    }

    /// Number of non-null cells.
    pub fn count_valid(&self) -> usize {
        match self {
            Column::Int { valid, .. }
            | Column::Float { valid, .. }
            | Column::Text { valid, .. }
            | Column::Bool { valid, .. }
            | Column::Timestamp { valid, .. } => valid.iter().filter(|v| **v).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut c = Column::new(DataType::Int);
        c.push(&Value::Int(7));
        c.push(&Value::Null);
        c.push(&Value::Int(-2));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(7));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(-2));
        assert_eq!(c.count_valid(), 2);
    }

    #[test]
    fn out_of_range_is_null() {
        let c = Column::new(DataType::Text);
        assert_eq!(c.get(0), Value::Null);
        assert!(!c.is_valid(5));
    }

    #[test]
    fn numeric_views() {
        let mut c = Column::new(DataType::Timestamp);
        c.push(&Value::Timestamp(100));
        assert_eq!(c.get_f64(0), Some(100.0));
        assert_eq!(c.get_timestamp(0), Some(100));
        assert_eq!(c.get_str(0), None);
    }

    #[test]
    fn each_type_round_trips() {
        for v in [
            Value::Int(1),
            Value::Float(2.5),
            Value::Text("a".into()),
            Value::Bool(true),
            Value::Timestamp(4),
        ] {
            let ty = v.data_type().unwrap();
            let mut c = Column::new(ty);
            c.push(&v);
            assert_eq!(c.get(0), v);
            assert_eq!(c.data_type(), ty);
        }
    }
}
