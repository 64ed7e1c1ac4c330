//! Row predicates over [`Table`]s: column-vs-constant comparisons, NULL
//! tests and their boolean combinations, with SQL NULL semantics. This is
//! what the predictive-query planner filters entities and target rows with.

use std::cmp::Ordering;

use crate::error::{StoreError, StoreResult};
use crate::table::Table;
use crate::value::Value;

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate this operator on an `Ordering`.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over a single table's row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column op constant`; NULL cells never match (SQL semantics).
    Compare {
        column: String,
        op: CmpOp,
        value: Value,
    },
    /// `column IS NULL`.
    IsNull(String),
    /// `column IS NOT NULL`.
    IsNotNull(String),
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
    /// Always true.
    True,
}

impl Predicate {
    /// Convenience constructor for `column op value`.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluate against row `i` of `table`.
    pub fn eval(&self, table: &Table, i: usize) -> StoreResult<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Compare { column, op, value } => {
                let cell = table.value_by_name(i, column)?;
                if cell.is_null() || value.is_null() {
                    return Ok(false);
                }
                match cell.partial_cmp_value(value) {
                    Some(ord) => Ok(op.eval(ord)),
                    None => Err(StoreError::InvalidQuery(format!(
                        "cannot compare `{}` ({cell}) with {value}",
                        column
                    ))),
                }
            }
            Predicate::IsNull(column) => Ok(table.value_by_name(i, column)?.is_null()),
            Predicate::IsNotNull(column) => Ok(!table.value_by_name(i, column)?.is_null()),
            Predicate::And(a, b) => Ok(a.eval(table, i)? && b.eval(table, i)?),
            Predicate::Or(a, b) => Ok(a.eval(table, i)? || b.eval(table, i)?),
            Predicate::Not(p) => Ok(!p.eval(table, i)?),
        }
    }

    /// Row indices of `table` satisfying the predicate.
    pub fn filter(&self, table: &Table) -> StoreResult<Vec<usize>> {
        let mut out = Vec::new();
        for i in 0..table.len() {
            if self.eval(table, i)? {
                out.push(i);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::schema::TableSchema;
    use crate::value::DataType;

    fn events() -> Table {
        let mut t = Table::new(
            TableSchema::builder("events")
                .column("id", DataType::Int)
                .column("user", DataType::Int)
                .nullable_column("amount", DataType::Float)
                .column("at", DataType::Timestamp)
                .primary_key("id")
                .time_column("at")
                .build()
                .unwrap(),
        );
        let rows = [
            (1, 10, Some(5.0), 100),
            (2, 10, Some(3.0), 200),
            (3, 11, None, 150),
            (4, 11, Some(7.0), 260),
            (5, 12, Some(1.0), 300),
        ];
        for (id, user, amount, at) in rows {
            let amount = amount.map_or(Value::Null, Value::Float);
            t.insert(Row::from(vec![
                Value::Int(id),
                Value::Int(user),
                amount,
                Value::Timestamp(at),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Le.eval(Ordering::Equal));
        assert!(CmpOp::Le.eval(Ordering::Less));
        assert!(!CmpOp::Le.eval(Ordering::Greater));
        assert!(CmpOp::Ne.eval(Ordering::Less));
    }

    #[test]
    fn predicate_filter() {
        let t = events();
        let p = Predicate::cmp("user", CmpOp::Eq, 10i64);
        assert_eq!(p.filter(&t).unwrap(), vec![0, 1]);
        let p = Predicate::And(
            Box::new(Predicate::cmp("user", CmpOp::Ge, 11i64)),
            Box::new(Predicate::IsNotNull("amount".into())),
        );
        assert_eq!(p.filter(&t).unwrap(), vec![3, 4]);
        let p = Predicate::Not(Box::new(Predicate::IsNull("amount".into())));
        assert_eq!(p.filter(&t).unwrap().len(), 4);
    }

    #[test]
    fn null_never_matches_compare() {
        let t = events();
        // Row 2 has NULL amount; neither < nor >= matches it.
        let lt = Predicate::cmp("amount", CmpOp::Lt, 100.0)
            .filter(&t)
            .unwrap();
        let ge = Predicate::cmp("amount", CmpOp::Ge, 100.0)
            .filter(&t)
            .unwrap();
        assert_eq!(lt.len() + ge.len(), 4);
    }

    #[test]
    fn incomparable_types_error() {
        let t = events();
        let p = Predicate::cmp("user", CmpOp::Eq, "ten");
        assert!(p.filter(&t).is_err());
    }
}
