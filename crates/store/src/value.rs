//! Scalar values and their types.

use std::cmp::Ordering;
use std::fmt;

/// Seconds since the dataset epoch. All temporal reasoning in relgraph is in
/// terms of this scalar; generators and loaders choose the epoch.
pub type Timestamp = i64;

/// Number of seconds in one day, the unit used by predictive-query windows.
pub const SECONDS_PER_DAY: i64 = 86_400;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Seconds since the dataset epoch.
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Whether values of this type can be used in arithmetic aggregates
    /// (`SUM`, `AVG`, …).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Timestamp)
    }
}

/// A dynamically-typed scalar cell value.
///
/// `Null` is a member of every type; all other variants carry their type.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL (typed by its column).
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    Timestamp(Timestamp),
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value may be stored in a column of type `ty`.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    /// Numeric view of the value: ints, floats, timestamps and bools map to
    /// `f64`; text and null map to `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Timestamp(t) => Some(*t as f64),
            Value::Null | Value::Text(_) => None,
        }
    }

    /// Integer view (ints and timestamps only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Timestamp view (timestamps and ints).
    pub fn as_timestamp(&self) -> Option<Timestamp> {
        match self {
            Value::Timestamp(t) => Some(*t),
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total ordering used for comparisons in predicates: `Null` sorts first,
    /// numerics compare numerically, text lexicographically. Values of
    /// incomparable types return `None`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// A stable key string used for grouping and distinct-counting.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "\u{0}null".to_string(),
            Value::Int(v) => format!("i{v}"),
            Value::Float(v) => format!("f{v}"),
            Value::Text(s) => format!("t{s}"),
            Value::Bool(b) => format!("b{b}"),
            Value::Timestamp(t) => format!("s{t}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Timestamp(t) => write!(f, "@{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::Int(3).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.5).data_type(), Some(DataType::Float));
        assert_eq!(Value::Text("x".into()).data_type(), Some(DataType::Text));
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Timestamp(9).data_type(), Some(DataType::Timestamp));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn null_conforms_to_every_type() {
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Timestamp,
        ] {
            assert!(Value::Null.conforms_to(ty));
        }
    }

    #[test]
    fn conformance_is_exact() {
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Text("a".into()).conforms_to(DataType::Int));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Text("a".into()).as_f64(), None);
        assert_eq!(Value::Timestamp(5).as_timestamp(), Some(5));
        assert_eq!(Value::Int(5).as_timestamp(), Some(5));
        assert_eq!(Value::Float(5.0).as_timestamp(), None);
    }

    #[test]
    fn ordering_across_numeric_types() {
        assert_eq!(
            Value::Int(2).partial_cmp_value(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Null.partial_cmp_value(&Value::Int(-100)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Text("b".into()).partial_cmp_value(&Value::Text("a".into())),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Text("b".into()).partial_cmp_value(&Value::Int(1)),
            None
        );
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Timestamp(1).group_key());
        assert_eq!(Value::Int(1).group_key(), Value::Int(1).group_key());
    }

    /// Values drawn from small domains so equal group keys come up often:
    /// `Int`/`Timestamp` share a range, floats include both zeros, NaNs with
    /// different payloads and infinities, text includes "" and multi-byte.
    fn clashing_value() -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Value::Null),
            (-3i64..3).prop_map(Value::Int),
            (-3i64..3).prop_map(Value::Timestamp),
            prop_oneof![
                Just(0.0f64),
                Just(-0.0),
                Just(1.5),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                (0u64..4).prop_map(|p| f64::from_bits(f64::NAN.to_bits() | p)),
                (0u64..4).prop_map(|p| -f64::from_bits(f64::NAN.to_bits() | p)),
            ]
            .prop_map(Value::Float),
            any::<bool>().prop_map(Value::Bool),
            prop_oneof![Just(""), Just("a"), Just("é"), Just("日本"), Just("i1")]
                .prop_map(Value::from),
        ]
    }

    fn same_pk(a: &Value, b: &Value) -> bool {
        use crate::table::PkKey;
        PkKey::of(a) == PkKey::of(b)
    }

    #[test]
    fn pk_keys_agree_with_group_keys_on_fixed_cases() {
        let nan_a = f64::from_bits(f64::NAN.to_bits() | 1);
        let nan_b = f64::from_bits(f64::NAN.to_bits() | 2);
        let cases = [
            (Value::Int(5), Value::Timestamp(5)),
            (Value::Float(0.0), Value::Float(-0.0)),
            (Value::Float(nan_a), Value::Float(nan_b)),
            (Value::Float(nan_a), Value::Float(-nan_a)),
            (Value::from(""), Value::from("")),
            (Value::from(""), Value::Null),
            (Value::from("日本"), Value::from("日本")),
            (Value::from("日本"), Value::from("日")),
            (Value::Int(1), Value::Float(1.0)),
            (Value::Bool(true), Value::Bool(true)),
        ];
        for (a, b) in &cases {
            assert_eq!(
                same_pk(a, b),
                a.group_key() == b.group_key(),
                "{a:?} vs {b:?}"
            );
        }
        assert!(same_pk(&Value::Float(nan_a), &Value::Float(nan_b)));
        assert!(!same_pk(&Value::Float(0.0), &Value::Float(-0.0)));
        assert!(!same_pk(&Value::Int(5), &Value::Timestamp(5)));
    }

    proptest::proptest! {
        #[test]
        fn pk_keys_agree_with_group_keys(a in clashing_value(), b in clashing_value()) {
            proptest::prop_assert_eq!(same_pk(&a, &b), a.group_key() == b.group_key());
        }
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Timestamp(7).to_string(), "@7");
    }
}
