//! Properties of the store's in-memory layout, each checked against a
//! reference that does the work the layout saves:
//!
//! * the time span a table keeps equals a rescan of its time column after
//!   every insert and ingest, after a reload through a data directory (base
//!   snapshot plus WAL replay) and after a partial load;
//! * the value-keyed primary-key index answers `row_by_key` exactly as a
//!   map keyed by `Value::group_key` would, and still rejects duplicates;
//! * contiguous text cells (NULL, `""`, multi-byte) round-trip through
//!   `get`/`get_str`, through the column-file codec and through a data dir.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use relgraph_store::persist::format::{
    read_column_file, read_dict, write_column_file, DictBuilder,
};
use relgraph_store::{
    BaseColumnSelection, Column, DataDir, DataType, Database, IngestPolicy, Row, RowBatch,
    StoreError, Table, TableSchema, Timestamp, Value,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "relgraph-layout-props-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Text cells that stress the contiguous layout: empty, ASCII, multi-byte.
const TEXTS: [&str; 4] = ["", "a", "é", "日本語"];

fn text(i: Option<usize>) -> Value {
    i.map_or(Value::Null, |i| Value::from(TEXTS[i]))
}

fn time(at: Option<Timestamp>) -> Value {
    at.map_or(Value::Null, Value::Timestamp)
}

/// Two timed tables whose time columns are nullable, so NULL time cells
/// must be skipped by the span.
fn shop() -> Database {
    let mut db = Database::new("layout");
    db.create_table(
        TableSchema::builder("customers")
            .column("customer_id", DataType::Int)
            .nullable_column("name", DataType::Text)
            .nullable_column("signup", DataType::Timestamp)
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
            .nullable_column("note", DataType::Text)
            .nullable_column("placed_at", DataType::Timestamp)
            .primary_key("order_id")
            .time_column("placed_at")
            .foreign_key("customer_id", "customers")
            .build()
            .unwrap(),
    )
    .unwrap();
    db
}

/// The span by a full scan of the time column: what `time_span` computed
/// before the span was kept.
fn scanned_span(t: &Table) -> Option<(Timestamp, Timestamp)> {
    let col = t.column(t.schema().time_column_index()?).unwrap();
    (0..col.len())
        .filter_map(|i| col.get_timestamp(i))
        .fold(None, |span, x| match span {
            None => Some((x, x)),
            Some((lo, hi)) => Some((lo.min(x), hi.max(x))),
        })
}

fn assert_spans(db: &Database) -> Result<(), TestCaseError> {
    let mut whole: Option<(Timestamp, Timestamp)> = None;
    for t in db.tables() {
        let scanned = scanned_span(t);
        prop_assert_eq!(t.time_span(), scanned, "table `{}`", t.name());
        if let Some((lo, hi)) = scanned {
            whole = Some(whole.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
        }
    }
    prop_assert_eq!(db.time_span(), whole);
    Ok(())
}

/// One batch row: a customer `(id, name, signup)` or an order
/// `(id, customer, note, placed_at)`. `text_time` sends the timestamp as
/// text, a type mismatch only `coerce` repairs.
#[derive(Debug, Clone)]
enum BatchRow {
    Customer(i64, Option<usize>, Option<Timestamp>),
    Order(i64, i64, Option<usize>, Option<Timestamp>, bool),
}

/// A timestamp that is NULL one time in five.
fn maybe_time() -> impl Strategy<Value = Option<Timestamp>> {
    (0u8..5, 0i64..1_000).prop_map(|(null, at)| (null != 0).then_some(at))
}

fn batch_row() -> impl Strategy<Value = BatchRow> {
    let name = || proptest::option::of(0..TEXTS.len());
    prop_oneof![
        (0i64..12, name(), maybe_time()).prop_map(|(id, n, at)| BatchRow::Customer(id, n, at)),
        (0i64..24, 0i64..14, name(), maybe_time(), 0u8..10)
            .prop_map(|(id, c, n, at, tt)| BatchRow::Order(id, c, n, at, tt == 0)),
    ]
}

fn to_batch(rows: &[BatchRow]) -> RowBatch {
    let mut batch = RowBatch::new();
    for r in rows {
        match *r {
            BatchRow::Customer(id, name, at) => batch.push(
                "customers",
                Row::from(vec![Value::Int(id), text(name), time(at)]),
            ),
            BatchRow::Order(id, cust, note, at, text_time) => {
                let at = match (at, text_time) {
                    (Some(t), true) => Value::from(t.to_string()),
                    (at, _) => time(at),
                };
                batch.push(
                    "orders",
                    Row::from(vec![Value::Int(id), Value::Int(cust), text(note), at]),
                )
            }
        }
    }
    batch
}

fn policy(p: u8) -> IngestPolicy {
    match p % 3 {
        0 => IngestPolicy::reject_all(),
        1 => IngestPolicy::quarantine_all(),
        _ => IngestPolicy::coerce_all(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Direct inserts (duplicates refused), then ingests under every policy
    /// (late rows, NULL times, rejected and quarantined batches), the later
    /// ones through a data dir's WAL. The kept span equals a rescan at every
    /// step, after a reopen and after a partial load.
    #[test]
    fn kept_time_span_matches_a_rescan(
        customers in proptest::collection::vec(
            (0i64..12, proptest::option::of(0..TEXTS.len()), maybe_time()),
            0..8,
        ),
        batches in proptest::collection::vec(
            (proptest::collection::vec(batch_row(), 0..6), any::<u8>()),
            0..6,
        ),
        split in 0usize..6,
    ) {
        let mut db = shop();
        assert_spans(&db)?;
        for &(id, name, at) in &customers {
            let before = db.time_span();
            match db.insert("customers", Row::from(vec![Value::Int(id), text(name), time(at)])) {
                Ok(_) => {}
                Err(StoreError::DuplicateKey { .. }) => prop_assert_eq!(db.time_span(), before),
                Err(e) => return Err(TestCaseError::fail(format!("insert: {e}"))),
            }
            assert_spans(&db)?;
        }
        let split = split.min(batches.len());
        for (rows, p) in &batches[..split] {
            let _ = db.ingest(to_batch(rows), &policy(*p));
            assert_spans(&db)?;
        }

        let root = tmp("span");
        let _ = std::fs::remove_dir_all(&root);
        let mut dd = DataDir::create(&root, &db).unwrap();
        for (rows, p) in &batches[split..] {
            let before = db.clone();
            match dd.ingest(&mut db, to_batch(rows), &policy(*p)) {
                Ok(_) => {}
                Err(StoreError::BatchRejected { .. }) => prop_assert_eq!(&db, &before),
                Err(e) => return Err(TestCaseError::fail(format!("ingest: {e}"))),
            }
            assert_spans(&db)?;
        }
        drop(dd);

        let (_, reopened, _) = DataDir::open(&root).unwrap();
        assert_spans(&reopened)?;
        prop_assert_eq!(&reopened, &db);

        let (_, partial, _, _) =
            DataDir::open_columns(&root, &BaseColumnSelection::default()).unwrap();
        assert_spans(&partial)?;
        prop_assert_eq!(partial.time_span(), db.time_span());
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Primary-key candidates of one type, from small domains so that equal
/// group keys (and so duplicates) come up often.
fn key_of(ty: DataType, i: u8) -> Value {
    let nan = |p: u64| f64::from_bits(f64::NAN.to_bits() | p);
    match ty {
        DataType::Int => Value::Int(i64::from(i % 5) - 2),
        DataType::Timestamp => Value::Timestamp(i64::from(i % 5) - 2),
        DataType::Float => Value::Float(
            [0.0, -0.0, 1.5, nan(1), nan(2), -nan(3), f64::INFINITY][usize::from(i % 7)],
        ),
        DataType::Bool => Value::Bool(i.is_multiple_of(2)),
        DataType::Text => Value::from(["", "a", "é", "日本語", "i1", "a "][usize::from(i % 6)]),
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Timestamp,
    DataType::Float,
    DataType::Bool,
    DataType::Text,
];

/// Every candidate key of every type, plus NULL: the probes `row_by_key`
/// must answer like the reference map, including across types.
fn probes() -> Vec<Value> {
    let mut out = vec![Value::Null];
    for ty in TYPES {
        out.extend((0..42).map(|i| key_of(ty, i)));
    }
    out
}

fn assert_index(t: &Table, reference: &HashMap<String, usize>) -> Result<(), TestCaseError> {
    for probe in probes() {
        prop_assert_eq!(
            t.row_by_key(&probe),
            reference.get(&probe.group_key()).copied(),
            "probe {:?}",
            probe
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random key sequences of one key type: every insert is accepted or
    /// refused exactly as a `group_key`-keyed map says, `row_by_key`
    /// answers every probe like that map, and so does the index a reload
    /// rebuilds. An ingest of an existing key is still quarantined.
    #[test]
    fn pk_index_matches_a_group_key_map(
        ty in 0usize..TYPES.len(),
        keys in proptest::collection::vec(any::<u8>(), 0..16),
        dup in any::<u8>(),
    ) {
        let ty = TYPES[ty];
        let schema = TableSchema::builder("items")
            .column("k", ty)
            .column("v", DataType::Int)
            .primary_key("k")
            .build()
            .unwrap();
        let mut db = Database::new("keys");
        db.create_table(schema).unwrap();
        let mut reference: HashMap<String, usize> = HashMap::new();
        for (n, &i) in keys.iter().enumerate() {
            let key = key_of(ty, i);
            let len = db.table("items").unwrap().len();
            let got = db.insert("items", Row::from(vec![key.clone(), Value::Int(n as i64)]));
            match reference.entry(key.group_key()) {
                Entry::Occupied(_) => {
                    let refused = matches!(got, Err(StoreError::DuplicateKey { .. }));
                    prop_assert!(refused, "{:?} accepted twice", key);
                    prop_assert_eq!(db.table("items").unwrap().len(), len);
                }
                Entry::Vacant(slot) => {
                    prop_assert_eq!(got.unwrap(), len);
                    slot.insert(len);
                }
            }
            assert_index(db.table("items").unwrap(), &reference)?;
        }

        let root = tmp("keys");
        let _ = std::fs::remove_dir_all(&root);
        DataDir::create(&root, &db).unwrap();
        let (mut dd, mut reopened, _) = DataDir::open(&root).unwrap();
        prop_assert_eq!(&reopened, &db);
        assert_index(reopened.table("items").unwrap(), &reference)?;

        let key = key_of(ty, dup);
        let report = dd
            .ingest(
                &mut reopened,
                RowBatch::new().with("items", Row::from(vec![key.clone(), Value::Int(-1)])),
                &IngestPolicy::quarantine_all(),
            )
            .unwrap();
        let existed = reference.contains_key(&key.group_key());
        prop_assert_eq!(report.quarantined, usize::from(existed));
        if !existed {
            reference.insert(key.group_key(), db.table("items").unwrap().len());
        }
        assert_index(reopened.table("items").unwrap(), &reference)?;
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Text cells (NULL, "", multi-byte) read back through `get`/`get_str`,
    /// through the column-file codec and through a reopened data dir.
    #[test]
    fn text_cells_round_trip(cells in proptest::collection::vec(proptest::option::of(0..TEXTS.len()), 0..24)) {
        let mut col = Column::new(DataType::Text);
        for &c in &cells {
            col.push(&text(c));
        }
        prop_assert_eq!(col.len(), cells.len());
        for (i, &c) in cells.iter().enumerate() {
            prop_assert_eq!(col.get(i), text(c));
            prop_assert_eq!(col.get_str(i), c.map(|c| TEXTS[c]));
            prop_assert_eq!(col.is_valid(i), c.is_some());
        }

        let root = tmp("text");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let mut dict = DictBuilder::new();
        write_column_file(&root.join("c.col"), &col, &mut dict).unwrap();
        dict.write_to(&root.join("strings.dict")).unwrap();
        let strings = read_dict(&root.join("strings.dict")).unwrap();
        prop_assert_eq!(read_column_file(&root.join("c.col"), &strings).unwrap(), col);

        let mut db = Database::new("text");
        db.create_table(
            TableSchema::builder("notes")
                .column("id", DataType::Int)
                .nullable_column("body", DataType::Text)
                .primary_key("id")
                .build()
                .unwrap(),
        )
        .unwrap();
        for (i, &c) in cells.iter().enumerate() {
            db.insert("notes", Row::from(vec![Value::Int(i as i64), text(c)])).unwrap();
        }
        let dir = root.join("dd");
        DataDir::create(&dir, &db).unwrap();
        let (_, reopened, _) = DataDir::open(&dir).unwrap();
        prop_assert_eq!(&reopened, &db);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
