//! # relgraph-store
//!
//! An in-memory, columnar, strongly-typed relational database used as the
//! substrate for the *databases-as-graphs* pipeline.
//!
//! The store is deliberately small but complete for the predictive-query
//! workload:
//!
//! * typed values and columns ([`Value`], [`DataType`], [`Column`]);
//! * schemas with primary keys, foreign keys and an optional *time column*
//!   per table ([`TableSchema`], [`ForeignKey`]);
//! * columnar tables with O(1) primary-key lookup ([`Table`]);
//! * a multi-table [`Database`] with referential-integrity validation;
//! * CSV import/export ([`csv`]);
//! * row predicates (column-vs-constant filters with SQL NULL semantics)
//!   used by the predictive-query planner ([`query`]).
//!
//! Everything is deterministic. Durability is layered on top by the
//! [`persist`] module family: a columnar on-disk format, an ingest
//! write-ahead log with crash recovery, and compaction (see DESIGN.md §14
//! for the normative format specification).
//!
//! ## Example
//!
//! ```
//! use relgraph_store::{Database, TableSchema, DataType, Value, Row};
//!
//! let mut db = Database::new("shop");
//! let customers = TableSchema::builder("customers")
//!     .column("customer_id", DataType::Int)
//!     .column("signup_time", DataType::Timestamp)
//!     .primary_key("customer_id")
//!     .time_column("signup_time")
//!     .build()
//!     .unwrap();
//! db.create_table(customers).unwrap();
//! db.insert("customers", Row::from(vec![Value::Int(1), Value::Timestamp(86_400)]))
//!     .unwrap();
//! assert_eq!(db.table("customers").unwrap().len(), 1);
//! ```

pub mod column;
pub mod csv;
pub mod database;
pub mod ddl;
pub mod error;
pub mod ingest;
pub mod persist;
pub mod query;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use column::Column;
pub use database::Database;
pub use ddl::{load_database_dir, parse_ddl, render_ddl, save_database_dir};
pub use error::{StoreError, StoreResult};
pub use ingest::{IngestPolicy, IngestReport, PolicyAction, QuarantinedRow, RowBatch};
pub use persist::snapshot::{DatabaseStreamWriter, TableStreamWriter};
pub use persist::{
    BaseColumnSelection, ColumnarBackend, CommitWindow, CsvDirBackend, DataDir, GroupCommitOutcome,
    PartialLoadReport, RecoveryReport, StorageBackend,
};
pub use query::{CmpOp, Predicate};
pub use row::Row;
pub use schema::{ColumnDef, ForeignKey, TableSchema, TableSchemaBuilder};
pub use table::Table;
pub use value::{DataType, Timestamp, Value, SECONDS_PER_DAY};
