//! # relgraph-serve
//!
//! High-throughput prediction serving over a fitted predictive query:
//! train once, then answer per-entity requests from a maintained graph at
//! interactive latency.
//!
//! * [`sharded`] — [`ShardedEngine`], the one engine: owns the database,
//!   the incrementally maintained graph, the trained model, and per-core
//!   cache shards (final predictions + hop-ℓ node embeddings) draining
//!   fused job batches against epoch-swapped graph snapshots ([`epoch`]).
//!   One writer publishes each ingested group with a broadcast
//!   [`invalidate`] plan: **precise delta invalidation** evicts exactly the
//!   cached state within k hops of the nodes whose inputs changed, so
//!   cache-warm predictions stay bit-identical to a cold rebuild at any
//!   shard count — `shards = 1` is the single-engine case;
//! * [`engine`] — the [`ServeConfig`] knobs, ingest outcomes, and the
//!   cache-aware scoring path every shard runs;
//! * [`cache`] — the bounded [`Lru`] both tiers are built from, the one
//!   generic embedding cache ([`RowCache`], parameterised by row codec),
//!   plus [`CacheStats`] accounting surfaced in run reports;
//! * [`protocol`] — the `relgraph serve` JSONL wire format;
//! * [`quant`] — the 8-bit row codec and the [`EmbeddingTier`] (a model
//!   view and its L1 row cache, paired in one precision when an engine or
//!   shard is built) backing the `--precision f64|f32|q8` serving modes,
//!   with a tolerance story spelled out in `DESIGN.md` §15;
//! * [`l2`] — [`L2Tier`]: the shared read-mostly hop-k embedding tier
//!   under the per-shard L1s — hub neighborhoods are embedded once and
//!   read lock-free by every shard, with the same epoch-tagged
//!   publication and `(v, ℓ)` invalidation rule as the L1s;
//! * [`steal`] — [`InboxSet`]: bounded per-shard job inboxes with
//!   steal-on-idle draining, so a hot-keyed client cannot serialize the
//!   tier;
//! * [`affinity`] — vendored `sched_setaffinity` shim behind the
//!   `--affinity` flag: pin each shard thread (and so its caches and
//!   inbox) to one core; graceful no-op off Linux;
//! * [`server`] — the JSONL front-end over the sharded tier, shared by
//!   stdin and TCP/Unix sockets ([`serve_stream`]): greedy burst framing,
//!   so every complete line already read goes through one engine call and
//!   its responses out in one write; one handler thread per connection.
//!
//! ## Example
//!
//! ```no_run
//! use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
//! use relgraph_pq::ExecConfig;
//! use relgraph_serve::{ServeConfig, ShardedEngine};
//!
//! let db = generate_ecommerce(&EcommerceConfig::default()).unwrap();
//! let engine = ShardedEngine::fit(
//!     db,
//!     "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id",
//!     &ExecConfig::default(),
//!     ServeConfig::default(),
//!     1,
//! ).unwrap();
//! let p = engine.predict_batch_rows(&[0])[0]; // cold: computes + caches
//! assert_eq!(engine.predict_batch_rows(&[0])[0], p); // warm: served from cache
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod cache;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod invalidate;
pub mod l2;
pub mod persist;
pub mod protocol;
pub mod quant;
pub mod server;
pub mod sharded;
pub mod steal;

pub use affinity::{pin_current_thread, PinOutcome};
pub use cache::{
    CacheStats, CachedRow, EmbeddingCache, EmbeddingCache32, L1Cache, Lru, QuantizedEmbeddingCache,
    RowCache,
};
pub use engine::{GroupIngestOutcome, IngestOutcome, ServeConfig};
pub use epoch::EpochCell;
pub use error::{ServeError, ServeResult};
pub use invalidate::{InvalidationPlan, PlanFilter};
pub use l2::{L2Row, L2Snapshot, L2Tier, TieredStore};
pub use persist::{
    load_model, save_model, warm_sharded, warm_sharded_partial, ModelSnapshot, PartialWarmBoot,
    WarmBootReport,
};
pub use protocol::{parse_request, recover_id, response_err, response_ok, Request};
pub use quant::{dequantize_row, quantize_row, EmbeddingTier, QuantizedRow};
pub use server::{bind, handle_line, serve_stream, ServerListener};
pub use sharded::{GraphSnapshot, ShardedEngine, PLAN_HISTORY};
pub use steal::{Drain, InboxSet};
