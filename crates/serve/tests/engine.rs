//! Engine-level correctness: warm cached predictions after ingest-driven
//! invalidation must be bit-identical to a cold rebuild-and-predict, and
//! the invalidation must be *precise* — evicting affected entries while
//! untouched ones survive. The wider randomized battery lives in the
//! workspace-level `tests/serving_equivalence.rs`; this file pins the
//! mechanics on one hand-checked scenario, at 1 shard (the single-engine
//! case) and at 2 (the multi-shard catch-up path). Shards apply an
//! ingest's invalidation plan when they next drain a batch, so eviction
//! and flush counts are read from `stats()` after the next read.
//!
//! At 2 shards *which* shard drains a job is scheduling: a read hands
//! each shard's inbox one job, but an idle shard may steal its
//! neighbour's first. So a count that depends on one shard's cache slice
//! or catch-up is read over a bounded number of passes ([`read_until`]);
//! at 1 shard the first pass decides, exactly as a single engine would.

use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_db2graph::{build_graph, ConvertOptions};
use relgraph_gnn::{predict_nodes, NoCache};
use relgraph_pq::ExecConfig;
use relgraph_serve::{CacheStats, ServeConfig, ShardedEngine};
use relgraph_store::{IngestPolicy, Row, RowBatch, Value};

const QUERY: &str = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id";

/// Every case runs at each of these shard counts.
const SHARDS: [usize; 2] = [1, 2];

fn engine(shards: usize) -> ShardedEngine {
    let db = generate_ecommerce(&EcommerceConfig {
        customers: 60,
        products: 12,
        seed: 11,
        ..Default::default()
    })
    .unwrap();
    let exec = ExecConfig {
        epochs: 3,
        hidden_dim: 8,
        fanouts: vec![4, 4],
        ..Default::default()
    };
    ShardedEngine::fit(db, QUERY, &exec, ServeConfig::default(), shards).unwrap()
}

/// A batch of orders placed *before* the database's latest timestamp, so
/// the deploy anchor stays put and the engine must invalidate precisely
/// instead of flushing.
fn late_orders(engine: &ShardedEngine, n: usize) -> RowBatch {
    let (lo, hi) = engine.snapshot().db.time_span().unwrap();
    let mut batch = RowBatch::new();
    for i in 0..n {
        let t = lo + (hi - lo) / 2 + i as i64; // strictly inside the span
        batch.push(
            "orders",
            Row::new()
                .push(1_000_000 + i as i64) // fresh order_id
                .push(1 + (i as i64 % 5)) // existing customer_id
                .push(1 + (i as i64 % 7)) // existing product_id
                .push(2i64)
                .push(19.99f64)
                .push("web")
                .push(Value::Timestamp(t)),
        );
    }
    batch
}

/// Read `rows` until one pass satisfies `done(before, after)` on the
/// engine's cache statistics, and return that pass's predictions. At 1
/// shard only the first pass counts. At more, a pass misses a warm row
/// only on a shard that has not scored its bucket yet (at most `n(n−1)`
/// such passes), and a catch-up count moves once the shard holding the
/// entries drains a job; the bound leaves room for both.
fn read_until(
    engine: &ShardedEngine,
    rows: &[usize],
    what: &str,
    done: impl Fn(&CacheStats, &CacheStats) -> bool,
) -> Vec<f64> {
    let shards = engine.shards();
    let passes = if shards == 1 { 1 } else { 100 };
    for _ in 0..passes {
        let before = engine.stats();
        let preds = engine.predict_batch_rows(rows);
        if done(&before, &engine.stats()) {
            return preds;
        }
    }
    panic!("{shards} shards, {passes} passes: {what}");
}

fn cold_predictions(engine: &ShardedEngine, rows: &[usize]) -> Vec<f64> {
    let snap = engine.snapshot();
    let (scratch, _) = build_graph(&snap.db, &ConvertOptions::default()).unwrap();
    predict_nodes(
        &engine.model_handle(),
        &scratch,
        engine.node_type(),
        rows,
        snap.anchor,
        &mut NoCache,
    )
}

#[test]
fn warm_predictions_survive_precise_invalidation_bitwise() {
    for shards in SHARDS {
        let engine = engine(shards);
        let rows = engine.deploy_entities().unwrap();
        assert!(rows.len() >= 50);

        // Warm both tiers: a warm pass is answered wholly from cache.
        let before = engine.predict_batch_rows(&rows);
        let warm = read_until(&engine, &rows, "no warm pass hit every row", |b, a| {
            (a.prediction_hits - b.prediction_hits) as usize == rows.len()
        });
        for (a, b) in before.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits(), "idempotent warm read");
        }

        // Ingest late orders: anchor unchanged, precise invalidation required.
        let anchor_before = engine.snapshot().anchor;
        let outcome = engine
            .ingest(late_orders(&engine, 8), &IngestPolicy::coerce_all())
            .unwrap();
        assert_eq!(outcome.report.accepted, 8);
        assert!(!outcome.flushed, "anchor did not advance: no flush");
        assert!(!outcome.rebuilt);
        assert_eq!(engine.snapshot().anchor, anchor_before);

        // Warm path after invalidation ≡ cold rebuild-and-predict, bit for
        // bit; the shards' catch-up evicted cached state on the way.
        let warm_after = read_until(
            &engine,
            &rows,
            "new edges must dirty cached embeddings and predictions",
            |_, a| a.invalidated_embeddings > 0 && a.invalidated_predictions > 0,
        );
        let cold_after = cold_predictions(&engine, &rows);
        for (i, (w, c)) in warm_after.iter().zip(&cold_after).enumerate() {
            assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "{shards} shards: row {} diverged: warm {w} vs cold {c}",
                rows[i]
            );
        }

        // The re-read is served from cache and still bit-identical.
        let warm_again = engine.predict_batch_rows(&rows);
        for (a, b) in warm_after.iter().zip(&warm_again) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn invalidation_is_precise_not_a_flush() {
    for shards in SHARDS {
        let engine = engine(shards);
        let rows = engine.deploy_entities().unwrap();
        engine.predict_batch_rows(&rows);
        let pre_stats = engine.stats();
        assert!(pre_stats.embedding_misses > 0);

        let outcome = engine
            .ingest(late_orders(&engine, 4), &IngestPolicy::coerce_all())
            .unwrap();
        assert!(!outcome.flushed);

        // Re-serving everything must hit the surviving embedding entries:
        // far fewer misses than the cold pass took.
        let cold_misses = pre_stats.embedding_misses;
        read_until(
            &engine,
            &rows,
            "precise invalidation should preserve most embeddings",
            |b, a| a.embedding_misses - b.embedding_misses < cold_misses,
        );
        assert_eq!(engine.stats().flushes, 0, "{shards} shards");
    }
}

#[test]
fn anchor_advance_flushes_both_tiers() {
    for shards in SHARDS {
        let engine = engine(shards);
        let rows = engine.deploy_entities().unwrap();
        engine.predict_batch_rows(&rows);

        let (_, hi) = engine.snapshot().db.time_span().unwrap();
        let mut batch = RowBatch::new();
        batch.push(
            "orders",
            Row::new()
                .push(2_000_000i64)
                .push(1i64)
                .push(1i64)
                .push(1i64)
                .push(5.0f64)
                .push("web")
                .push(Value::Timestamp(hi + 86_400)),
        );
        let outcome = engine.ingest(batch, &IngestPolicy::coerce_all()).unwrap();
        assert!(outcome.flushed, "advancing the anchor must flush");
        assert_eq!(engine.snapshot().anchor, hi + 86_400);

        // Still correct against a cold rebuild at the new anchor; every
        // shard flushed its own slice on the way, once.
        let warm = read_until(&engine, &rows, "every shard flushes once", |_, a| {
            a.flushes == shards as u64
        });
        let cold = cold_predictions(&engine, &rows);
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.to_bits(), c.to_bits(), "{shards} shards");
        }
    }
}

#[test]
fn unknown_entity_keys_are_per_request_errors() {
    for shards in SHARDS {
        let engine = engine(shards);
        let keys = vec![Value::Int(1), Value::Int(999_999), Value::Int(2)];
        let results = engine.predict_batch_keys(&keys);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        let msg = results[1].as_ref().unwrap_err().to_string();
        assert!(msg.contains("999999"), "error names the key: {msg}");
    }
}

#[test]
fn duplicate_rows_in_one_batch_are_computed_once() {
    for shards in SHARDS {
        let engine = engine(shards);
        let p = engine.predict_batch_rows(&[3, 3, 3]);
        assert_eq!(p[0].to_bits(), p[1].to_bits());
        assert_eq!(p[1].to_bits(), p[2].to_bits());
        // One distinct row was computed; the duplicates neither hit the
        // cache (nothing was cached yet) nor triggered extra inference.
        let stats = engine.stats();
        assert_eq!(stats.prediction_hits, 0);
        assert_eq!(stats.prediction_misses, 3);
        let again = read_until(&engine, &[3], "the re-read never hit", |b, a| {
            a.prediction_hits - b.prediction_hits == 1
        });
        assert_eq!(again[0].to_bits(), p[0].to_bits());
    }
}
