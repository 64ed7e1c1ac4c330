//! Standalone runner for the before/after hot-path snapshot.
//!
//! ```text
//! cargo run --release -p relgraph-bench --bin perf_snapshot [-- --check]
//! ```
//!
//! Writes `BENCH_pipeline.json` (override with `RELGRAPH_BENCH_OUT`); set
//! `RELGRAPH_QUICK=1` for the ~4× smaller smoke workload.
//!
//! With `--check`, exits non-zero when any section regresses: the optimized
//! path must not be slower than its in-tree baseline. Sections whose gap is
//! pure thread scaling (`sample`, `traintable`, `ingest`, `epoch`) get a
//! noise allowance since they legitimately hit ~1.0x on a single-core host;
//! kernel sections (`matmul_*`, `linear_fused`) must show a real win, and
//! `serving` (cached micro-batched engine vs per-request inference) must
//! show a real multiple since its win is algorithmic, not thread scaling.
//! `serving_concurrent`'s floor scales with the recorded shard count (its
//! win IS thread scaling), and `serving_mixed` (burst ingest drained
//! through the grouped write path vs one delta + closure + eviction sweep
//! per batch) must show the coalesced-invalidation win — a real multiple
//! on any host, since the saving is per-publish work, not threads.
//! `wal_commit` (group-commit WAL appends vs one fsync per batch) must
//! show fsync amortization. `persist_open` (columnar base read vs CSV
//! parse) and `persistence` (warm restart from snapshots vs a cold
//! open + featurize + train boot) gate the durable substrate: both wins
//! are algorithmic, so real multiples are required on any host.
//! `serving_f32` (the `f32` model view vs the `f64` one through the same
//! tape-free walk, caches held equal) and `cache_capacity` (8-bit quantized embedding rows per
//! byte vs `f64` rows) gate the reduced-precision tier.
//!
//! Every floor is declared for a specific numeric mode. A section whose
//! recorded `precision` does not match its floor's expected mode is a
//! CROSS-MODE failure, not a pass: a throughput measured in `f32` must
//! never be silently scored against an `f64` floor, and vice versa.

use relgraph_bench::perf;

/// Per-section floor: minimum acceptable `after / before` under `--check`,
/// plus the numeric mode the floor was tuned for. `shards` is the
/// snapshot's recorded serving shard count — the floor for the concurrent
/// section is physical: a 1-shard "after" cannot beat a 1-shard "before"
/// by more than noise.
fn floor_spec(section: &str, shards: usize) -> (f64, &'static str) {
    match section {
        // The microkernel must beat naive by a clear margin in release mode.
        s if s.starts_with("matmul_") => (1.05, "f64"),
        "linear_fused" => (1.05, "f64"),
        // Cached micro-batched serving vs per-request inference: the win is
        // algorithmic (cache hits + batch dedup), not thread scaling, so a
        // real multiple is required even on one core. The committed snapshot
        // shows well above this; 2.0 is the CI noise floor.
        "serving" => (2.0, "f64"),
        // The `f32` model view vs the `f64` one with caches held equal.
        // Both run the one tape-free walk, so what is left of the old 4.8x
        // (which was the f64 side's autodiff tape) is kernel width: 1.2x
        // at quick scale. The floor only says f32 must not be the slower
        // mode.
        "serving_f32" => (1.0, "f32"),
        // Quantized embedding rows resident at an equal byte budget: exact
        // arithmetic over captured row shapes, so the floor has no noise
        // allowance at all — `8·dim / (dim + 8)` must reach 4x.
        "cache_capacity" => (4.0, "q8"),
        // Sharded tier vs the 1-shard configuration under 4 concurrent
        // clients: pure thread scaling (now with work-stealing routing and
        // the shared L2 tier), so the floor depends on how many cores the
        // host actually gave us. 1.5 is the conservative CI floor at 4+
        // shards — real hosts show 2x+, but steal contention and the L2
        // gate put a sliver of shared state back on the read path.
        "serving_concurrent" if shards >= 4 => (1.5, "f64"),
        "serving_concurrent" if shards >= 2 => (1.2, "f64"),
        "serving_concurrent" => (0.8, "f64"),
        // Mixed ingest+read traffic: the sharded tier drains each write
        // burst through one coalesced publish (merged dirty closure, one
        // snapshot clone, one invalidation broadcast) where the pre-shard
        // engine pays all of it per batch. The win is algorithmic, so a
        // real multiple is required on any host.
        "serving_mixed" => (1.2, "f64"),
        // WAL group commit: one covering fsync per window of batches vs
        // one fsync each. fsync dominates the small-batch write path, so
        // an 8-batch window must be worth at least 3x on any real disk.
        "wal_commit" => (3.0, "f64"),
        // Columnar binary base read vs CSV parse of the same database: the
        // binary format skips tokenizing/validating every cell, so it must
        // win by a clear margin.
        "persist_open" => (1.05, "f64"),
        // Warm restart (snapshot load + empty catch-up) vs cold boot
        // (featurize + train): skipping training entirely must be worth at
        // least 2x even on the bench's deliberately tiny fit.
        "persistence" => (2.0, "f64"),
        // Thread-scaling sections: allow measurement noise around 1.0x.
        _ => (0.85, "f64"),
    }
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let quick = std::env::var("RELGRAPH_QUICK").is_ok();
    let out = std::env::var("RELGRAPH_BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into());

    let snap = perf::write_snapshot(&out, quick).expect("write snapshot");
    println!(
        "wrote {out} (threads = {}, shards = {}, commit window = {})",
        snap.threads, snap.shards, snap.commit_window
    );
    let mut failed = false;
    for s in &snap.sections {
        let speedup = if s.before > 0.0 {
            s.after / s.before
        } else {
            0.0
        };
        let (floor, expected_precision) = floor_spec(&s.name, snap.shards);
        // Refuse cross-mode comparisons outright: a number measured in one
        // numeric mode is meaningless against a floor tuned for another.
        let verdict = if s.precision != expected_precision {
            failed = failed || check;
            "CROSS-MODE"
        } else if check && speedup < floor {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "  {:<16} {:>10.3} -> {:>10.3} {:<12} [{}] {:.2}x  {}",
            s.name, s.before, s.after, s.unit, s.precision, speedup, verdict
        );
    }
    println!("end-to-end speedup: {:.2}x", snap.end_to_end_speedup);
    if failed {
        eprintln!(
            "perf check failed: a section regressed below its floor or was \
             measured in a different numeric mode than its floor expects"
        );
        std::process::exit(1);
    }
}
