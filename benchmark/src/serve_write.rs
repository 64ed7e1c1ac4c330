//! `serve_mixed` and `ingest_restart` — one batch's life: row → WAL fsync →
//! graph delta → invalidation → epoch publish, beside reads and across a
//! restart. The same cache tiers and epoch machinery as the read workloads,
//! used the other way round, over a durable data directory.
//!
//! `serve_mixed`: groups released on a fixed schedule (open loop, timed from
//! the due instant) while one connection reads the hot keys in a closed
//! loop. The write rate is fixed, so a faster ingest path frees CPU for the
//! reader instead of raising invalidation pressure on it: the two metrics
//! cannot punish each other's gains. Chosen because a gain for readers that
//! costs the writer (or the reverse) shows only here.
//!
//! `ingest_restart`: a fixed number of groups back to back, one writer, no
//! readers; then everything is dropped and the data directory is warm-booted
//! to its first prediction, several times. Fixed work, not fixed time:
//! publishing a group costs O(database) today, so a timed ingest phase would
//! measure its own length. Chosen because it is the only workload where the
//! write path runs unthrottled and the only one that times recovery: a
//! change to `store::persist` or `serve::persist` loads shows only here.
//!
//! Both end with the same recovery checks; `serve_mixed` boots once for them.

use std::path::Path;
use std::time::{Duration, Instant};

use relgraph_db2graph::load_graph;
use relgraph_obs as obs;
use relgraph_serve::{
    bind, load_model, warm_sharded_partial, GroupIngestOutcome, ServeConfig, ServerListener,
    ShardedEngine,
};
use relgraph_store::{
    persist::BaseColumnSelection, CommitWindow, DataDir, Database, IngestPolicy, Row, RowBatch,
    Timestamp, Value,
};

use crate::common::{
    choose_distinct, deploy_keys, fit_auroc, make_db, stats_delta, uniform_stream, with_server,
    Rng, Seeds,
};
use crate::config::{
    exec_config, Scale, BATCH_ROWS, GROUP_BATCHES, GROUP_RATE, LATE_LIMIT, QUERY, SHARDS, WINDOW,
};
use crate::loadgen::{closed_loop, sequential, wait_until, Target};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

const GROUP_ROWS: usize = GROUP_BATCHES * BATCH_ROWS;

#[derive(Clone, Copy)]
pub enum Kind {
    Mixed,
    IngestRestart,
}

/// How many groups are written back to back, how many on the paced
/// schedule beside the reader, and how many warm boots follow.
struct Phases {
    burst_groups: usize,
    paced_groups: usize,
    boots: usize,
}

/// A fitted engine over a data directory that mirrors its database.
struct Stage {
    engine: ShardedEngine,
    listener: ServerListener,
    durable: Durable,
    create_s: f64,
    save_s: f64,
    snapshot_bytes: u64,
}

/// The durable half of the write path: the data directory and its own copy
/// of the database (base + every acknowledged WAL record applied).
struct Durable {
    dir: DataDir,
    mirror: Database,
}

fn set_up(scale: &Scale, seeds: Seeds, root: &Path) -> Stage {
    let _ = std::fs::remove_dir_all(root);
    let db = make_db(scale, seeds.data);
    let engine = ShardedEngine::fit(
        db.clone(),
        QUERY,
        &exec_config(),
        ServeConfig::default(),
        SHARDS,
    )
    .expect("fit the serving engine");
    let t = Instant::now();
    let mut dir = DataDir::create(root, &db).expect("create the data directory");
    dir.set_commit_window(CommitWindow::batches(GROUP_BATCHES));
    let create_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let snapshot_bytes = engine
        .save_warm_start(&dir.snapshots_dir(), QUERY)
        .expect("save warm-start snapshots");
    let save_s = t.elapsed().as_secs_f64();
    let listener = bind("127.0.0.1:0").expect("bind a loopback port");
    Stage {
        engine,
        listener,
        durable: Durable { dir, mirror: db },
        create_s,
        save_s,
        snapshot_bytes,
    }
}

/// Source of ingest groups: fresh `orders` rows for existing customers and
/// products, with timestamps strictly inside the database's span so the
/// deploy anchor stays put and the precise-invalidation path runs (never a
/// flush).
struct Groups {
    rng: Rng,
    next_order_id: i64,
    customers: u64,
    products: u64,
    lo: Timestamp,
    hi: Timestamp,
}

impl Groups {
    fn new(db: &Database, seed: u64) -> Self {
        let (lo, hi) = db.time_span().expect("database has a time span");
        Groups {
            rng: Rng::new(seed, 2),
            next_order_id: 50_000_000,
            customers: db.table("customers").expect("customers").len() as u64,
            products: db.table("products").expect("products").len() as u64,
            lo,
            hi,
        }
    }

    fn next_group(&mut self) -> Vec<RowBatch> {
        let span = (self.hi - self.lo) as u64;
        (0..GROUP_BATCHES)
            .map(|_| {
                let mut batch = RowBatch::new();
                for _ in 0..BATCH_ROWS {
                    let quantity = 1 + self.rng.below(3) as i64;
                    let placed = self.lo + (span / 4 + self.rng.below(span / 2)) as i64;
                    batch.push(
                        "orders",
                        Row::new()
                            .push(self.next_order_id)
                            .push(self.rng.below(self.customers) as i64)
                            .push(self.rng.below(self.products) as i64)
                            .push(quantity)
                            .push(9.5 * quantity as f64)
                            .push("web")
                            .push(Value::Timestamp(placed)),
                    );
                    self.next_order_id += 1;
                }
                batch
            })
            .collect()
    }
}

/// What one group cost, layer by layer.
struct GroupCost {
    wal_s: f64,
    publish_s: f64,
    outcome: GroupIngestOutcome,
}

/// One group's life: made durable and applied to the mirror by the data
/// directory, then applied, invalidated and published by the engine.
fn ingest_group(
    engine: &ShardedEngine,
    durable: &mut Durable,
    batches: Vec<RowBatch>,
    op_id: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> GroupCost {
    let policy = IngestPolicy::coerce_all();
    let span = tracer.open("store.wal.group_commit", op_id);
    let reports = durable
        .dir
        .ingest_group(&mut durable.mirror, batches.clone(), &policy)
        .expect("durable group ingest");
    let wal_s = tracer.close(span);
    let span = tracer.open("serve.ingest.publish", op_id);
    let outcome = engine
        .ingest_group(batches, &policy)
        .expect("engine group ingest");
    let publish_s = tracer.close(span);
    let rejected = reports.iter().filter(|r| r.is_err()).count()
        + (GROUP_BATCHES - outcome.accepted_batches());
    report.count("ingest batches", 2 * GROUP_BATCHES as u64, rejected as u64);
    report.check(
        outcome.outcome.report.accepted == GROUP_ROWS && outcome.outcome.report.quarantined == 0,
        || format!("group {op_id}: {:?}", outcome.outcome.report),
    );
    GroupCost {
        wal_s,
        publish_s,
        outcome,
    }
}

/// What the write phases measured.
struct Written {
    /// Every group's cost, burst groups first.
    costs: Vec<GroupCost>,
    burst_s: f64,
    /// Per paced group: due instant → published, and due → started.
    visible_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    read_rps: f64,
    /// `persist.wal.sync_calls` while the obs sink was on (traced run).
    wal_syncs: u64,
    /// In-process predictions for every deploy entity at the final epoch.
    survivor: Vec<f64>,
}

pub fn run(
    kind: Kind,
    scale: &Scale,
    seeds: Seeds,
    root: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let phases = match kind {
        Kind::Mixed => Phases {
            burst_groups: 0,
            paced_groups: scale.paced_groups,
            boots: 1,
        },
        Kind::IngestRestart => Phases {
            burst_groups: scale.burst_groups,
            paced_groups: 0,
            boots: scale.boots,
        },
    };
    let setup_reps = if tracer.active() { 1 } else { scale.setup_reps };
    let mut setup_s = Vec::new();
    let mut stage = None;
    for rep in 0..setup_reps {
        drop(stage.take()); // one engine and one data directory at a time
        let span = tracer.open("setup", rep as u64);
        stage = Some(set_up(scale, seeds, root));
        setup_s.push(tracer.close(span));
    }
    let Stage {
        engine,
        listener,
        mut durable,
        create_s,
        save_s,
        snapshot_bytes,
    } = stage.expect("at least one set-up");
    let auroc = fit_auroc(&engine);
    let base_rows = durable.mirror.total_rows();
    let base_bytes = dir_bytes(&root.join("base-000001"));
    let (rows, keys) = deploy_keys(&engine);
    // Touch every key once, as the read workloads' set-up does.
    engine.predict_batch_rows(&rows);

    let stats_before = engine.stats();
    let wal_before = file_bytes(&root.join("wal.log"));
    let written = with_server(&engine, listener, |addr| {
        write_groups(
            &phases,
            scale.hot_keys,
            seeds,
            &engine,
            &mut durable,
            addr,
            (&rows, &keys),
            tracer,
            report,
        )
    });
    let invalidated = stats_delta(&engine.stats(), &stats_before);
    let wal_bytes = file_bytes(&root.join("wal.log")) - wal_before;
    let acked_groups = phases.burst_groups + phases.paced_groups;

    // Restart: drop everything, then boot the directory to a first answer.
    let Durable { dir, mirror } = durable;
    drop((engine, dir));
    let first_key = [Value::Int(keys[0])];
    let mut boot_s = Vec::new();
    let mut last_boot = None;
    tracer.obs_on();
    for boot in 0..phases.boots as u64 {
        drop(last_boot.take());
        let span = tracer.open("warm_boot", boot);
        let booted = warm_sharded_partial(root, &exec_config(), ServeConfig::default(), SHARDS)
            .expect("warm boot");
        let first = booted.engine.predict_batch_keys(&first_key);
        boot_s.push(tracer.close(span));
        report.check(
            matches!(first.as_slice(), [Ok(p)] if p.to_bits() == written.survivor[0].to_bits()),
            || format!("boot {boot}: first prediction differs from the survivor's"),
        );
        last_boot = Some(booted);
    }
    tracer.obs_off();
    let booted = last_boot.expect("at least one boot");
    let replayed = booted.recovery.replayed;
    report.check(replayed == acked_groups * GROUP_BATCHES, || {
        format!(
            "replayed {replayed} batches, acknowledged {}",
            acked_groups * GROUP_BATCHES
        )
    });
    let differing = booted
        .engine
        .predict_batch_rows(&rows)
        .iter()
        .zip(&written.survivor)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    report.count(
        "warm-booted predictions",
        rows.len() as u64,
        differing as u64,
    );
    let catch_up_nodes = booted.report.catch_up.new_nodes;
    drop(booted);

    // The recovered database must be the mirror, row for row.
    let (_, recovered, _) = DataDir::open(root).expect("reopen the data directory");
    report.check(recovered == mirror, || {
        "recovered database differs from the mirror".to_string()
    });

    if !tracer.active() {
        report.set_setup(&setup_s);
        report.set_how(
            "val_auroc",
            auroc,
            "test AUROC of the fitted model being served".to_string(),
        );
        match kind {
            Kind::Mixed => {
                report.set_how(
                    "latency_p50_ms",
                    median(&written.visible_s) * 1e3,
                    format!(
                        "ingest visible: due instant to epoch published, median over {} groups \
                         at {GROUP_RATE}/s",
                        written.visible_s.len()
                    ),
                );
                report.set_how(
                    "throughput_per_s",
                    written.read_rps,
                    format!(
                        "reads beside ingest, closed loop, 1 connection x window {WINDOW}, over \
                         the whole schedule"
                    ),
                );
            }
            Kind::IngestRestart => {
                report.set_how(
                    "latency_p50_ms",
                    median(&boot_s) * 1e3,
                    format!(
                        "warm boot: data dir (base + {acked_groups}-group WAL) to first \
                         prediction, median of {}",
                        boot_s.len()
                    ),
                );
                let rows = phases.burst_groups * GROUP_ROWS;
                report.set_how(
                    "throughput_per_s",
                    rows as f64 / written.burst_s,
                    format!("ingest: {rows} acknowledged rows / elapsed, one writer"),
                );
            }
        }
        return;
    }

    // Traced run: the layer figures.
    let Written {
        costs,
        queue_wait_s,
        wal_syncs,
        ..
    } = written;
    let group_s = |c: &GroupCost| c.wal_s + c.publish_s;
    let with_obs: Vec<f64> = costs.iter().skip(1).step_by(2).map(group_s).collect();
    let plain: Vec<f64> = costs.iter().step_by(2).map(group_s).collect();
    report.set(
        "obs.trace_overhead_share",
        (median(&with_obs) - median(&plain)) / median(&plain),
    );
    let per_group =
        |f: &dyn Fn(&GroupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    report.set("store.wal.group_commit_ms", per_group(&|c| c.wal_s * 1e3));
    report.set("serve.ingest.publish_ms", per_group(&|c| c.publish_s * 1e3));
    report.set(
        "store.wal.bytes_per_row",
        wal_bytes as f64 / (acked_groups * GROUP_ROWS) as f64,
    );
    // The sink was on for every other group.
    report.set(
        "store.wal.syncs_per_group",
        wal_syncs as f64 / (acked_groups / 2) as f64,
    );
    report.set(
        "serve.ingest.dirty_nodes_per_group",
        per_group(&|c| c.outcome.outcome.dirty_nodes as f64),
    );
    report.set(
        "serve.ingest.invalidated_embeddings_per_group",
        invalidated.invalidated_embeddings as f64 / acked_groups as f64,
    );
    report.set(
        "serve.ingest.invalidated_predictions_per_group",
        invalidated.invalidated_predictions as f64 / acked_groups as f64,
    );
    let count_of = |f: &dyn Fn(&GroupCost) -> bool| costs.iter().filter(|c| f(c)).count() as f64;
    report.set(
        "serve.ingest.flushes",
        count_of(&|c| c.outcome.outcome.flushed),
    );
    report.set(
        "serve.ingest.rebuilds",
        count_of(&|c| c.outcome.outcome.rebuilt),
    );
    if !queue_wait_s.is_empty() {
        report.set("serve.ingest.queue_wait_ms", median(&queue_wait_s) * 1e3);
        let late_limit = 0.1 / GROUP_RATE;
        report.set(
            "loadgen.max_late_us",
            queue_wait_s.iter().fold(0.0f64, |a, &b| a.max(b)) * 1e6,
        );
        report.set(
            "loadgen.late_share",
            queue_wait_s.iter().filter(|&&w| w > late_limit).count() as f64
                / queue_wait_s.len() as f64,
        );
        report.set("loadgen.samples", queue_wait_s.len() as f64);
    }
    report.set("store.create_s", create_s);
    report.set(
        "store.base_bytes_per_row",
        base_bytes as f64 / base_rows as f64,
    );
    report.set("serve.persist.save_s", save_s);
    report.set("serve.persist.snapshot_bytes", snapshot_bytes as f64);
    report.set("store.replayed_batches", replayed as f64);
    report.set("serve.persist.catch_up_nodes", catch_up_nodes as f64);

    // The two halves of a warm boot, called directly: the snapshot loads,
    // then the partial base open with the WAL replay.
    let snaps = DataDir::snapshots_path(root);
    let span = tracer.open("serve.persist.load", 0);
    let (_graph, _mapping, cursor) = load_graph(&snaps.join("graph.snap")).expect("load graph");
    load_model(&snaps.join("model.snap")).expect("load model");
    report.set("serve.persist.load_s", tracer.close(span));
    let selection = BaseColumnSelection {
        expected_rows: cursor.counts().to_vec(),
        ..BaseColumnSelection::default()
    };
    let span = tracer.open("store.open_columns", 0);
    DataDir::open_columns(root, &selection).expect("open columns");
    report.set("store.open_columns_s", tracer.close(span));
}

/// The burst, then the paced groups beside a reader, against the server at
/// `addr`. In a traced run every other group runs with the obs sink on;
/// their cost against the rest is the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn write_groups(
    phases: &Phases,
    hot_keys: usize,
    seeds: Seeds,
    engine: &ShardedEngine,
    durable: &mut Durable,
    addr: &str,
    (rows, keys): (&[usize], &[i64]),
    tracer: &mut Tracer,
    report: &mut Report,
) -> Written {
    let mut rng = Rng::new(seeds.streams, 1);
    let hot = choose_distinct(&mut rng, keys.len(), hot_keys);
    let read_stream = uniform_stream(&mut rng, &hot, 1 << 14);
    let mut groups = Groups::new(&durable.mirror, seeds.streams);
    let mut costs = Vec::new();
    let mut one_group = |g: u64, tracer: &mut Tracer, report: &mut Report| {
        let batches = groups.next_group();
        if g % 2 == 1 {
            tracer.obs_on();
        }
        costs.push(ingest_group(engine, durable, batches, g, tracer, report));
        tracer.obs_off();
    };

    let span = tracer.open("ingest_burst", 0);
    for g in 0..phases.burst_groups as u64 {
        one_group(g, tracer, report);
    }
    let burst_s = tracer.close(span);

    let target = Target {
        addr,
        keys,
        oracle: None,
    };
    let (mut visible_s, mut queue_wait_s) = (Vec::new(), Vec::new());
    let mut read_rps = 0.0;
    if phases.paced_groups > 0 {
        let schedule = Duration::from_secs_f64(phases.paced_groups as f64 / GROUP_RATE);
        let warm = Duration::from_millis(300);
        let span = tracer.open("mixed_paced", 0);
        let reads = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                closed_loop(
                    target,
                    std::slice::from_ref(&read_stream),
                    WINDOW,
                    warm,
                    schedule,
                )
            });
            let t0 = Instant::now() + warm;
            for g in 0..phases.paced_groups as u64 {
                let due = t0 + Duration::from_secs_f64(g as f64 / GROUP_RATE);
                let late = wait_until(due);
                one_group(phases.burst_groups as u64 + g, tracer, report);
                visible_s.push(due.elapsed().as_secs_f64());
                queue_wait_s.push(late.as_secs_f64());
                report.check(late <= LATE_LIMIT, || {
                    format!("paced group {g} started {late:?} late")
                });
            }
            reader.join().expect("reader thread")
        });
        tracer.close(span);
        report.count("reads beside ingest", reads.attempted, reads.failed);
        read_rps = reads.rps();
    }
    // Counters read 0 while the sink is off.
    tracer.obs_on();
    let wal_syncs = obs::counter_value("persist.wal.sync_calls");
    tracer.obs_off();

    // Quiescent now: every hot key over the socket must equal what the
    // engine computes in process at the final epoch.
    let survivor = engine.predict_batch_rows(rows);
    let target = Target {
        oracle: Some(&survivor),
        ..target
    };
    let (_, bad) = sequential(target, &hot, hot.len(), &mut Tracer::new(false));
    report.count("reads after ingest", hot.len() as u64, bad);
    Written {
        costs,
        burst_s,
        visible_s,
        queue_wait_s,
        read_rps,
        wal_syncs,
        survivor,
    }
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path)
            } else {
                file_bytes(&path)
            }
        })
        .sum()
}
