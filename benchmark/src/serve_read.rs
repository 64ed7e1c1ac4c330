//! `serve_hot` and `serve_cold` — a fitted query answered over the socket.
//!
//! `serve_hot`: 1024 keys drawn uniformly, default cache sizes, every key
//! touched once in set-up, so the working set fits every tier. The protocol
//! codec, the socket, the inbox/steal path and the prediction-cache hit do
//! most of the work and inference almost none: a faster `gnn::infer` must
//! show *no change* here.
//!
//! `serve_cold`: the same model, keys uniform over all deploy entities, with
//! a 128-entry prediction tier and 4096-entry embedding tiers — far below
//! the working set (every entity, two embedding levels over every node). The
//! sampler, the kernels and `gnn::infer` do most of the work: a faster codec
//! or socket must show little here.

use std::hint::black_box;
use std::time::Duration;

use relgraph_serve::{
    bind, handle_line, parse_request, response_ok, ServeConfig, ServerListener, ShardedEngine,
};
use relgraph_store::Value;

use crate::common::{
    choose_distinct, deploy_keys, fit_auroc, make_db, stats_delta, uniform_stream, with_server,
    Rng, Seeds,
};
use crate::config::{
    cold_serve_config, exec_config, Scale, COLD_RATE, HOT_RATE, QUERY, SHARDS, WINDOW,
};
use crate::host::process_cpu_s;
use crate::loadgen::{closed_loop, open_loop, sequential, Target};
use crate::report::Report;
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;

#[derive(Clone, Copy)]
pub enum Kind {
    Hot,
    Cold,
}

/// A fitted engine with its listener bound, and what the answers must be.
struct Stage {
    engine: ShardedEngine,
    listener: ServerListener,
    keys: Vec<i64>,
    oracle: Vec<f64>,
}

fn set_up(kind: Kind, scale: &Scale, seeds: Seeds) -> Stage {
    let serve_cfg = match kind {
        Kind::Hot => ServeConfig::default(),
        Kind::Cold => cold_serve_config(),
    };
    let db = make_db(scale, seeds.data);
    let engine = ShardedEngine::fit(db, QUERY, &exec_config(), serve_cfg, SHARDS)
        .expect("fit the serving engine");
    let listener = bind("127.0.0.1:0").expect("bind a loopback port");
    // The oracle pass doubles as the warm-up: every deploy entity is scored
    // once in process, which fills whatever the tiers can hold.
    let (rows, keys) = deploy_keys(&engine);
    let oracle = engine.predict_batch_rows(&rows);
    Stage {
        engine,
        listener,
        keys,
        oracle,
    }
}

/// What the generator sends: entity indices per closed-loop connection and
/// for the paced phase, and the paced rate.
struct Traffic {
    closed: Vec<Vec<u32>>,
    paced: Vec<u32>,
    rate: f64,
}

/// Closed-loop connections, one generator thread each.
const CONNECTIONS: usize = 2;
const CLOSED_WARM: Duration = Duration::from_millis(500);
const STREAM_LEN: usize = 1 << 14;

pub fn run(kind: Kind, scale: &Scale, seeds: Seeds, tracer: &mut Tracer, report: &mut Report) {
    let setup_reps = if tracer.active() { 1 } else { scale.setup_reps };
    let mut setup_s = Vec::new();
    let mut stage = None;
    for rep in 0..setup_reps {
        drop(stage.take()); // one engine alive at a time
        let span = tracer.open("setup", rep as u64);
        stage = Some(set_up(kind, scale, seeds));
        setup_s.push(tracer.close(span));
    }
    let Stage {
        engine,
        listener,
        keys,
        oracle,
    } = stage.expect("at least one set-up");

    // Key streams follow the seed: one per closed-loop connection, one for
    // the paced phase.
    let mut rng = Rng::new(seeds.streams, 1);
    let population = match kind {
        Kind::Hot => choose_distinct(&mut rng, keys.len(), scale.hot_keys),
        Kind::Cold => (0..keys.len() as u32).collect(),
    };
    let traffic = Traffic {
        closed: (0..CONNECTIONS)
            .map(|_| uniform_stream(&mut rng, &population, STREAM_LEN))
            .collect(),
        paced: uniform_stream(&mut rng, &population, STREAM_LEN),
        rate: match kind {
            Kind::Hot => HOT_RATE,
            Kind::Cold => COLD_RATE,
        },
    };

    with_server(&engine, listener, |addr| {
        let target = Target {
            addr,
            keys: &keys,
            oracle: Some(&oracle),
        };
        if tracer.active() {
            traced(scale, &engine, target, &traffic, tracer, report);
            return;
        }
        let span = tracer.open("closed_loop", 0);
        let closed = closed_loop(target, &traffic.closed, WINDOW, CLOSED_WARM, scale.closed);
        tracer.close(span);
        report.count("closed loop", closed.attempted, closed.failed);
        let span = tracer.open("open_loop", 0);
        let open = open_loop(target, &traffic.paced, traffic.rate, scale.paced);
        tracer.close(span);
        report.count("open loop", open.attempted, open.failed);

        report.set_setup(&setup_s);
        report.set_how(
            "latency_p50_ms",
            percentile_sorted(&open.latencies_us, 0.5) / 1e3,
            format!(
                "read, open loop at {}/s from the due instant, {} samples",
                traffic.rate,
                open.latencies_us.len()
            ),
        );
        report.set_how(
            "throughput_per_s",
            closed.rps(),
            format!(
                "reads, closed loop, {CONNECTIONS} connections x window {WINDOW}, {} responses \
                 in {:.1} s",
                closed.responses,
                scale.closed.as_secs_f64()
            ),
        );
        report.set_how(
            "val_auroc",
            fit_auroc(&engine),
            "test AUROC of the fitted model being served".to_string(),
        );
    });
}

/// The traced run: closed-loop slices with the obs sink alternately off and
/// on (their ratio is the tracing overhead), a traced paced phase for the
/// tails and the CPU per read, then each front-end layer called on its own.
fn traced(
    scale: &Scale,
    engine: &ShardedEngine,
    target: Target,
    traffic: &Traffic,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let (paced_stream, rate) = (traffic.paced.as_slice(), traffic.rate);
    let before = engine.stats();
    let (mut plain, mut with_obs) = (Vec::new(), Vec::new());
    for round in 0..4u64 {
        let on = round % 2 == 1;
        if on {
            tracer.obs_on();
        }
        let name = if on {
            "closed_loop.traced"
        } else {
            "closed_loop.untraced"
        };
        let span = tracer.open(name, round);
        let closed = closed_loop(
            target,
            &traffic.closed,
            WINDOW,
            CLOSED_WARM / 2,
            scale.closed / 8,
        );
        tracer.close(span);
        tracer.obs_off();
        report.count("closed loop", closed.attempted, closed.failed);
        if on { &mut with_obs } else { &mut plain }.push(closed.rps());
    }
    let during = stats_delta(&engine.stats(), &before);
    report.set(
        "obs.trace_overhead_share",
        1.0 - median(&with_obs) / median(&plain),
    );
    let rate_of = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    report.set(
        "serve.cache.pred_hit_rate",
        rate_of(during.prediction_hits, during.prediction_misses),
    );
    report.set(
        "serve.cache.pred_evictions",
        during.prediction_evictions as f64,
    );
    report.set(
        "serve.cache.emb_hit_rate",
        rate_of(during.embedding_hits, during.embedding_misses),
    );
    report.set(
        "serve.cache.emb_evictions",
        during.embedding_evictions as f64,
    );
    report.set(
        "serve.l2.hit_rate",
        rate_of(during.l2_hits, during.l2_misses),
    );

    // Paced phase, traced: tails with their sample count, generator
    // lateness, and what a read costs the server in CPU.
    tracer.obs_on();
    let cpu_before = process_cpu_s();
    let span = tracer.open("open_loop.traced", 0);
    let open = open_loop(
        target,
        paced_stream,
        rate,
        scale.paced.min(Duration::from_secs(4)),
    );
    tracer.close(span);
    let server_cpu_s = process_cpu_s() - cpu_before - open.generator_cpu_s;
    tracer.obs_off();
    report.count("open loop", open.attempted, open.failed);
    let samples = open.latencies_us.len();
    report.set(
        "serve.cpu_us_per_read",
        server_cpu_s.max(0.0) * 1e6 / samples as f64,
    );
    report.set(
        "loadgen.read_p90_us",
        percentile_sorted(&open.latencies_us, 0.9),
    );
    report.set(
        "loadgen.read_p99_us",
        percentile_sorted(&open.latencies_us, 0.99),
    );
    report.set(
        "loadgen.read_p999_us",
        percentile_sorted(&open.latencies_us, 0.999),
    );
    report.set("loadgen.samples", samples as f64);
    report.set("loadgen.max_late_us", open.max_late_us);
    report.set("loadgen.late_share", open.late_share);
    report.set("serve.steal.steals", engine.steals() as f64);
    report.set("serve.steal.spills", engine.spills() as f64);

    // Each layer of one read on its own, obs off: codec, engine call,
    // `handle_line`, then the whole round trip with nothing overlapping.
    let n = scale.probe_calls;
    let line = |i: usize| {
        let entity = paced_stream[i % paced_stream.len()] as usize;
        format!("{{\"id\": {i}, \"entity\": {}}}", target.keys[entity])
    };
    let lines: Vec<String> = (0..n).map(line).collect();

    let span = tracer.open("serve.protocol.parse", 0);
    for l in &lines {
        black_box(parse_request(black_box(l)).expect("well-formed request"));
    }
    report.set(
        "serve.protocol.parse_ns",
        tracer.close(span) * 1e9 / n as f64,
    );

    let span = tracer.open("serve.protocol.encode", 0);
    for i in 0..n {
        black_box(response_ok(
            black_box(i as u64),
            black_box(0.123_456_789_f64),
        ));
    }
    report.set(
        "serve.protocol.encode_ns",
        tracer.close(span) * 1e9 / n as f64,
    );

    let oracle = target.oracle.expect("read workloads have an oracle");
    let before = engine.stats();
    let mut bad = 0u64;
    let span = tracer.open("serve.engine.read", 0);
    for i in 0..n {
        let entity = paced_stream[i % paced_stream.len()] as usize;
        let got = engine.predict_batch_keys(&[Value::Int(target.keys[entity])]);
        bad += u64::from(
            !matches!(got.as_slice(), [Ok(p)] if p.to_bits() == oracle[entity].to_bits()),
        );
    }
    let engine_s = tracer.close(span);
    report.count("engine reads", n as u64, bad);
    report.set("serve.engine.read_us", engine_s * 1e6 / n as f64);
    let misses = stats_delta(&engine.stats(), &before).prediction_misses;
    if misses > 0 {
        // Hits cost next to nothing beside a miss, so the whole probe is
        // charged to the misses.
        report.set("gnn.infer_us_per_miss", engine_s * 1e6 / misses as f64);
    }

    let span = tracer.open("serve.server.handle_line", 0);
    for l in &lines {
        black_box(handle_line(engine, black_box(l)));
    }
    let handle_us = tracer.close(span) * 1e6 / n as f64;
    report.set("serve.server.handle_line_us", handle_us);

    let (times_us, bad) = sequential(target, paced_stream, n, &mut Tracer::new(false));
    report.count("sequential round trips", n as u64, bad);
    let roundtrip_us = times_us.iter().sum::<f64>() / n as f64;
    report.set("serve.socket.roundtrip_us", roundtrip_us);
    report.set("serve.socket.overhead_us", roundtrip_us - handle_us);

    // The same round trips once more, traced, for the span file only: each
    // request's span holds the engine's own `serve.predict` span.
    tracer.obs_on();
    let (_, bad) = sequential(target, paced_stream, n / 10, tracer);
    tracer.obs_off();
    report.count("traced round trips", (n / 10) as u64, bad);
}
