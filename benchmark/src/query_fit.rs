//! `query_fit` — the paper path with the serving layers idle: PQL text in,
//! predictions for every deploy entity out, again and again on one
//! database. Chosen because it is the declarative-ML promise itself and the
//! only workload where training cost shows: pq, db2graph, the sampler, the
//! tensor kernels and gnn training do all the work.

use std::hint::black_box;

use relgraph_db2graph::{build_graph, ConvertOptions};
use relgraph_gnn::{train_node_model, NodeModel, TaskKind, TrainConfig};
use relgraph_graph::{HeteroGraph, Seed, TemporalSampler};
use relgraph_obs as obs;
use relgraph_pq::{
    analyze, build_training_table, execute, parse, Example, Prediction, PredictionValue, TaskType,
};
use relgraph_store::Database;
use relgraph_tensor::Tensor;

use crate::common::{make_db, Seeds};
use crate::config::{exec_config, Scale, MIN_AUROC, QUERY};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

pub fn run(scale: &Scale, seeds: Seeds, tracer: &mut Tracer, report: &mut Report) {
    let cfg = exec_config();

    // Set-up: the database plus one untimed execute (first-touch page
    // faults and allocator growth are paid here, not in the repetitions).
    let setup_reps = if tracer.active() { 1 } else { scale.setup_reps };
    let mut setup_s = Vec::new();
    let mut stage: Option<(Database, Vec<Prediction>, f64)> = None;
    for rep in 0..setup_reps {
        let span = tracer.open("setup", rep as u64);
        let db = make_db(scale, seeds.data);
        let outcome = execute(&db, QUERY, &cfg).expect("execute the query");
        setup_s.push(tracer.close(span));
        let auroc = outcome
            .metric("auroc")
            .expect("classification reports auroc");
        report.check(
            stage
                .as_ref()
                .is_none_or(|(_, p, _)| *p == outcome.predictions),
            || format!("set-up {rep}: predictions differ from the first set-up's"),
        );
        stage = Some((db, outcome.predictions, auroc));
    }
    let (db, reference, auroc) = stage.expect("at least one set-up");
    report.check(reference.len() >= scale.customers / 2, || {
        format!("only {} deploy predictions", reference.len())
    });
    report.check(scale.quick || auroc >= MIN_AUROC, || {
        format!("test AUROC {auroc} is below {MIN_AUROC}")
    });

    if tracer.active() {
        traced(scale, &db, &reference, tracer, report);
        return;
    }

    let mut times = Vec::new();
    for rep in 0..scale.fit_reps {
        let span = tracer.open("execute", rep as u64);
        let outcome = execute(&db, QUERY, &cfg).expect("execute the query");
        times.push(tracer.close(span));
        report.check(outcome.predictions == reference, || {
            format!("repetition {rep}: predictions differ from the set-up run's")
        });
        report.check(outcome.metric("auroc") == Some(auroc), || {
            format!("repetition {rep}: test AUROC differs from the set-up run's")
        });
    }
    let query_s = median(&times);

    // Scoring alone, with a model fitted by the same steps `execute` runs:
    // what a user pays to score every entity again. The fit dominates the
    // query time above and is absent here, so the two figures move apart.
    let fitted = fit_steps(&db, 0, tracer);
    report.check(fitted.same_as(&reference), || {
        "the steps' predictions differ from execute's".to_string()
    });
    let mut score_s = Vec::new();
    for rep in 0..scale.score_reps {
        let span = tracer.open("score", rep as u64);
        let scores = fitted.model.predict(&fitted.graph, &fitted.deploy);
        score_s.push(tracer.close(span));
        report.check(scores == fitted.deploy_preds, || {
            format!("scoring pass {rep}: predictions differ from the first pass's")
        });
    }

    report.set_setup(&setup_s);
    report.set_how(
        "latency_p50_ms",
        query_s * 1e3,
        format!(
            "query to predictions: median of {} pq::execute calls",
            times.len()
        ),
    );
    report.set_how(
        "throughput_per_s",
        fitted.deploy.len() as f64 / median(&score_s),
        format!(
            "fitted model over all {} deploy entities, predictions / median of {} passes",
            fitted.deploy.len(),
            score_s.len()
        ),
    );
    report.set_how(
        "val_auroc",
        auroc,
        "test AUROC, identical on every repetition".to_string(),
    );
}

/// One fit by the steps `execute` runs, called one by one from here, each
/// under its own span.
struct Fitted {
    /// parse, analyze, training table, graph build, train, predict: seconds.
    step_s: [f64; 6],
    examples: usize,
    trained: usize,
    model: NodeModel,
    graph: HeteroGraph,
    test: Vec<Seed>,
    deploy: Vec<Seed>,
    deploy_preds: Vec<f64>,
}

impl Fitted {
    /// The steps must be the pipeline `execute` runs, not a look-alike.
    fn same_as(&self, reference: &[Prediction]) -> bool {
        self.deploy_preds.len() == reference.len()
            && self.deploy_preds.iter().zip(reference).all(
                |(p, r)| matches!(r.value, PredictionValue::Score(q) if q.to_bits() == p.to_bits()),
            )
    }
}

fn fit_steps(db: &Database, rep: u64, tracer: &mut Tracer) -> Fitted {
    let cfg = exec_config();
    let whole = tracer.open("steps", rep);
    let s = tracer.open("step.parse", rep);
    let query = parse(black_box(QUERY)).expect("parse");
    let parse_s = tracer.close(s);
    let s = tracer.open("step.analyze", rep);
    let aq = analyze(db, query).expect("analyze");
    let analyze_s = tracer.close(s);
    let s = tracer.open("step.traintable", rep);
    let table = build_training_table(db, &aq, &cfg.traintable).expect("training table");
    let traintable_s = tracer.close(s);
    let s = tracer.open("step.build_graph", rep);
    let (graph, mapping) = build_graph(db, &ConvertOptions::default()).expect("build graph");
    let build_s = tracer.close(s);

    assert_eq!(aq.task, TaskType::Classification);
    let node_type = mapping
        .node_type(&aq.entity_table)
        .expect("entity node type");
    let seed_of = |e: &Example| Seed {
        node_type,
        node: e.entity_row,
        time: e.anchor,
    };
    let labelled = |examples: &[Example]| -> Vec<(Seed, f64)> {
        examples
            .iter()
            .map(|e| (seed_of(e), e.label.scalar()))
            .collect()
    };
    let (train, val) = (labelled(&table.train), labelled(&table.val));
    let tc = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        fanouts: cfg.fanouts.clone(),
        hidden_dim: cfg.hidden_dim,
        seed: cfg.seed,
        temporal: cfg.temporal,
        degree_features: cfg.degree_features,
        aggregation: cfg.aggregation,
        ..TrainConfig::default()
    };
    let s = tracer.open("step.train", rep);
    let model = train_node_model(&graph, TaskKind::Binary, &train, &val, &tc).expect("train");
    let train_s = tracer.close(s);

    let anchor = db.time_span().map_or(0, |(_, hi)| hi);
    let entity = db.table(&aq.entity_table).expect("entity table");
    let deploy: Vec<Seed> = (0..entity.len())
        .filter(|&row| entity.row_timestamp(row).is_none_or(|t| t <= anchor))
        .map(|node| Seed {
            node_type,
            node,
            time: anchor,
        })
        .collect();
    let test: Vec<Seed> = table.test.iter().map(seed_of).collect();
    let s = tracer.open("step.predict", rep);
    let test_preds = model.predict(&graph, &test);
    let deploy_preds = model.predict(&graph, &deploy);
    let predict_s = tracer.close(s);
    tracer.close(whole);
    black_box(test_preds);

    Fitted {
        step_s: [
            parse_s,
            analyze_s,
            traintable_s,
            build_s,
            train_s,
            predict_s,
        ],
        examples: table.len(),
        trained: train.len() * model.report.epochs_run,
        model,
        graph,
        test,
        deploy,
        deploy_preds,
    }
}

/// The traced run: whole executes with and without the obs sink (the
/// difference is the tracing overhead), then the steps of `execute` called
/// one by one from here, each under its own span.
fn traced(
    scale: &Scale,
    db: &Database,
    reference: &[Prediction],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let cfg = exec_config();
    let reps = scale.fit_reps.min(3);
    let (mut plain, mut with_obs) = (Vec::new(), Vec::new());
    for rep in 0..reps as u64 {
        let span = tracer.open("execute.untraced", rep);
        let outcome = execute(db, QUERY, &cfg).expect("execute the query");
        plain.push(tracer.close(span));
        report.check(outcome.predictions == reference, || {
            format!("untraced repetition {rep}: predictions differ")
        });
        tracer.obs_on();
        let span = tracer.open("execute.traced", rep);
        let outcome = execute(db, QUERY, &cfg).expect("execute the query");
        with_obs.push(tracer.close(span));
        tracer.obs_off();
        report.check(outcome.predictions == reference, || {
            format!("traced repetition {rep}: predictions differ")
        });
    }
    tracer.obs_on();
    let matmul_calls = obs::counter_value("tensor.matmul.calls") as f64 / reps as f64;
    let matmul_flops = obs::counter_value("tensor.matmul.flops") as f64 / reps as f64;

    // The steps, one by one, obs still on so the crates' own spans (which
    // carry the crate names, `pq.parse`, `gnn.train`, ...) nest under these.
    let mut step_s = Vec::new();
    let mut last = None;
    for rep in 0..reps as u64 {
        let fitted = fit_steps(db, rep, tracer);
        report.check(fitted.same_as(reference), || {
            format!("steps repetition {rep}: predictions differ from execute's")
        });
        step_s.push(fitted.step_s);
        last = Some(fitted); // one fitted model and graph alive at a time
    }
    tracer.obs_off();

    let step = |i: usize| median(&step_s.iter().map(|s| s[i]).collect::<Vec<_>>());
    let last = last.expect("at least one repetition");
    let predicted = last.test.len() + last.deploy.len();
    let plain_s = median(&plain);
    report.set(
        "obs.trace_overhead_share",
        (median(&with_obs) - plain_s) / plain_s,
    );
    report.set("pq.execute_s", median(&with_obs));
    report.set("pq.steps_sum_s", (0..6).map(step).sum());
    report.set("pq.parse_us", step(0) * 1e6);
    report.set("pq.analyze_us", step(1) * 1e6);
    report.set("pq.traintable_s", step(2));
    report.set("pq.traintable_examples", last.examples as f64);
    report.set("db2graph.build_s", step(3));
    report.set("db2graph.nodes", last.graph.total_nodes() as f64);
    report.set("db2graph.edges", last.graph.total_edges() as f64);
    report.set("gnn.train_s", step(4));
    report.set("gnn.train_examples_per_s", last.trained as f64 / step(4));
    report.set("gnn.predict_us_per_seed", step(5) * 1e6 / predicted as f64);
    report.set("tensor.matmul_calls", matmul_calls);
    report.set("tensor.matmul_flops", matmul_flops);

    // Sampler and kernel, alone, at the sizes the fit itself uses: deploy
    // seeds in mini-batches, then one layer's (nodes x hidden)·(hidden x
    // hidden) product for a mini-batch's sampled nodes.
    let (graph, deploy) = (&last.graph, &last.deploy);
    let sampler = TemporalSampler::new(graph, last.model.sampler_cfg().clone());
    let span = tracer.open("probe.sample", 0);
    let (mut sampled_edges, mut batch_nodes) = (0usize, Vec::new());
    for chunk in deploy.chunks(cfg.batch_size) {
        let sub = black_box(sampler.sample(chunk));
        sampled_edges += sub.total_edges();
        batch_nodes.push(sub.total_nodes() as f64);
    }
    let sample_s = tracer.close(span);
    report.set(
        "graph.sample_us_per_seed",
        sample_s * 1e6 / deploy.len() as f64,
    );
    report.set(
        "graph.sampled_edges_per_seed",
        sampled_edges as f64 / deploy.len() as f64,
    );

    let (m, k) = (median(&batch_nodes) as usize, cfg.hidden_dim);
    let a = Tensor::full(m, k, 0.5);
    let b = Tensor::full(k, k, 0.25);
    let calls = if scale.quick { 200 } else { 2000 };
    let span = tracer.open("probe.matmul", 0);
    for _ in 0..calls {
        black_box(black_box(&a).matmul(black_box(&b)));
    }
    let matmul_s = tracer.close(span);
    report.set(
        "tensor.matmul_gflops",
        (2 * m * k * k * calls) as f64 / matmul_s / 1e9,
    );
}
