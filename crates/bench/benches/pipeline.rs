//! Micro-benchmarks for the data path: generation, graph compilation,
//! temporal sampling, feature engineering, query compilation and ingest.
//!
//! Run with `cargo bench -p relgraph-bench --bench pipeline`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use relgraph_baselines::{FeatureConfig, FeatureEngineer};
use relgraph_datagen::{generate_ecommerce, EcommerceConfig};
use relgraph_db2graph::{build_graph, ConvertOptions};
use relgraph_graph::{SamplerConfig, Seed, TemporalSampler};
use relgraph_pq::traintable::TrainTableConfig;
use relgraph_pq::{analyze, build_training_table, parse};

fn db(customers: usize) -> relgraph_store::Database {
    generate_ecommerce(&EcommerceConfig {
        customers,
        products: (customers / 8).max(20),
        seed: 7,
        ..Default::default()
    })
    .expect("generate")
}

fn bench_datagen(c: &mut Criterion) {
    let mut g = c.benchmark_group("datagen");
    g.sample_size(10);
    for &n in &[200usize, 800] {
        g.bench_with_input(BenchmarkId::new("ecommerce", n), &n, |b, &n| {
            b.iter(|| db(n).total_rows())
        });
    }
    g.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("graph_build");
    g.sample_size(10);
    for &n in &[200usize, 800] {
        let database = db(n);
        g.bench_with_input(BenchmarkId::new("db2graph", n), &database, |b, database| {
            b.iter(|| {
                let (graph, _) = build_graph(database, &ConvertOptions::default()).unwrap();
                graph.total_edges()
            })
        });
    }
    g.finish();
}

fn bench_sampler(c: &mut Criterion) {
    let database = db(800);
    let (graph, mapping) = build_graph(&database, &ConvertOptions::default()).unwrap();
    let cust = mapping.node_type("customers").unwrap();
    let (_, hi) = database.time_span().unwrap();
    let seeds: Vec<Seed> = (0..64)
        .map(|i| Seed {
            node_type: cust,
            node: i * 3,
            time: hi,
        })
        .collect();
    let mut g = c.benchmark_group("sampler");
    for hops in [1usize, 2, 3] {
        let sampler = TemporalSampler::new(&graph, SamplerConfig::new(vec![10; hops]));
        g.bench_with_input(
            BenchmarkId::new("batch64_fanout10", hops),
            &sampler,
            |b, sampler| b.iter(|| sampler.sample(&seeds).total_nodes()),
        );
    }
    g.finish();
}

fn bench_feature_engineering(c: &mut Criterion) {
    let database = db(400);
    let fe = FeatureEngineer::new(&database, "customers", FeatureConfig::default()).unwrap();
    let (_, hi) = database.time_span().unwrap();
    let seeds: Vec<(usize, i64)> = (0..200).map(|i| (i, hi)).collect();
    let mut g = c.benchmark_group("feature_engineering");
    g.bench_function("compute_200x", |b| {
        b.iter(|| fe.compute(&database, &seeds).unwrap().len())
    });
    g.bench_function("plan", |b| {
        b.iter(|| {
            FeatureEngineer::new(&database, "customers", FeatureConfig::default())
                .unwrap()
                .num_features()
        })
    });
    g.finish();
}

fn bench_pq_compile(c: &mut Criterion) {
    let database = db(400);
    let query = "PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id \
                 WHERE region = 'north' USING model = gnn, epochs = 5";
    let mut g = c.benchmark_group("pq_compile");
    g.bench_function("parse", |b| b.iter(|| parse(query).unwrap()));
    g.bench_function("parse_analyze", |b| {
        b.iter(|| analyze(&database, parse(query).unwrap()).unwrap())
    });
    let aq = analyze(&database, parse(query).unwrap()).unwrap();
    g.bench_function("training_table", |b| {
        b.iter(|| {
            build_training_table(&database, &aq, &TrainTableConfig::default())
                .unwrap()
                .len()
        })
    });
    g.finish();
}

fn bench_ingest(c: &mut Criterion) {
    use relgraph_db2graph::{update_graph, GraphCursor};
    use relgraph_store::{Database, IngestPolicy, RowBatch};

    let full = db(800);
    let (lo, hi) = full.time_span().unwrap();
    let t_cut = hi - (hi - lo) / 20;
    let mut base = Database::new("bench-ingest");
    for t in full.tables() {
        base.create_table(t.schema().clone()).unwrap();
    }
    let mut late = Vec::new();
    for t in full.tables() {
        let streamed = matches!(t.name(), "orders" | "reviews");
        for i in 0..t.len() {
            let row = t.row(i).unwrap();
            match t.row_timestamp(i) {
                Some(rt) if streamed && rt > t_cut => late.push((t.name().to_string(), rt, row)),
                _ => {
                    base.insert(t.name(), row).unwrap();
                }
            }
        }
    }
    late.sort_by_key(|&(_, rt, _)| rt);
    let mut batch = RowBatch::new();
    for (table, _, row) in late {
        batch.push(table, row);
    }
    let n_rows = batch.len();
    let opts = ConvertOptions::default();
    let (g0, m0) = build_graph(&base, &opts).unwrap();
    let c0 = GraphCursor::capture(&base);

    let mut g = c.benchmark_group("ingest");
    g.bench_function(&format!("validate_apply_{n_rows}rows"), |b| {
        b.iter(|| {
            let mut db = base.clone();
            db.ingest(batch.clone(), &IngestPolicy::reject_all())
                .unwrap()
                .accepted
        })
    });
    let mut db_after = base.clone();
    db_after
        .ingest(batch.clone(), &IngestPolicy::reject_all())
        .unwrap();
    g.bench_function("full_rebuild", |b| {
        b.iter(|| build_graph(&db_after, &opts).unwrap().0.total_edges())
    });
    g.bench_function("incremental_delta", |b| {
        b.iter_with_setup(
            || (g0.clone(), m0.clone(), c0.clone()),
            |(mut graph, mut mapping, mut cursor)| {
                update_graph(&db_after, &mut graph, &mut mapping, &mut cursor, &opts).unwrap();
                graph.total_edges()
            },
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_datagen,
    bench_graph_build,
    bench_sampler,
    bench_feature_engineering,
    bench_pq_compile,
    bench_ingest
);

criterion_main!(benches);
