//! Parallelism-determinism integration tests: every rayon-parallelized
//! stage must produce bit-identical results regardless of thread count.
//!
//! The engine's contract (see DESIGN.md, "Parallelism model") is that
//! threads only ever change wall-clock time, never results: parallel
//! stages partition work into order-preserving chunks and merge in input
//! order. These tests pin that contract end-to-end — sampling, training
//! tables, featurization, and full GNN training runs.

use relgraph::db2graph::{build_graph, ConvertOptions};
use relgraph::gnn::{train_multiclass_model, train_node_model, TaskKind, TrainConfig};
use relgraph::graph::{SamplerConfig, Seed, TemporalSampler};
use relgraph::pq::traintable::TrainTableConfig;
use relgraph::pq::{analyze, build_training_table, parse, Example};
use relgraph::prelude::*;
use relgraph::tensor::{ActKind, Graph, Tensor};

/// Run `f` with `RAYON_NUM_THREADS` fixed to `n`, restoring the previous
/// value afterwards. The shim reads the variable per call, so this
/// controls every parallel region inside `f`.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let out = f();
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// One combined test (not several) because `RAYON_NUM_THREADS` is
/// process-global and the test harness runs `#[test]` fns concurrently.
/// Deterministic dense test matrix (no RNG dependency).
fn mat(rows: usize, cols: usize, m0: usize, m1: usize, md: i64) -> Tensor {
    let data: Vec<f64> = (0..rows * cols)
        .map(|x| ((x / cols * m0 + x % cols * m1) as i64 % md - md / 2) as f64 * 0.25)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// The matmul microkernels (plain, NT, TN, and the fused
/// linear+bias+activation epilogue) must be bit-identical across thread
/// counts at every dispatch tier: tiny (naive fallback), medium (serial
/// microkernel) and large (parallel row panels).
fn assert_matmul_kernels_thread_invariant() {
    // (m, k, n) crossing the naive (32³ flops) and parallel (64³ flops)
    // dispatch thresholds, plus ragged shapes exercising tile remainders.
    let shapes = [(4usize, 5usize, 3usize), (33, 40, 37), (80, 64, 96)];
    for &(m, k, n) in &shapes {
        let a = mat(m, k, 31, 7, 13);
        let b = mat(k, n, 17, 3, 11);
        let bt = b.transpose();
        let at = a.transpose();
        let bias = mat(1, n, 5, 29, 9);
        let base = with_threads(1, || {
            (
                a.matmul(&b),
                a.matmul_nt(&bt),
                at.matmul_tn(&b),
                a.matmul_bias_act(&b, &bias, ActKind::Relu),
            )
        });
        for threads in [2, 4, 7] {
            let got = with_threads(threads, || {
                (
                    a.matmul(&b),
                    a.matmul_nt(&bt),
                    at.matmul_tn(&b),
                    a.matmul_bias_act(&b, &bias, ActKind::Relu),
                )
            });
            assert_eq!(
                bits(&base.0),
                bits(&got.0),
                "matmul {m}x{k}x{n} differs at {threads} threads"
            );
            assert_eq!(
                bits(&base.1),
                bits(&got.1),
                "matmul_nt {m}x{k}x{n} differs at {threads} threads"
            );
            assert_eq!(
                bits(&base.2),
                bits(&got.2),
                "matmul_tn {m}x{k}x{n} differs at {threads} threads"
            );
            assert_eq!(
                bits(&base.3),
                bits(&got.3),
                "matmul_bias_act {m}x{k}x{n} differs at {threads} threads"
            );
        }
    }
}

/// The fused `linear_act` tape op must match the unfused
/// `matmul → add_row → activation` chain bit for bit — forward and
/// gradients — at every dispatch tier and activation.
fn assert_fused_linear_matches_composition() {
    let acts = [
        ActKind::Identity,
        ActKind::Relu,
        ActKind::LeakyRelu(0.01),
        ActKind::Sigmoid,
        ActKind::Tanh,
    ];
    for &(m, k, n) in &[(5usize, 6usize, 4usize), (80, 64, 96)] {
        let x0 = mat(m, k, 31, 7, 13);
        let w0 = mat(k, n, 17, 3, 11);
        let b0 = mat(1, n, 5, 29, 9);
        for act in acts {
            let mut gf = Graph::new();
            let xf = gf.leaf_copied(&x0);
            let wf = gf.leaf_copied(&w0);
            let bf = gf.leaf_copied(&b0);
            let yf = gf.linear_act(xf, wf, bf, act);
            let lf = gf.mean_all(yf);
            gf.backward(lf).unwrap();

            let mut gu = Graph::new();
            let xu = gu.leaf_copied(&x0);
            let wu = gu.leaf_copied(&w0);
            let bu = gu.leaf_copied(&b0);
            let mm = gu.matmul(xu, wu);
            let z = gu.add_row(mm, bu);
            let yu = match act {
                ActKind::Identity => z,
                ActKind::Relu => gu.relu(z),
                ActKind::LeakyRelu(s) => gu.leaky_relu(z, s),
                ActKind::Sigmoid => gu.sigmoid(z),
                ActKind::Tanh => gu.tanh(z),
            };
            let lu = gu.mean_all(yu);
            gu.backward(lu).unwrap();

            assert_eq!(
                bits(gf.value(yf)),
                bits(gu.value(yu)),
                "fused forward diverges ({m}x{k}x{n}, {act:?})"
            );
            for (fused, unfused, name) in [
                (gf.grad(xf), gu.grad(xu), "dX"),
                (gf.grad(wf), gu.grad(wu), "dW"),
                (gf.grad(bf), gu.grad(bu), "db"),
            ] {
                assert_eq!(
                    bits(fused.unwrap()),
                    bits(unfused.unwrap()),
                    "fused {name} diverges ({m}x{k}x{n}, {act:?})"
                );
            }
        }
    }
}

#[test]
fn thread_count_never_changes_results() {
    // Kernel-level invariants first: they are what makes the end-to-end
    // checks below hold.
    assert_matmul_kernels_thread_invariant();
    assert_fused_linear_matches_composition();

    let db = generate_ecommerce(&EcommerceConfig {
        customers: 60,
        products: 20,
        seed: 17,
        ..Default::default()
    })
    .expect("generate");

    // db2graph featurization (rayon per-row fill) + graph build (rayon
    // per-edge-type CSR construction).
    let (g1, m1) = with_threads(1, || build_graph(&db, &ConvertOptions::default()).unwrap());
    for threads in [2, 4, 7] {
        let (gn, _) = with_threads(threads, || {
            build_graph(&db, &ConvertOptions::default()).unwrap()
        });
        for t in 0..g1.num_node_types() {
            assert_eq!(
                g1.features(relgraph::graph::NodeTypeId(t)),
                gn.features(relgraph::graph::NodeTypeId(t)),
                "features differ at {threads} threads"
            );
        }
    }

    // Temporal sampling (rayon per-seed fan-out, order-preserving merge).
    let cust = m1.node_type("customers").unwrap();
    let (_, hi) = db.time_span().unwrap();
    let seeds: Vec<Seed> = (0..40)
        .map(|i| Seed {
            node_type: cust,
            node: i,
            time: hi,
        })
        .collect();
    let sampler = TemporalSampler::new(&g1, SamplerConfig::new(vec![10, 10]));
    let base = with_threads(1, || sampler.sample(&seeds));
    for threads in [2, 4, 7] {
        let sub = with_threads(threads, || sampler.sample(&seeds));
        assert_eq!(base, sub, "sampled subgraph differs at {threads} threads");
    }

    // Training-table construction (rayon per-anchor fan-out).
    let aq = analyze(
        &db,
        parse("PREDICT COUNT(orders.*, 0, 30) > 0 FOR EACH customers.customer_id").unwrap(),
    )
    .unwrap();
    let cfg = TrainTableConfig::default();
    let t1 = with_threads(1, || build_training_table(&db, &aq, &cfg).unwrap());
    let t4 = with_threads(4, || build_training_table(&db, &aq, &cfg).unwrap());
    assert_eq!(t1.train, t4.train);
    assert_eq!(t1.val, t4.val);
    assert_eq!(t1.test, t4.test);

    // Full GNN training (parallel sampling inside batch assembly, parallel
    // validation chunks, parallel matmul in forward/backward): per-epoch
    // losses must match exactly, not approximately.
    let examples: Vec<(Seed, f64)> = t1
        .train
        .iter()
        .map(|e| {
            (
                Seed {
                    node_type: cust,
                    node: e.entity_row,
                    time: e.anchor,
                },
                e.label.scalar(),
            )
        })
        .collect();
    let val: Vec<(Seed, f64)> = t1
        .val
        .iter()
        .map(|e| {
            (
                Seed {
                    node_type: cust,
                    node: e.entity_row,
                    time: e.anchor,
                },
                e.label.scalar(),
            )
        })
        .collect();
    let tcfg = TrainConfig {
        epochs: 3,
        batch_size: 32,
        seed: 5,
        ..Default::default()
    };
    let m1_model = with_threads(1, || {
        train_node_model(&g1, TaskKind::Binary, &examples, &val, &tcfg).unwrap()
    });
    let m4_model = with_threads(4, || {
        train_node_model(&g1, TaskKind::Binary, &examples, &val, &tcfg).unwrap()
    });
    assert_eq!(
        m1_model.report.train_losses, m4_model.report.train_losses,
        "train losses diverge across threads"
    );
    assert_eq!(
        m1_model.report.val_losses, m4_model.report.val_losses,
        "val losses diverge across threads"
    );

    // Served predictions must also be bit-identical: same model weights
    // (trained at different thread counts) and same inference outputs
    // regardless of the thread count used to serve them.
    let pred_seeds: Vec<Seed> = examples.iter().map(|&(s, _)| s).take(40).collect();
    let p1 = with_threads(1, || m1_model.predict(&g1, &pred_seeds));
    for threads in [2, 4, 7] {
        let p_served = with_threads(threads, || m1_model.predict(&g1, &pred_seeds));
        let p_cross = with_threads(threads, || m4_model.predict(&g1, &pred_seeds));
        for (i, ((a, b), c)) in p1.iter().zip(&p_served).zip(&p_cross).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "prediction {i} diverges at {threads} serving threads"
            );
            assert_eq!(
                a.to_bits(),
                c.to_bits(),
                "prediction {i} diverges for the {threads}-thread-trained model"
            );
        }
    }

    // Multiclass training (the same epoch loop over class-index labels):
    // losses and class probabilities must match exactly too.
    let aq = analyze(
        &db,
        parse("PREDICT MODE(orders.channel, 0, 60) FOR EACH customers.customer_id").unwrap(),
    )
    .unwrap();
    let mt = build_training_table(&db, &aq, &cfg).unwrap();
    let mut classes: Vec<String> = Vec::new();
    let mut labelled = |examples: &[Example]| -> Vec<(Seed, usize)> {
        examples
            .iter()
            .map(|e| {
                let name = e.label.class();
                let c = classes.iter().position(|c| c == name).unwrap_or_else(|| {
                    classes.push(name.to_string());
                    classes.len() - 1
                });
                let seed = Seed {
                    node_type: cust,
                    node: e.entity_row,
                    time: e.anchor,
                };
                (seed, c)
            })
            .collect()
    };
    let (mc_train, mc_val) = (labelled(&mt.train), labelled(&mt.val));
    assert!(classes.len() >= 2, "MODE fixture has {classes:?}");
    let train_mc = |threads| {
        with_threads(threads, || {
            train_multiclass_model(&g1, classes.clone(), &mc_train, &mc_val, &tcfg).unwrap()
        })
    };
    let (mc1, mc4) = (train_mc(1), train_mc(4));
    assert_eq!(
        mc1.report.train_losses, mc4.report.train_losses,
        "multiclass train losses diverge across threads"
    );
    assert_eq!(
        mc1.report.val_losses, mc4.report.val_losses,
        "multiclass val losses diverge across threads"
    );
    let mc_seeds: Vec<Seed> = mc_train.iter().map(|&(s, _)| s).take(40).collect();
    let base = with_threads(1, || mc1.predict_proba(&g1, &mc_seeds));
    for threads in [2, 4, 7] {
        let got = with_threads(threads, || mc4.predict_proba(&g1, &mc_seeds));
        assert_eq!(
            base, got,
            "class probabilities diverge at {threads} threads"
        );
    }
}
