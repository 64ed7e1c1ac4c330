//! Property-based tests for the tensor/autodiff substrate.

use proptest::prelude::*;
use relgraph_tensor::gradcheck::check_gradient;
use relgraph_tensor::{Graph, Tensor};

fn small_tensor() -> impl Strategy<Value = Tensor> {
    (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-3.0f64..3.0, r * c)
            .prop_map(move |data| Tensor::from_vec(r, c, data))
    })
}

/// A compatible `(A: m×k, B: k×n)` pair with dims large enough to cross the
/// blocked/parallel kernel's flop threshold on some cases.
fn matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..80, 1usize..80, 1usize..80).prop_flat_map(|(m, k, n)| {
        (
            proptest::collection::vec(-2.0f64..2.0, m * k)
                .prop_map(move |d| Tensor::from_vec(m, k, d)),
            proptest::collection::vec(-2.0f64..2.0, k * n)
                .prop_map(move |d| Tensor::from_vec(k, n, d)),
        )
    })
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_shapes_compose((a, b, c) in (1usize..6, 1usize..6, 1usize..6)) {
        let x = Tensor::full(a, b, 1.0);
        let y = Tensor::full(b, c, 2.0);
        let z = x.matmul(&y);
        prop_assert_eq!(z.shape(), (a, c));
        // Every entry is b * 1 * 2.
        prop_assert!(z.data().iter().all(|&v| (v - 2.0 * b as f64).abs() < 1e-12));
    }

    #[test]
    fn transpose_is_involutive(t in small_tensor()) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn matmul_transpose_identity(t in small_tensor()) {
        // (AᵀA) is symmetric.
        let ata = t.transpose().matmul(&t);
        let (n, m) = ata.shape();
        prop_assert_eq!(n, m);
        for i in 0..n {
            for j in 0..n {
                prop_assert!((ata.get(i, j) - ata.get(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn activation_chain_gradients_check(t in small_tensor()) {
        let r = check_gradient(&t, 1e-5, |g, x| {
            let a = g.tanh(x);
            let b = g.sigmoid(a);
            let c = g.softplus(b);
            g.mean_all(c)
        });
        prop_assert!(r.passes(1e-5), "{r:?}");
    }

    #[test]
    fn linear_layer_gradients_check(t in small_tensor()) {
        let cols = t.cols();
        let w = Tensor::full(cols, 3, 0.37);
        let r = check_gradient(&t, 1e-5, move |g, x| {
            let wv = g.leaf(w.clone());
            let y = g.matmul(x, wv);
            let z = g.relu(y);
            g.sum_all(z)
        });
        prop_assert!(r.passes(1e-5), "{r:?}");
    }

    #[test]
    fn segment_mean_preserves_total_when_uniform(rows in 1usize..8, segs in 1usize..4) {
        // All rows to one segment: mean of all rows.
        let t = Tensor::full(rows, 2, 3.5);
        let mut g = Graph::new();
        let x = g.constant(t);
        let m = g.segment_mean(x, vec![0; rows], segs).unwrap();
        prop_assert!((g.value(m).get(0, 0) - 3.5).abs() < 1e-12);
        for s in 1..segs {
            prop_assert_eq!(g.value(m).get(s, 0), 0.0);
        }
    }

    #[test]
    fn sum_all_equals_manual_sum(t in small_tensor()) {
        let mut g = Graph::new();
        let x = g.constant(t.clone());
        let s = g.sum_all(x);
        prop_assert!((g.value(s).item() - t.sum()).abs() < 1e-9);
    }

    #[test]
    fn backward_gradients_are_finite(t in small_tensor()) {
        let mut g = Graph::new();
        let x = g.leaf(t);
        let a = g.leaky_relu(x, 0.01);
        let b = g.mul(a, a);
        let l = g.mean_all(b);
        g.backward(l).unwrap();
        prop_assert!(g.grad(x).unwrap().all_finite());
    }

    #[test]
    fn microkernel_matmul_matches_naive_to_rounding((a, b) in matmul_pair()) {
        // The FMA microkernel fuses each multiply-add into a single
        // rounding, so it is *more* accurate than the naive two-rounding
        // loop — the two agree to accumulated rounding error, not bitwise.
        // (Bit-identity across thread counts and vs the fused epilogue is
        // asserted in tests/parallel_determinism.rs, where the thread
        // count can be controlled without racing other tests.)
        prop_assert!(max_abs_diff(&a.matmul(&b), &a.matmul_naive(&b)) <= 1e-9);
    }

    #[test]
    fn fused_transpose_kernels_match_materialized((a, b) in matmul_pair()) {
        // A·Bᵀ via the fused kernel vs transposing B and multiplying.
        let bt = b.transpose();
        prop_assert!(max_abs_diff(&a.matmul_nt(&bt), &a.matmul(&b)) <= 1e-10);
        // Aᵀ·C via the fused kernel vs transposing A and multiplying
        // (C = A·B shares A's row count, as matmul_tn requires).
        let c = a.matmul(&b);
        prop_assert!(
            max_abs_diff(&a.matmul_tn(&c), &a.transpose().matmul(&c)) <= 1e-10
        );
    }

    #[test]
    fn fused_backward_matches_naive_oracle((a, b) in matmul_pair()) {
        // Gradients through the fused backward (matmul_nt / matmul_tn, no
        // materialized transposes) vs the textbook formulas on the naive
        // kernel: for y = a·b, dx = dy·bᵀ and dw = aᵀ·dy.
        let mut g = Graph::new();
        let x = g.leaf(a.clone());
        let w = g.leaf(b.clone());
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        g.backward(l).unwrap();
        // The seed gradient of sum_all is all ones.
        let dy = Tensor::full(a.rows(), b.cols(), 1.0);
        let dx = dy.matmul_naive(&b.transpose());
        let dw = a.transpose().matmul_naive(&dy);
        prop_assert!(max_abs_diff(g.grad(x).unwrap(), &dx) <= 1e-10);
        prop_assert!(max_abs_diff(g.grad(w).unwrap(), &dw) <= 1e-10);
    }

    #[test]
    fn gather_rows_matches_manual(t in small_tensor(), seed in 0usize..100) {
        let n = t.rows();
        let idx: Vec<usize> = (0..4).map(|k| (seed + k) % n).collect();
        let mut g = Graph::new();
        let x = g.constant(t.clone());
        let got = g.gather_rows(x, idx.clone()).unwrap();
        for (r, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.value(got).row(r), t.row(i));
        }
    }
}

/// Above `PAR_FLOPS_THRESHOLD` (192³ multiply-adds) every matmul variant
/// fans its row panels out over threads; the bits must not depend on how
/// many threads take panels. (`tests/parallel_determinism.rs` sweeps the
/// tiers below it.)
#[test]
fn parallel_tier_is_bit_identical_across_thread_counts() {
    let fill = |rows: usize, cols: usize, mul: f64| {
        let data = (0..rows * cols)
            .map(|i| ((i * 31 + i / cols * 7) % 23) as f64 * mul - 1.0)
            .collect();
        Tensor::from_vec(rows, cols, data)
    };
    let (m, k, n) = (320, 160, 192);
    let (a, b, bias) = (fill(m, k, 0.09), fill(k, n, 0.07), fill(1, n, 0.05));
    let (at, bt) = (a.transpose(), b.transpose());
    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        [
            a.matmul(&b),
            a.matmul_nt(&bt),
            at.matmul_tn(&b),
            a.matmul_bias_act(&b, &bias, relgraph_tensor::ActKind::Relu),
        ]
        .map(|t| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
    };
    let old = std::env::var("RAYON_NUM_THREADS").ok();
    let serial = run("1");
    for threads in ["2", "4", "7"] {
        assert!(run(threads) == serial, "differs at {threads} threads");
    }
    match old {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}
