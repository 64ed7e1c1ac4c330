//! # relgraph-bench
//!
//! The experiment harness: canonical task definitions, a model-comparison
//! runner, and table-formatted reporting. Each `exp_*` binary regenerates
//! one table or figure of EXPERIMENTS.md:
//!
//! | binary | artifact |
//! |---|---|
//! | `exp_t1_datasets` | T1 — dataset & task inventory |
//! | `exp_t2_classification` | T2 — entity classification leaderboard |
//! | `exp_t3_regression` | T3 — entity regression leaderboard |
//! | `exp_t4_recommendation` | T4 — recommendation leaderboard |
//! | `exp_f1_improvement` | F1 — relative-improvement summary |
//! | `exp_f2_leakage` | F2 — temporal-leakage ablation |
//! | `exp_f3_scaling` | F3 — dataset-size scaling |
//! | `exp_f4_feature_effort` | F4 — feature-engineering-effort sweep |
//! | `exp_f5_depth` | F5 — GNN depth ablation |
//!
//! Run all with `for b in exp_…; do cargo run --release -p relgraph-bench --bin $b; done`
//! or individually. Set `RELGRAPH_QUICK=1` to shrink workloads ~4× for a
//! smoke pass.
//!
//! The crate also hosts the CI smoke tool `tolerance_diff` and the
//! `scale_out_of_core` harness. It is not where performance claims are
//! made: those come from the `benchmark/` package at the repository root,
//! parent build against change build.

pub mod report;
pub mod tasks;

pub use report::Table;
pub use tasks::{
    canonical_tasks, clinic_db, ecommerce_db, forum_db, is_quick, models_for, quick_scale,
    run_models, standard_exec_config, task_db, ModelRun, Task, TaskFamily,
};
