//! `relgraph-benchmark` — one query's life and one batch's life, measured
//! end to end and layer by layer. See `README.md` beside this package.
//!
//! One process per run:
//!
//! ```text
//! relgraph-benchmark --workload <name> --seed <n> [--seconds <s> | --quick]
//!                    [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics of an
//! untraced run, the per-layer metrics of a traced one, which also writes
//! its span file. The exit code is non-zero when an output check failed.

mod common;
mod config;
mod host;
mod loadgen;
mod query_fit;
mod report;
mod serve_read;
mod serve_write;
mod stats;
mod trace;

use std::process::ExitCode;

use config::{Scale, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &[
    "query_fit",
    "serve_hot",
    "serve_cold",
    "serve_mixed",
    "ingest_restart",
];

struct Args {
    workload: String,
    seed: u64,
    /// Nominal measuring time; `None` until `--seconds` is given.
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.quick && args.seconds.is_some() {
        return Err("--quick fixes its own phase lengths; leave --seconds out".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("relgraph-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = if args.quick {
        Scale::quick()
    } else {
        Scale::full(args.seconds.unwrap_or(25.0))
    };
    let host = host::Fingerprint::capture();
    let seeds = common::Seeds::resolve(&scale, args.seed);
    println!("workload: {}", args.workload);
    println!("host: {}", host.to_json());
    println!("config: {}", scale.to_json(seeds));

    let scratch = common::Scratch::create();
    let mut tracer = trace::Tracer::new(args.trace);
    let mut report = report::Report::default();
    match args.workload.as_str() {
        "query_fit" => query_fit::run(&scale, seeds, &mut tracer, &mut report),
        "serve_hot" => serve_read::run(
            serve_read::Kind::Hot,
            &scale,
            seeds,
            &mut tracer,
            &mut report,
        ),
        "serve_cold" => serve_read::run(
            serve_read::Kind::Cold,
            &scale,
            seeds,
            &mut tracer,
            &mut report,
        ),
        "serve_mixed" => serve_write::run(
            serve_write::Kind::Mixed,
            &scale,
            seeds,
            &scratch.0.join("data"),
            &mut tracer,
            &mut report,
        ),
        "ingest_restart" => serve_write::run(
            serve_write::Kind::IngestRestart,
            &scale,
            seeds,
            &scratch.0.join("data"),
            &mut tracer,
            &mut report,
        ),
        _ => unreachable!("workload name was checked"),
    }

    let names = if args.trace {
        // Span files are kept after the run, beside the scratch directory.
        let path = scratch
            .0
            .with_file_name("relgraph-benchmark-traces")
            .join(format!("{}-{}.json", args.workload, args.seed));
        if let Err(e) = tracer.finish(&args.workload, &path) {
            eprintln!("relgraph-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        report.set("peak_rss_mb", host::peak_rss_mib());
        PER_LAYER
    } else {
        END_TO_END
    };
    report.print(names);
    drop(scratch);
    println!("{}", report.result_line(names, args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
