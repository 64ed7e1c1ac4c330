//! `relgraph` — the command-line front end: load a relational database
//! from a directory (or generate a demo one) and run predictive queries
//! against it.
//!
//! ```text
//! USAGE:
//!   relgraph --demo ecommerce --query "PREDICT EXISTS(orders.*, 0, 30) FOR EACH customers.customer_id"
//!   relgraph --data ./mydb    --query "…" [--explain-only] [--top 20] [--export-demo DIR]
//!   relgraph init    --data-dir ./db (--data ./csvdir | --demo NAME)   # durable columnar dir
//!   relgraph ingest (--data ./mydb | --data-dir ./db) --batch orders=new_orders.csv [--policy coerce]
//!   relgraph serve  (--demo ecommerce | --data-dir ./db) --query "…"  # JSONL request loop
//!   relgraph compact --data-dir ./db   # fold the WAL into a fresh base snapshot
//!   relgraph recover --data-dir ./db   # replay the WAL, truncate any torn tail, report
//!
//! OPTIONS:
//!   --data <DIR>        load <DIR>/schema.ddl + <table>.csv files
//!   --data-dir <DIR>    open a durable columnar data directory (base snapshot +
//!                       ingest WAL; created with `relgraph init`); opening replays
//!                       committed WAL records and truncates any torn tail
//!   --demo <NAME>       generate a demo database: ecommerce | forum | clinic
//!   --query <PQL>       the predictive query to run (required unless --export-demo)
//!   --explain-only      compile and print the plan without training
//!   --top <N>           print the N highest-scoring predictions (default 10)
//!   --seed <N>          generator/model seed (default 7)
//!   --export-demo <DIR> write the demo database to DIR (schema.ddl + CSVs) and exit
//!
//! INGEST OPTIONS (relgraph ingest …):
//!   --batch <T>=<F.csv> append the rows of F.csv to table T (repeatable;
//!                       applied as one atomic batch in flag order)
//!   --policy <P>        validation policy: reject | quarantine | coerce
//!                       (default reject)
//!   --commit-window <N> WAL group commit: keep each --batch file its own
//!                       batch and durably commit up to N of them under a
//!                       single fsync (requires --data-dir; default off —
//!                       all files merge into one batch, one fsync)
//!   --query <PQL>       after ingesting, re-run this predictive query on
//!                       the incrementally-updated graph
//!   --save <DIR>        write the updated database back out to DIR
//!
//! With `--data-dir`, `relgraph ingest` appends each batch to the write-ahead
//! log (flushed before it is applied), so a crash at any point recovers to the
//! last committed batch, and `relgraph serve` saves graph/model snapshots
//! after fitting — the next `serve` on the same directory boots warm in
//! seconds, skipping featurization and training, with byte-identical
//! predictions.
//!
//! SERVE OPTIONS (relgraph serve …):
//!   --max-batch <N>     most request lines one burst fuses into one engine
//!                       call (default 32)
//!   --pred-cache <N>    prediction-cache capacity, split across shards (default 4096)
//!   --emb-cache <N>     embedding-cache capacity, split across shards (default 65536)
//!   --shards <N>        engine shards / worker threads (default 1)
//!   --l2-cache <N>      shared L2 embedding tier capacity, read by all
//!                       shards (default 65536; 0 disables)
//!   --affinity          pin each shard thread to one core
//!                       (sched_setaffinity; no-op off Linux)
//!   --listen <ADDR>     serve a socket instead of stdin: `host:port` (TCP)
//!                       or a filesystem path (Unix domain socket)
//!
//! `relgraph serve` trains the query's GNN model once, then reads one JSON
//! request per stdin line (`{"id": 7, "entity": 1042}`) and answers each
//! with one JSON response line (`{"id": 7, "prediction": 0.83}` or
//! `{"id": 7, "error": "…"}`). Every complete line already read is
//! answered as one burst — one engine call, responses in order, one
//! write — scattered across per-core engine shards (each owning a slice
//! of the two-tier cache) and scored against epoch-swapped graph
//! snapshots; predictions are bit-identical at any shard count. With
//! `--listen`, the same burst loop serves concurrent socket clients (one
//! response per request line, in order per connection) until the process
//! is killed; in stdin mode a latency/hit-rate summary lands on stderr at
//! EOF.
//! ```
//!
//! Set `RELGRAPH_OBS=stderr` for a per-stage timing tree on stderr, or
//! `RELGRAPH_OBS=json:<path>` to write machine-readable span events plus a
//! final `run_report` JSON document (see `relgraph::obs`).
//!
//! Model and hyper-parameters are controlled from the query's `USING`
//! clause (e.g. `USING model = gbdt, epochs = 20`).

use std::process::ExitCode;

use relgraph::datagen::{
    generate_clinic, generate_ecommerce, generate_forum, ClinicConfig, EcommerceConfig, ForumConfig,
};
use relgraph::db2graph::{build_graph, update_graph, ConvertOptions, GraphCursor};
use relgraph::pq::traintable::TrainTableConfig;
use relgraph::pq::{
    analyze, build_training_table, execute, explain, parse, ExecConfig, PredictionValue,
    PreparedQuery,
};
use relgraph::serve::{ServeConfig, ShardedEngine};
use relgraph::store::{
    load_database_dir, save_database_dir, CommitWindow, DataDir, Database, IngestPolicy,
    PolicyAction, RowBatch,
};

struct Args {
    data: Option<String>,
    data_dir: Option<String>,
    demo: Option<String>,
    query: Option<String>,
    explain_only: bool,
    top: usize,
    seed: u64,
    export_demo: Option<String>,
}

fn usage() -> &'static str {
    "usage: relgraph (--data DIR | --data-dir DIR | --demo ecommerce|forum|clinic) \
     --query 'PREDICT …' [--explain-only] [--top N] [--seed N] [--export-demo DIR]"
}

/// Open a durable data directory, replaying any committed WAL tail, and
/// surface the recovery report on stderr when it did real work.
fn open_data_dir(dir: &str) -> Result<(DataDir, Database), String> {
    let (dd, db, report) = DataDir::open(std::path::Path::new(dir))
        .map_err(|e| format!("opening data dir {dir}: {e}"))?;
    if report.replayed > 0 || report.torn.is_some() {
        eprintln!("{dir}: {}", report.summary());
    }
    Ok((dd, db))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data: None,
        data_dir: None,
        demo: None,
        query: None,
        explain_only: false,
        top: 10,
        seed: 7,
        export_demo: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--data" => args.data = Some(value("--data")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--demo" => args.demo = Some(value("--demo")?),
            "--query" | "-q" => args.query = Some(value("--query")?),
            "--explain-only" => args.explain_only = true,
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top needs a number".to_string())?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?
            }
            "--export-demo" => args.export_demo = Some(value("--export-demo")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn load(args: &Args) -> Result<Database, String> {
    if let Some(dir) = &args.data_dir {
        if args.data.is_some() || args.demo.is_some() {
            return Err(format!(
                "--data-dir cannot be combined with --data/--demo\n{}",
                usage()
            ));
        }
        return open_data_dir(dir).map(|(_, db)| db);
    }
    match (&args.data, &args.demo) {
        (Some(dir), None) => load_database_dir(dir).map_err(|e| format!("loading {dir}: {e}")),
        (None, Some(demo)) => match demo.as_str() {
            "ecommerce" => generate_ecommerce(&EcommerceConfig {
                seed: args.seed,
                ..Default::default()
            })
            .map_err(|e| e.to_string()),
            "forum" => generate_forum(&ForumConfig {
                seed: args.seed,
                ..Default::default()
            })
            .map_err(|e| e.to_string()),
            "clinic" => generate_clinic(&ClinicConfig {
                seed: args.seed,
                ..Default::default()
            })
            .map_err(|e| e.to_string()),
            other => Err(format!(
                "unknown demo `{other}` (ecommerce | forum | clinic)"
            )),
        },
        _ => Err(format!("need exactly one of --data or --demo\n{}", usage())),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    relgraph::obs::init_from_env();
    let db = load(&args)?;
    eprintln!("{}", db.summary());

    if let Some(dir) = &args.export_demo {
        save_database_dir(&db, dir).map_err(|e| e.to_string())?;
        println!("exported database to {dir}/ (schema.ddl + CSVs)");
        return Ok(());
    }

    let query_text = args
        .query
        .as_deref()
        .ok_or_else(|| format!("--query is required\n{}", usage()))?;

    if args.explain_only {
        let parsed = parse(query_text).map_err(|e| e.to_string())?;
        let analyzed = analyze(&db, parsed).map_err(|e| e.to_string())?;
        let table = build_training_table(&db, &analyzed, &TrainTableConfig::default())
            .map_err(|e| e.to_string())?;
        println!("{}", explain(&db, &analyzed, Some(&table)));
        return Ok(());
    }

    let cfg = ExecConfig {
        seed: args.seed,
        max_predictions: None,
        ..Default::default()
    };
    let outcome = execute(&db, query_text, &cfg).map_err(|e| e.to_string())?;
    relgraph::obs::emit_run_report(
        "relgraph-cli",
        &[
            (
                "dataset",
                args.demo
                    .as_deref()
                    .or(args.data.as_deref())
                    .or(args.data_dir.as_deref())
                    .unwrap_or("unknown"),
            ),
            ("task", &outcome.task.to_string()),
            ("model", &outcome.model.to_string()),
            ("seed", &args.seed.to_string()),
        ],
    );
    print_outcome(outcome, args.top);
    Ok(())
}

fn print_outcome(outcome: relgraph::pq::QueryOutcome, top: usize) {
    println!("{}", outcome.explain);
    println!("Backtest ({} test examples):", outcome.test_size);
    for (name, v) in &outcome.metrics {
        println!("  {name:<12} {v:.4}");
    }

    // Highest-scoring predictions first (ranking lists as-is).
    let mut preds = outcome.predictions;
    preds.sort_by(|a, b| {
        let score = |p: &relgraph::pq::Prediction| match &p.value {
            PredictionValue::Score(s) => *s,
            PredictionValue::Items(_) | PredictionValue::Class(_) => 0.0,
        };
        score(b)
            .partial_cmp(&score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("\nTop {top} predictions (anchored at the latest time in the data):");
    for p in preds.iter().take(top) {
        match &p.value {
            PredictionValue::Score(s) => println!("  {:<12} {s:.4}", p.entity_key.to_string()),
            PredictionValue::Items(items) => {
                let list: Vec<String> = items.iter().map(ToString::to_string).collect();
                println!("  {:<12} [{}]", p.entity_key.to_string(), list.join(", "));
            }
            PredictionValue::Class(c) => {
                println!("  {:<12} {c}", p.entity_key.to_string());
            }
        }
    }
}

struct IngestArgs {
    data: Option<String>,
    data_dir: Option<String>,
    demo: Option<String>,
    batches: Vec<(String, String)>,
    policy: IngestPolicy,
    commit_window: Option<usize>,
    query: Option<String>,
    save: Option<String>,
    top: usize,
    seed: u64,
}

fn ingest_usage() -> &'static str {
    "usage: relgraph ingest (--data DIR | --data-dir DIR | --demo NAME) \
     --batch TABLE=FILE.csv [--batch …] [--policy reject|quarantine|coerce] \
     [--commit-window N] [--query 'PREDICT …'] [--save DIR] [--top N] [--seed N] \
     (--commit-window groups the --batch files into WAL group commits of up \
     to N batches — one fsync per group — and requires --data-dir)"
}

fn parse_ingest_args(it: impl Iterator<Item = String>) -> Result<IngestArgs, String> {
    let mut args = IngestArgs {
        data: None,
        data_dir: None,
        demo: None,
        batches: Vec::new(),
        policy: IngestPolicy::reject_all(),
        commit_window: None,
        query: None,
        save: None,
        top: 10,
        seed: 7,
    };
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", ingest_usage()))
        };
        match flag.as_str() {
            "--data" => args.data = Some(value("--data")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--demo" => args.demo = Some(value("--demo")?),
            "--batch" => {
                let spec = value("--batch")?;
                let (table, file) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--batch expects TABLE=FILE.csv, got `{spec}`"))?;
                args.batches.push((table.to_string(), file.to_string()));
            }
            "--policy" => {
                let p = value("--policy")?;
                let action: PolicyAction = p.parse()?;
                args.policy = match action {
                    PolicyAction::Reject => IngestPolicy::reject_all(),
                    PolicyAction::Quarantine => IngestPolicy::quarantine_all(),
                    PolicyAction::Coerce => IngestPolicy::coerce_all(),
                };
            }
            "--commit-window" => {
                let n: usize = value("--commit-window")?
                    .parse()
                    .map_err(|_| "--commit-window needs a number".to_string())?;
                args.commit_window = Some(n.max(1));
            }
            "--query" | "-q" => args.query = Some(value("--query")?),
            "--save" => args.save = Some(value("--save")?),
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top needs a number".to_string())?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?
            }
            "--help" | "-h" => return Err(ingest_usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", ingest_usage())),
        }
    }
    if args.batches.is_empty() {
        return Err(format!(
            "at least one --batch is required\n{}",
            ingest_usage()
        ));
    }
    if args.commit_window.is_some() && args.data_dir.is_none() {
        return Err(format!(
            "--commit-window needs --data-dir (group commit is a WAL feature)\n{}",
            ingest_usage()
        ));
    }
    Ok(args)
}

/// `relgraph ingest`: append CSV batches through the validation policy,
/// incrementally maintain the graph, and optionally re-run a prepared
/// predictive query against it — the full streaming-serve loop.
fn run_ingest(it: impl Iterator<Item = String>) -> Result<(), String> {
    let args = parse_ingest_args(it)?;
    relgraph::obs::init_from_env();
    // With --data-dir the batch goes through the write-ahead log (durable
    // before applied); otherwise this is a plain in-memory ingest.
    let (mut data_dir, mut db) = match &args.data_dir {
        Some(dir) => {
            if args.data.is_some() || args.demo.is_some() {
                return Err(format!(
                    "--data-dir cannot be combined with --data/--demo\n{}",
                    ingest_usage()
                ));
            }
            let (dd, db) = open_data_dir(dir)?;
            (Some(dd), db)
        }
        None => {
            let loader = Args {
                data: args.data.clone(),
                data_dir: None,
                demo: args.demo.clone(),
                query: None,
                explain_only: false,
                top: args.top,
                seed: args.seed,
                export_demo: None,
            };
            (None, load(&loader)?)
        }
    };
    eprintln!("{}", db.summary());

    // Prepare the query and compile the graph *before* ingesting: analysis
    // binds only schema-level facts, so both stay valid as the data grows.
    let prepared = match &args.query {
        Some(q) => Some(
            PreparedQuery::prepare(
                &db,
                q,
                &ExecConfig {
                    seed: args.seed,
                    max_predictions: None,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let opts = ConvertOptions::default();
    let (mut graph, mut mapping) = build_graph(&db, &opts).map_err(|e| e.to_string())?;
    let mut cursor = GraphCursor::capture(&db);

    // Without --commit-window every --batch file folds into one atomic
    // batch (the legacy shape); with it each file stays its own batch so
    // the WAL can group up to N of them under a single fsync.
    let grouped = args.commit_window.is_some();
    let mut batches: Vec<RowBatch> = Vec::new();
    for (table, file) in &args.batches {
        if grouped || batches.is_empty() {
            batches.push(RowBatch::new());
        }
        let schema = db.table(table).map_err(|e| e.to_string())?.schema().clone();
        let f = std::fs::File::open(file).map_err(|e| format!("opening {file}: {e}"))?;
        let n = batches
            .last_mut()
            .expect("pushed above")
            .push_csv(table, &schema, std::io::BufReader::new(f))
            .map_err(|e| format!("reading {file}: {e}"))?;
        eprintln!("queued {n} rows for `{table}` from {file}");
    }

    let report = if let Some(window) = args.commit_window {
        let dd = data_dir
            .as_mut()
            .expect("--commit-window requires --data-dir (checked at parse)");
        dd.set_commit_window(CommitWindow::batches(window));
        let reports = dd
            .ingest_group(&mut db, batches, &args.policy)
            .map_err(|e| e.to_string())?;
        let mut total = relgraph::store::IngestReport::default();
        for (i, r) in reports.iter().enumerate() {
            let (table, file) = &args.batches[i];
            match r {
                Ok(r) => {
                    println!(
                        "  batch {i} ({table}={file}): {} accepted \
                         ({} coerced, {} late), {} quarantined",
                        r.accepted, r.coerced, r.late, r.quarantined
                    );
                    total.accepted += r.accepted;
                    total.coerced += r.coerced;
                    total.late += r.late;
                    total.quarantined += r.quarantined;
                }
                Err(e) => println!("  batch {i} ({table}={file}): rejected: {e}"),
            }
        }
        total
    } else {
        let batch = batches
            .pop()
            .expect("at least one --batch (checked at parse)");
        match data_dir.as_mut() {
            Some(dd) => dd
                .ingest(&mut db, batch, &args.policy)
                .map_err(|e| e.to_string())?,
            None => db.ingest(batch, &args.policy).map_err(|e| e.to_string())?,
        }
    };
    println!(
        "ingest: {} accepted ({} coerced, {} late), {} quarantined",
        report.accepted, report.coerced, report.late, report.quarantined
    );
    for q in db.quarantine() {
        println!(
            "  quarantined `{}` row {}: {}",
            q.table, q.batch_row, q.reason
        );
    }

    let stats = update_graph(&db, &mut graph, &mut mapping, &mut cursor, &opts)
        .map_err(|e| e.to_string())?;
    println!(
        "graph delta: +{} nodes, +{} edges across {} tables ({} edge types rebuilt)",
        stats.new_nodes, stats.new_edges, stats.tables_touched, stats.edge_types_rebuilt
    );

    if let Some(dir) = &args.save {
        save_database_dir(&db, dir).map_err(|e| e.to_string())?;
        println!("saved updated database to {dir}/");
    }

    if let Some(pq) = prepared {
        let outcome = pq
            .run_on_graph(&db, &graph, &mapping)
            .map_err(|e| e.to_string())?;
        relgraph::obs::emit_run_report(
            "relgraph-cli-ingest",
            &[
                (
                    "dataset",
                    args.demo
                        .as_deref()
                        .or(args.data.as_deref())
                        .or(args.data_dir.as_deref())
                        .unwrap_or("unknown"),
                ),
                ("task", &outcome.task.to_string()),
                ("model", &outcome.model.to_string()),
                ("seed", &args.seed.to_string()),
            ],
        );
        print_outcome(outcome, args.top);
    }
    Ok(())
}

struct AdminArgs {
    data_dir: String,
    data: Option<String>,
    demo: Option<String>,
    seed: u64,
}

fn admin_usage(cmd: &str) -> String {
    match cmd {
        "init" => "usage: relgraph init --data-dir DIR (--data CSVDIR | --demo NAME) [--seed N]"
            .to_string(),
        _ => format!("usage: relgraph {cmd} --data-dir DIR"),
    }
}

fn parse_admin_args(cmd: &str, it: impl Iterator<Item = String>) -> Result<AdminArgs, String> {
    let mut data_dir = None;
    let mut data = None;
    let mut demo = None;
    let mut seed = 7u64;
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", admin_usage(cmd)))
        };
        match flag.as_str() {
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--data" => data = Some(value("--data")?),
            "--demo" => demo = Some(value("--demo")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?
            }
            "--help" | "-h" => return Err(admin_usage(cmd)),
            other => return Err(format!("unknown flag `{other}`\n{}", admin_usage(cmd))),
        }
    }
    Ok(AdminArgs {
        data_dir: data_dir
            .ok_or_else(|| format!("--data-dir is required\n{}", admin_usage(cmd)))?,
        data,
        demo,
        seed,
    })
}

/// `relgraph init`: load a source database (CSV dir or demo generator) and
/// write it out as a fresh durable data directory: base columnar snapshot,
/// manifest, empty WAL.
fn run_init(it: impl Iterator<Item = String>) -> Result<(), String> {
    let args = parse_admin_args("init", it)?;
    relgraph::obs::init_from_env();
    let loader = Args {
        data: args.data.clone(),
        data_dir: None,
        demo: args.demo.clone(),
        query: None,
        explain_only: false,
        top: 10,
        seed: args.seed,
        export_demo: None,
    };
    let db = load(&loader)?;
    eprintln!("{}", db.summary());
    let root = std::path::Path::new(&args.data_dir);
    DataDir::create(root, &db).map_err(|e| e.to_string())?;
    println!(
        "initialised data dir {} (base generation 1, empty WAL)",
        root.display()
    );
    Ok(())
}

/// `relgraph compact`: fold the WAL into a fresh base snapshot so the next
/// open replays nothing.
fn run_compact(it: impl Iterator<Item = String>) -> Result<(), String> {
    let args = parse_admin_args("compact", it)?;
    relgraph::obs::init_from_env();
    let (mut dd, db) = open_data_dir(&args.data_dir)?;
    dd.compact(&db).map_err(|e| e.to_string())?;
    println!(
        "compacted {} to base generation {} (WAL reset)",
        args.data_dir,
        dd.manifest().generation
    );
    Ok(())
}

/// `relgraph recover`: open the data dir — which replays committed WAL
/// records and truncates any torn tail — and report exactly what happened.
fn run_recover(it: impl Iterator<Item = String>) -> Result<(), String> {
    let args = parse_admin_args("recover", it)?;
    relgraph::obs::init_from_env();
    let (dd, db, report) = DataDir::open(std::path::Path::new(&args.data_dir))
        .map_err(|e| format!("opening data dir {}: {e}", args.data_dir))?;
    println!("{}", report.summary());
    println!("{}", db.summary());
    println!(
        "base generation {}, next WAL sequence {}",
        dd.manifest().generation,
        dd.next_seq()
    );
    Ok(())
}

struct ServeArgs {
    data: Option<String>,
    data_dir: Option<String>,
    demo: Option<String>,
    query: Option<String>,
    seed: u64,
    cfg: ServeConfig,
    shards: usize,
    listen: Option<String>,
}

fn serve_usage() -> &'static str {
    "usage: relgraph serve (--data DIR | --data-dir DIR | --demo NAME) \
     --query 'PREDICT …' [--seed N] [--max-batch N] [--pred-cache N] \
     [--emb-cache N] [--l2-cache N] [--precision f64|f32|q8] \
     [--shards N] [--affinity] \
     [--listen HOST:PORT|SOCKET_PATH] \
     (--query is optional when --data-dir holds a warm snapshot; a warm \
     snapshot's stored precision wins over --precision)"
}

fn parse_serve_args(it: impl Iterator<Item = String>) -> Result<ServeArgs, String> {
    let mut data = None;
    let mut data_dir = None;
    let mut demo = None;
    let mut query = None;
    let mut seed = 7u64;
    let mut cfg = ServeConfig::default();
    let mut shards = 1usize;
    let mut listen = None;
    let mut it = it;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", serve_usage()))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} needs a number"))
        };
        match flag.as_str() {
            "--data" => data = Some(value("--data")?),
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--demo" => demo = Some(value("--demo")?),
            "--query" | "-q" => query = Some(value("--query")?),
            "--seed" => seed = number("--seed", value("--seed")?)?,
            "--max-batch" => cfg.max_batch = number("--max-batch", value("--max-batch")?)? as usize,
            "--pred-cache" => {
                cfg.prediction_cache = number("--pred-cache", value("--pred-cache")?)? as usize
            }
            "--emb-cache" => {
                cfg.embedding_cache = number("--emb-cache", value("--emb-cache")?)? as usize
            }
            "--precision" => {
                cfg.precision = value("--precision")?
                    .parse()
                    .map_err(|e| format!("--precision: {e}\n{}", serve_usage()))?
            }
            "--l2-cache" => cfg.l2_cache = number("--l2-cache", value("--l2-cache")?)? as usize,
            "--shards" => {
                shards = (number("--shards", value("--shards")?)? as usize).max(1);
            }
            "--affinity" => cfg.affinity = true,
            "--listen" => listen = Some(value("--listen")?),
            "--help" | "-h" => return Err(serve_usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", serve_usage())),
        }
    }
    if query.is_none() && data_dir.is_none() {
        return Err(format!("--query is required\n{}", serve_usage()));
    }
    Ok(ServeArgs {
        data,
        data_dir,
        demo,
        query,
        seed,
        cfg,
        shards,
        listen,
    })
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Cold path: fit the query's model from scratch, reporting fit time and
/// backtest metrics on stderr.
fn fit_sharded(
    db: Database,
    query: &str,
    exec: &ExecConfig,
    args: &ServeArgs,
) -> Result<ShardedEngine, String> {
    eprintln!("fitting model…");
    let t_fit = std::time::Instant::now();
    let engine = ShardedEngine::fit(db, query, exec, args.cfg.clone(), args.shards)
        .map_err(|e| e.to_string())?;
    let mut fit_line = format!("model fitted in {:.1}s;", t_fit.elapsed().as_secs_f64());
    for (name, v) in engine.fit_metrics() {
        fit_line.push_str(&format!(" {name}={v:.4}"));
    }
    eprintln!("{fit_line}");
    Ok(engine)
}

/// With `--data-dir`: boot warm from the saved graph/model snapshots when
/// they exist and match the requested query (skipping featurization and
/// training entirely), otherwise fit cold and save snapshots so the next
/// boot is warm. Predictions are byte-identical either way.
///
/// The warm path is a *partial* base load (DESIGN.md §14.8): only key,
/// foreign-key, and timestamp columns are materialized from the columnar
/// base — features ride in the graph snapshot — so the full database is
/// never opened unless the snapshot turns out to be unusable.
fn serve_from_data_dir(
    dir: &str,
    args: &ServeArgs,
    exec: &ExecConfig,
) -> Result<ShardedEngine, String> {
    use relgraph::serve::persist::{GRAPH_SNAPSHOT_FILE, MODEL_SNAPSHOT_FILE};

    let root = std::path::Path::new(dir);
    let snaps = DataDir::snapshots_path(root);
    let model_snap = snaps.join(MODEL_SNAPSHOT_FILE);
    if snaps.join(GRAPH_SNAPSHOT_FILE).exists() && model_snap.exists() {
        // A differing --query invalidates the snapshot; peek at the stored
        // query text before committing to the warm path.
        let usable = match relgraph::serve::load_model(&model_snap) {
            Ok(snap) => {
                let same = args.query.as_deref().is_none_or(|q| q == snap.query_text);
                if !same {
                    eprintln!("stored snapshot is for a different query; refitting");
                } else if snap.precision != args.cfg.precision {
                    eprintln!(
                        "stored snapshot was saved at precision {}; \
                         serving at {} (stored precision wins on warm boots)",
                        snap.precision, snap.precision
                    );
                }
                same
            }
            Err(e) => {
                eprintln!("warm snapshot unreadable ({e}); refitting");
                false
            }
        };
        if usable {
            let t = std::time::Instant::now();
            match relgraph::serve::warm_sharded_partial(root, exec, args.cfg.clone(), args.shards) {
                Ok(boot) => {
                    if boot.recovery.replayed > 0 || boot.recovery.torn.is_some() {
                        eprintln!("{dir}: {}", boot.recovery.summary());
                    }
                    eprintln!("{}", boot.engine.snapshot().db.summary());
                    let mut line = format!(
                        "warm boot in {:.2}s (caught up +{} nodes, +{} edges; \
                         deferred {} column(s) / {} byte(s) across {} table(s));",
                        t.elapsed().as_secs_f64(),
                        boot.report.catch_up.new_nodes,
                        boot.report.catch_up.new_edges,
                        boot.partial.deferred_columns,
                        boot.partial.deferred_bytes,
                        boot.partial.partial_tables,
                    );
                    for (name, v) in &boot.report.metrics {
                        line.push_str(&format!(" {name}={v:.4}"));
                    }
                    eprintln!("{line}");
                    eprintln!("query: {}", boot.report.query_text);
                    return Ok(boot.engine);
                }
                Err(e) => {
                    eprintln!("warm boot failed ({e}); refitting from scratch");
                }
            }
        }
    }
    // Cold (or fallback) path: a full materialized open, fit, and snapshot
    // save so the next boot takes the partial warm path above.
    let (dd, db) = open_data_dir(dir)?;
    eprintln!("{}", db.summary());
    let query = args.query.clone().ok_or_else(|| {
        format!(
            "--query is required (no usable warm snapshot in the data dir)\n{}",
            serve_usage()
        )
    })?;
    let engine = fit_sharded(db, &query, exec, args)?;
    match engine.save_warm_start(&dd.snapshots_dir(), &query) {
        Ok(bytes) => eprintln!(
            "saved warm-start snapshots to {} ({bytes} bytes)",
            snaps.display()
        ),
        Err(e) => eprintln!("warning: failed to save warm-start snapshots: {e}"),
    }
    Ok(engine)
}

/// `relgraph serve`: fit the query once, then answer JSONL prediction
/// requests from stdin (or `--listen`'s socket) — in bursts, cache-warm,
/// one response line per request line (malformed lines included).
fn run_serve(it: impl Iterator<Item = String>) -> Result<(), String> {
    let args = parse_serve_args(it)?;
    relgraph::obs::init_from_env();
    let exec = ExecConfig {
        seed: args.seed,
        max_predictions: None,
        ..Default::default()
    };

    let engine = if let Some(dir) = &args.data_dir {
        if args.data.is_some() || args.demo.is_some() {
            return Err(format!(
                "--data-dir cannot be combined with --data/--demo\n{}",
                serve_usage()
            ));
        }
        serve_from_data_dir(dir, &args, &exec)?
    } else {
        let loader = Args {
            data: args.data.clone(),
            data_dir: None,
            demo: args.demo.clone(),
            query: None,
            explain_only: false,
            top: 10,
            seed: args.seed,
            export_demo: None,
        };
        let db = load(&loader)?;
        eprintln!("{}", db.summary());
        let query = args
            .query
            .as_deref()
            .ok_or_else(|| format!("--query is required\n{}", serve_usage()))?;
        fit_sharded(db, query, &exec, &args)?
    };

    if let Some(addr) = &args.listen {
        // Socket mode: concurrent clients, one handler thread each, all
        // funnelled into the same shard workers. Runs until killed.
        let listener = relgraph::serve::bind(addr).map_err(|e| e.to_string())?;
        eprintln!(
            "serving on {} ({} shard(s)); one JSON request per line",
            listener.local_addr(),
            engine.shards()
        );
        let stop = std::sync::atomic::AtomicBool::new(false);
        listener.run(&engine, &stop).map_err(|e| e.to_string())?;
        engine.publish_stats();
        return Ok(());
    }

    eprintln!(
        "serving on stdin (max batch {}, {} shard(s)); one JSON request per line",
        args.cfg.max_batch,
        engine.shards()
    );

    // The socket front-end's burst loop over stdin: each burst's lines go
    // through one engine call and out in one write. A request's latency is
    // its burst's wall time, first line in hand to flush.
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut bursts = 0usize;
    relgraph::serve::serve_stream(
        &engine,
        std::io::stdin().lock(),
        std::io::stdout().lock(),
        |lines, wall| {
            let us = wall.as_secs_f64() * 1e6;
            for _ in 0..lines {
                latencies_us.push(us);
                relgraph::obs::observe("serve.latency_us", us);
            }
            bursts += 1;
        },
    )
    .map_err(|e| e.to_string())?;
    let responses = latencies_us.len();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = engine.stats();
    eprintln!(
        "served {responses} request(s) in {bursts} burst(s) (mean {:.1} per burst)",
        responses as f64 / bursts.max(1) as f64
    );
    eprintln!(
        "latency (a request's burst, first line in hand to flush) p50 {:.0} us, \
         p99 {:.0} us; prediction cache hit rate {}, embedding cache hit rate {}",
        percentile(&latencies_us, 50.0),
        percentile(&latencies_us, 99.0),
        stats
            .prediction_hit_rate()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "n/a".to_string()),
        stats
            .embedding_hit_rate()
            .map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "n/a".to_string()),
    );
    engine.publish_stats();
    relgraph::obs::emit_run_report(
        "relgraph-serve",
        &[
            (
                "dataset",
                args.demo
                    .as_deref()
                    .or(args.data.as_deref())
                    .or(args.data_dir.as_deref())
                    .unwrap_or("unknown"),
            ),
            ("seed", &args.seed.to_string()),
        ],
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = match argv.peek().map(String::as_str) {
        Some("ingest") => {
            argv.next();
            run_ingest(argv)
        }
        Some("serve") => {
            argv.next();
            run_serve(argv)
        }
        Some("init") => {
            argv.next();
            run_init(argv)
        }
        Some("compact") => {
            argv.next();
            run_compact(argv)
        }
        Some("recover") => {
            argv.next();
            run_recover(argv)
        }
        _ => run(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("relgraph: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_serve_args, serve_usage};

    /// `relgraph serve` never ingests, so it takes no commit window; the
    /// flag used to be accepted and ignored.
    #[test]
    fn serve_rejects_commit_window_with_usage() {
        let argv = [
            "--demo",
            "ecommerce",
            "--query",
            "PREDICT …",
            "--commit-window",
            "4",
        ];
        let err = parse_serve_args(argv.iter().map(|s| s.to_string()))
            .err()
            .expect("--commit-window rejected");
        assert!(err.starts_with("unknown flag `--commit-window`"), "{err}");
        assert!(err.ends_with(serve_usage()), "{err}");
    }
}
