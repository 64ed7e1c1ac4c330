//! Host fingerprint and process accounting read from `/proc`.
//!
//! A number is only comparable with another taken on the same fingerprint;
//! it is printed at the top of every run.

use std::process::Command;

/// What the numbers of a run depend on besides the code.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rayon_threads: usize,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Fingerprint {
            nproc,
            cpu_model: cpu_model(),
            rayon_threads: rayon_threads(nproc),
            git_commit: git_commit(),
        }
    }

    pub fn to_json(&self) -> String {
        use relgraph_obs::json::escape;
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rayon_threads\": {}, \"git_commit\": {}}}",
            self.nproc,
            escape(&self.cpu_model),
            self.rayon_threads,
            escape(&self.git_commit)
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The rule the in-tree rayon layer applies (`vendor/rayon`): the
/// `RAYON_NUM_THREADS` variable when it is a positive integer, else every
/// core.
fn rayon_threads(nproc: usize) -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => nproc,
    }
}

/// `unknown` outside a git checkout (the benchmark also runs from exported
/// trees).
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU seconds from a `/proc/.../stat` file. The command name
/// (field 2) may contain spaces, so fields are counted from the closing
/// parenthesis; `utime` and `stime` are fields 14 and 15, in clock ticks of
/// 1/100 s on Linux.
fn cpu_seconds(stat_path: &str) -> f64 {
    let stat = std::fs::read_to_string(stat_path).expect("read /proc stat file");
    let rest = &stat[stat.rfind(')').expect("comm field in stat") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).expect("stime");
    (utime + stime) / 100.0
}

/// CPU seconds consumed by the whole process so far (all threads, exited
/// ones included).
pub fn process_cpu_s() -> f64 {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds("/proc/thread-self/stat")
}
