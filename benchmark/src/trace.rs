//! Spans of a traced run, kept in memory and written out at exit.
//!
//! Two sources share one clock and one list. The benchmark records a span
//! around each call it makes into a layer ([`Tracer::open`] /
//! [`Tracer::close`]). The crates' own `relgraph_obs` spans are collected
//! by an in-memory sink while [`Tracer::obs_on`] is in effect and merged in
//! at [`Tracer::finish`], each root hung under the benchmark span that was
//! open around it. An untraced run records nothing and installs no sink;
//! `open`/`close` then only read the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use relgraph_obs::{self as obs, json::escape, MemorySink, SpanNode};

/// One recorded interval. `parent` indexes the span list; `op_id` is shared
/// by every span of one operation (a repetition, a request, a group).
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Handle of a span that is still open.
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open benchmark spans, innermost last. All of them are opened and
    /// closed on the thread that drives the workload, so they nest.
    stack: Vec<usize>,
    sink: Option<Arc<MemorySink>>,
    /// Offset of the obs clock's zero from `origin`.
    obs_zero_ns: u64,
}

impl Tracer {
    pub fn new(active: bool) -> Self {
        Tracer {
            active,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            sink: None,
            obs_zero_ns: 0,
        }
    }

    pub fn active(&self) -> bool {
        self.active
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, op_id: u64) -> Open {
        let start = Instant::now();
        let index = self.active.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op_id,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `open` (and, as a guard against a forgotten close, anything
    /// opened inside it); returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(index) = open.index {
            let end_ns = self.spans[index].start_ns + elapsed.as_nanos() as u64;
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = end_ns;
                if top == index {
                    break;
                }
            }
        }
        elapsed.as_secs_f64()
    }

    /// Start collecting the crates' own spans and counters. No-op in an
    /// untraced run.
    pub fn obs_on(&mut self) {
        if !self.active {
            return;
        }
        match &self.sink {
            Some(sink) => obs::install(sink.clone()),
            None => {
                // The obs clock starts at the first install.
                self.obs_zero_ns = self.now_ns();
                self.sink = Some(MemorySink::install());
            }
        }
    }

    /// Stop collecting; what was collected is kept.
    pub fn obs_off(&mut self) {
        if self.active {
            obs::disable();
        }
    }

    /// Merge the obs spans, print the self-time table, write the span file.
    pub fn finish(mut self, workload: &str, path: &Path) -> std::io::Result<()> {
        if !self.active {
            return Ok(());
        }
        obs::disable();
        let end_ns = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end_ns;
        }
        self.merge_obs();
        self.print_self_times();
        self.write(workload, path)
    }

    fn merge_obs(&mut self) {
        let Some(sink) = self.sink.take() else { return };
        // Benchmark spans are appended in start order, so the last one that
        // started before a root is the innermost candidate; walk up until
        // one also covers the root's end.
        let own = self.spans.len();
        for root in sink.roots() {
            let start_ns = self.obs_zero_ns + (root.start_ms * 1e6) as u64;
            let end_ns = start_ns + (root.duration_ms * 1e6) as u64;
            let mut at = self.spans[..own]
                .partition_point(|s| s.start_ns <= start_ns)
                .checked_sub(1);
            while let Some(i) = at {
                if self.spans[i].end_ns >= end_ns {
                    break;
                }
                at = self.spans[i].parent;
            }
            let op_id = at.map_or(0, |i| self.spans[i].op_id);
            self.push_tree(&root, at, op_id);
        }
    }

    fn push_tree(&mut self, node: &SpanNode, parent: Option<usize>, op_id: u64) {
        let start_ns = self.obs_zero_ns + (node.start_ms * 1e6) as u64;
        self.spans.push(Span {
            name: node.name.clone(),
            start_ns,
            end_ns: start_ns + (node.duration_ms * 1e6) as u64,
            parent,
            op_id,
        });
        let me = self.spans.len() - 1;
        for child in &node.children {
            self.push_tree(child, Some(me), op_id);
        }
    }

    /// Per span name: calls, total time, and self time (a span's duration
    /// minus the part its children cover).
    fn print_self_times(&self) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(*covered);
        }
        let mut rows: Vec<_> = by_name.into_iter().collect();
        rows.sort_by_key(|(_, (_, _, self_ns))| std::cmp::Reverse(*self_ns));
        println!(
            "{:<36} {:>9} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, self_ns)) in rows {
            println!(
                "{name:<36} {calls:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }

    fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\": {}, \"spans\": [", escape(workload))?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
                 \"op_id\": {}}}",
                if i == 0 { "" } else { "," },
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.op_id
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()?;
        println!("trace: {} spans -> {}", self.spans.len(), path.display());
        Ok(())
    }
}
