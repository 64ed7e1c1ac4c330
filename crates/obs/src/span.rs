//! Hierarchical span timers.
//!
//! [`span`] pushes onto a **thread-local** stack and returns an RAII
//! [`SpanGuard`]; dropping the guard pops the stack, computes the elapsed
//! monotonic time and the per-counter deltas observed while the span was
//! open, and buffers the finished span. When the outermost span of the
//! stack closes, the buffered spans are assembled into a [`SpanNode`] tree
//! and handed to the active sink.
//!
//! Rayon worker threads have empty stacks, so spans are opened at stage
//! granularity on the coordinating thread; work fanned out to the pool is
//! attributed to the enclosing stage through the global counters (see
//! `DESIGN.md`, "Observability").

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::registry::{enabled, registry};

/// One completed span, as a tree: the unit sinks receive when a root span
/// closes, and the `stages` entry of a [`RunReport`](crate::RunReport).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Stage name, e.g. `pq.traintable`.
    pub name: String,
    /// Start offset from the first instrumentation event, in milliseconds.
    pub start_ms: f64,
    /// Wall-clock duration in milliseconds (monotonic clock).
    pub duration_ms: f64,
    /// Counter increments observed while this span was open (nonzero only),
    /// sorted by name. Concurrent spans on other threads contribute to the
    /// same global counters, so deltas are attributions, not exact scopes.
    pub counters: Vec<(String, u64)>,
    /// Child spans in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Pre-order traversal of the names in this tree (self first).
    pub fn names(&self) -> Vec<String> {
        let mut out = vec![self.name.clone()];
        for c in &self.children {
            out.extend(c.names());
        }
        out
    }

    /// Find the first node with `name` in pre-order (self included).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// A finished span pending root-close assembly.
struct Finished {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ms: f64,
    duration_ms: f64,
    counters: Vec<(String, u64)>,
}

/// Finished spans buffered per root id until the root itself closes.
static PENDING: Mutex<Vec<(u64, Vec<Finished>)>> = Mutex::new(Vec::new());

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

struct Active {
    id: u64,
    root: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    counters_at_open: Vec<(String, u64)>,
}

thread_local! {
    static STACK: RefCell<Vec<Active>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span; created by [`span`]. Dropping it closes the
/// span. Guards are meant to be dropped in reverse creation order (bind
/// them to scopes); out-of-order drops close the intervening spans too.
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct SpanGuard {
    /// 0 marks an inert guard (observability disabled at creation).
    id: u64,
}

/// Open a span named `name` nested under the current thread's innermost
/// open span. Returns an inert guard when observability is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { id: 0 };
    }
    let r = registry();
    r.epoch.get_or_init(Instant::now); // anchor offsets at first event
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (root, parent) = match stack.last() {
            Some(top) => (top.root, Some(top.id)),
            None => (id, None),
        };
        stack.push(Active {
            id,
            root,
            parent,
            name,
            start: Instant::now(),
            counters_at_open: crate::registry::counters_snapshot(),
        });
    });
    SpanGuard { id }
}

/// Record an already-measured duration as a completed span named `name`
/// under the current innermost span — used for stages timed around work
/// that runs in parallel regions, where no span may open (e.g. scoring in
/// parallel chunks). No-op when disabled or when `ns == 0`.
pub fn record_ns(name: &str, ns: u64) {
    if !enabled() || ns == 0 {
        return;
    }
    let r = registry();
    let epoch = *r.epoch.get_or_init(Instant::now);
    let now_ms = epoch.elapsed().as_secs_f64() * 1e3;
    let duration_ms = ns as f64 / 1e6;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (root, parent) = STACK.with(|stack| {
        let stack = stack.borrow();
        match stack.last() {
            Some(top) => (Some(top.root), Some(top.id)),
            None => (None, None),
        }
    });
    let finished = Finished {
        id,
        parent,
        name: name.to_string(),
        start_ms: (now_ms - duration_ms).max(0.0),
        duration_ms,
        counters: Vec::new(),
    };
    match root {
        Some(root) => buffer(root, finished),
        None => {
            // No enclosing span: emit as a single-node tree immediately.
            let node = SpanNode {
                name: finished.name,
                start_ms: finished.start_ms,
                duration_ms: finished.duration_ms,
                counters: Vec::new(),
                children: Vec::new(),
            };
            deliver_root(node);
        }
    }
}

fn buffer(root: u64, finished: Finished) {
    let mut pending = PENDING.lock().unwrap();
    match pending.iter_mut().find(|(r, _)| *r == root) {
        Some((_, v)) => v.push(finished),
        None => pending.push((root, vec![finished])),
    }
}

fn deliver_root(node: SpanNode) {
    let r = registry();
    r.push_root(node.clone());
    let sink = r.sink.read().unwrap().clone();
    if let Some(sink) = sink {
        sink.on_root(&node);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let closed: Vec<(Active, Instant)> = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(pos) = stack.iter().position(|a| a.id == self.id) else {
                return Vec::new();
            };
            // Close this span and (defensively) anything opened above it
            // whose guard leaked; innermost first.
            let now = Instant::now();
            stack.drain(pos..).rev().map(|a| (a, now)).collect()
        });
        if closed.is_empty() {
            return;
        }
        let epoch = *registry().epoch.get_or_init(Instant::now);
        for (active, now) in closed {
            let duration_ms = now.duration_since(active.start).as_secs_f64() * 1e3;
            let start_ms = active.start.duration_since(epoch).as_secs_f64() * 1e3;
            let after = crate::registry::counters_snapshot();
            let deltas = counter_deltas(&active.counters_at_open, &after);
            let is_root = active.parent.is_none();
            let finished = Finished {
                id: active.id,
                parent: active.parent,
                name: active.name.to_string(),
                start_ms,
                duration_ms,
                counters: deltas,
            };
            if is_root {
                let spans = {
                    let mut pending = PENDING.lock().unwrap();
                    match pending.iter().position(|(r, _)| *r == active.root) {
                        Some(i) => pending.remove(i).1,
                        None => Vec::new(),
                    }
                };
                deliver_root(assemble(finished, spans));
            } else {
                buffer(active.root, finished);
            }
        }
    }
}

fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    let prior: HashMap<&str, u64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut out: Vec<(String, u64)> = after
        .iter()
        .filter_map(|(k, v)| {
            // Saturating: a mid-span `reset()` may move counters backwards.
            let d = v.saturating_sub(prior.get(k.as_str()).copied().unwrap_or(0));
            (d > 0).then(|| (k.clone(), d))
        })
        .collect();
    out.sort();
    out
}

/// Build the tree: children attach to their parent; orphans (parent closed
/// by the defensive drain before them) attach to the root.
fn assemble(root: Finished, mut spans: Vec<Finished>) -> SpanNode {
    spans.sort_by_key(|f| f.id);
    let mut nodes: Vec<(u64, Option<u64>, SpanNode)> = Vec::with_capacity(spans.len() + 1);
    let to_node = |f: &Finished| SpanNode {
        name: f.name.clone(),
        start_ms: f.start_ms,
        duration_ms: f.duration_ms,
        counters: f.counters.clone(),
        children: Vec::new(),
    };
    for f in &spans {
        nodes.push((f.id, f.parent, to_node(f)));
    }
    // Attach deepest-first: children have larger ids than their parents, so
    // reverse id order folds each subtree before its parent is consumed.
    let mut root_node = to_node(&root);
    while let Some((_, parent, node)) = nodes.pop() {
        let parent = parent.unwrap_or(root.id);
        if parent == root.id {
            root_node.children.push(node);
        } else if let Some((_, _, p)) = nodes.iter_mut().find(|(id, _, _)| *id == parent) {
            p.children.push(node);
        } else {
            root_node.children.push(node);
        }
    }
    // `pop` consumed in reverse id order; restore chronological order.
    sort_children(&mut root_node);
    root_node
}

fn sort_children(node: &mut SpanNode) {
    node.children
        .sort_by(|a, b| a.start_ms.partial_cmp(&b.start_ms).unwrap());
    for c in &mut node.children {
        sort_children(c);
    }
}
