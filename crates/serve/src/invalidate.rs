//! Delta-driven cache invalidation for the shards of a
//! [`ShardedEngine`](crate::ShardedEngine).
//!
//! The correctness argument lives in `engine`'s module docs; this module
//! owns the machinery: find the distance-0 dirty seeds an ingest created,
//! close them over k hops, and package the result as an
//! [`InvalidationPlan`] that each shard's cache slice (and the shared L2
//! tier) can apply independently. A plan is *descriptive*, not
//! imperative: it names `(type, node, distance)` triples, and applying it
//! to a cache that never held those entries is a no-op. That is what lets
//! one writer broadcast the same plan to every shard without knowing which
//! shard cached what.
//!
//! Nothing here hashes. Node indices are dense per type, so the closure
//! keeps one `u8` distance per node ([`DirtyDistances`]), a plan reads
//! those arrays out already sorted by `(type, node)`, merging plans is a
//! sorted union, and [`PlanFilter`] indexes an array per type.

use std::cmp::Ordering;
use std::sync::Arc;

use relgraph_db2graph::GraphMapping;
use relgraph_graph::{HeteroGraph, NodeTypeId};
use relgraph_store::Database;

use crate::cache::{L1Cache, Lru};
use crate::error::{ServeError, ServeResult};

/// A table that gained rows during an ingest, with enough context to diff
/// its features pre/post delta.
#[derive(Debug, Clone, Copy)]
pub struct TableGrowth {
    /// Index into `db.tables()`.
    pub table_index: usize,
    /// The table's node type in the graph.
    pub node_type: NodeTypeId,
    /// Row count before the ingest.
    pub pre_len: usize,
}

/// Which tables grew, given the pre-ingest row counts. Call *after*
/// `db.ingest`, with the mapping of the pre-delta graph.
pub fn grown_tables(
    db: &Database,
    mapping: &GraphMapping,
    pre_lens: &[usize],
) -> ServeResult<Vec<TableGrowth>> {
    let mut grown = Vec::new();
    for (i, t) in db.tables().iter().enumerate() {
        if t.len() > pre_lens[i] {
            let nt = mapping.node_type(t.name()).ok_or_else(|| {
                ServeError::Engine(format!("table `{}` missing from graph mapping", t.name()))
            })?;
            grown.push(TableGrowth {
                table_index: i,
                node_type: nt,
                pre_len: pre_lens[i],
            });
        }
    }
    Ok(grown)
}

/// The distance a [`DirtyDistances`] array holds for a node no seed reaches
/// within the closure depth.
const CLEAN: u8 = u8::MAX;

/// The shortest distance from each `(type, node)` to a dirty seed, held
/// densely: one `u8` per node in one array per node type, `u8::MAX` where
/// no seed is within reach.
///
/// Node indices are dense per type by construction (rows are appended,
/// never moved), so an array indexed by node is the whole map, and reading
/// the arrays in `(type, node)` order yields a sorted plan without a sort.
#[derive(Debug, Default)]
pub struct DirtyDistances {
    dist: Vec<Vec<u8>>,
    len: usize,
}

impl DirtyDistances {
    /// Every node of `graph` clean.
    fn clean(graph: &HeteroGraph) -> Self {
        DirtyDistances {
            dist: (0..graph.num_node_types())
                .map(|t| vec![CLEAN; graph.num_nodes(NodeTypeId(t))])
                .collect(),
            len: 0,
        }
    }

    /// Give a clean node distance `d`; a node already reached keeps its
    /// distance. True when the node was clean.
    fn reach(&mut self, ty: usize, node: usize, d: u8) -> bool {
        let slot = &mut self.dist[ty][node];
        let fresh = *slot == CLEAN;
        if fresh {
            *slot = d;
            self.len += 1;
        }
        fresh
    }

    /// Number of dirty nodes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Distance from `(ty, node)` to the nearest seed; `None` when clean.
    pub(crate) fn get(&self, ty: usize, node: usize) -> Option<usize> {
        match self.dist.get(ty).and_then(|v| v.get(node)) {
            Some(&d) if d != CLEAN => Some(usize::from(d)),
            _ => None,
        }
    }

    /// The dirty `(type, node, distance)` triples, ascending by
    /// `(type, node)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.dist.iter().enumerate().flat_map(|(ty, v)| {
            v.iter()
                .enumerate()
                .filter(|&(_, &d)| d != CLEAN)
                .map(move |(node, &d)| (ty, node, usize::from(d)))
        })
    }
}

/// Collect `((type, node), distance)` pairs, growing the arrays to fit and
/// keeping the minimum distance of a node named more than once.
///
/// Panics on a distance of `u8::MAX` or more; [`dirty_closure`] bounds
/// every distance by `hops < u8::MAX`.
impl FromIterator<((usize, usize), usize)> for DirtyDistances {
    fn from_iter<I: IntoIterator<Item = ((usize, usize), usize)>>(iter: I) -> Self {
        let mut out = DirtyDistances::default();
        for ((ty, node), d) in iter {
            let d = u8::try_from(d)
                .ok()
                .filter(|&d| d != CLEAN)
                .expect("dirty distances are below u8::MAX");
            if ty >= out.dist.len() {
                out.dist.resize_with(ty + 1, Vec::new);
            }
            let row = &mut out.dist[ty];
            if node >= row.len() {
                row.resize(node + 1, CLEAN);
            }
            if row[node] == CLEAN {
                out.len += 1;
            }
            row[node] = row[node].min(d);
        }
        out
    }
}

/// Distance-0 dirty seeds plus their `hops`-hop closure over the
/// post-delta `graph`: the shortest distance from each affected
/// `(type, node)` to any seed.
///
/// Seeds (distance 0) are: rows whose feature vector differs bitwise from
/// the pre-delta graph `prev` (z-score statistics shift on append),
/// endpoints of new edges (their neighbor lists and windowed degrees
/// changed), and the new rows themselves.
///
/// # Panics
///
/// If `hops >= u8::MAX`: distances are held as `u8`.
pub fn dirty_closure(
    db: &Database,
    prev: &HeteroGraph,
    graph: &HeteroGraph,
    mapping: &GraphMapping,
    growth: &[TableGrowth],
    hops: usize,
) -> ServeResult<DirtyDistances> {
    assert!(
        hops < usize::from(CLEAN),
        "closure depth {hops} does not fit u8 distances"
    );
    let mut dist = DirtyDistances::clean(graph);
    let mut frontier: Vec<(usize, usize)> = Vec::new();
    let mut seed = |ty: usize, node: usize| {
        if dist.reach(ty, node, 0) {
            frontier.push((ty, node));
        }
    };
    for g in growth {
        let nt = g.node_type;
        let pre = prev.features(nt);
        let post = graph.features(nt);
        if pre.dim() != post.dim() {
            // The feature space itself changed (new hashed category, say):
            // every row of the type is dirty.
            for row in 0..post.rows() {
                seed(nt.0, row);
            }
            continue;
        }
        for row in 0..g.pre_len.min(post.rows()) {
            let changed = pre
                .row(row)
                .iter()
                .zip(post.row(row))
                .any(|(a, b)| a.to_bits() != b.to_bits());
            if changed {
                seed(nt.0, row);
            }
        }
        for row in g.pre_len..post.rows() {
            seed(nt.0, row);
        }
        let table = &db.tables()[g.table_index];
        for fk in table.schema().foreign_keys() {
            let target = db.table(&fk.referenced_table)?;
            let target_nt = mapping.node_type(target.name()).ok_or_else(|| {
                ServeError::Engine(format!(
                    "table `{}` missing from graph mapping",
                    target.name()
                ))
            })?;
            let col = table
                .column_by_name(&fk.column)
                .expect("schema guarantees the FK column exists");
            for row in g.pre_len..table.len() {
                let key = col.get(row);
                if key.is_null() {
                    continue;
                }
                if let Some(dst) = target.row_by_key(&key) {
                    seed(target_nt.0, dst);
                }
            }
        }
    }

    // BFS over the full adjacency; forward + reverse edge types make
    // neighbor-of symmetric, and a node's first reach is its shortest
    // distance.
    let mut next = Vec::new();
    for d in 1..=hops as u8 {
        for &(ty, node) in &frontier {
            for &et in graph.edge_types_from(NodeTypeId(ty)) {
                let dst_ty = graph.edge_type(et).dst.0;
                for &nbr in graph.neighbor_slices(et, node).0 {
                    if dist.reach(dst_ty, nbr as usize, d) {
                        next.push((dst_ty, nbr as usize));
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    Ok(dist)
}

/// One published graph transition, as seen by a cache slice: applying the
/// plan for epoch `e` brings a cache that was consistent with epoch `e-1`
/// to consistency with epoch `e`.
#[derive(Debug, Clone)]
pub struct InvalidationPlan {
    /// The epoch this plan transitions *to*.
    pub epoch: u64,
    /// Drop everything: the deploy anchor advanced or the graph was
    /// rebuilt, so no cached entry's inputs survived.
    pub flush: bool,
    /// `(type, node, distance)` triples to evict precisely, ascending by
    /// `(type, node)` with one triple per node. Shared by every shard,
    /// hence the `Arc`.
    pub dirty: Arc<Vec<(usize, usize, usize)>>,
}

impl InvalidationPlan {
    /// A plan that flushes wholesale.
    pub fn flush(epoch: u64) -> Self {
        InvalidationPlan {
            epoch,
            flush: true,
            dirty: Arc::new(Vec::new()),
        }
    }

    /// A plan that evicts precisely, from a [`dirty_closure`] result. The
    /// arrays are read in `(type, node)` order, so every shard applies the
    /// identical, sorted plan.
    pub fn precise(epoch: u64, dist: &DirtyDistances) -> Self {
        let mut dirty = Vec::with_capacity(dist.len());
        dirty.extend(dist.iter());
        InvalidationPlan {
            epoch,
            flush: false,
            dirty: Arc::new(dirty),
        }
    }

    /// Coalesce consecutive plans into one plan whose application is
    /// equivalent to applying `plans` in order. `None` on an empty slice.
    ///
    /// * Any flush dominates: after a wholesale clear the cache holds
    ///   nothing for later precise evictions to remove, so the merged plan
    ///   is a flush.
    /// * Otherwise the sorted dirty lists union in one linear pass per
    ///   plan, keeping the **minimum** distance per `(type, node)`:
    ///   [`evict_dirty`] evicts levels `d..=hops`, and `min(d1, d2)..=hops`
    ///   is exactly the union of the two ranges.
    /// * The merged epoch is the last plan's (plans are consecutive and
    ///   ascending), so applying it lands the cache on the same epoch the
    ///   sequence would have.
    ///
    /// This is what lets a shard that slept through N epochs — or a writer
    /// ingesting an N-batch group — pay one cache sweep instead of N.
    pub fn merge(plans: &[InvalidationPlan]) -> Option<InvalidationPlan> {
        let (last, rest) = plans.split_last()?;
        if rest.is_empty() {
            return Some(last.clone());
        }
        if plans.iter().any(|p| p.flush) {
            return Some(InvalidationPlan::flush(last.epoch));
        }
        let dirty = plans[1..]
            .iter()
            .fold(plans[0].dirty.to_vec(), |acc, p| union_min(&acc, &p.dirty));
        Some(InvalidationPlan {
            epoch: last.epoch,
            flush: false,
            dirty: Arc::new(dirty),
        })
    }
}

/// Union two dirty lists sorted by `(type, node)`, keeping the minimum
/// distance of a node both hold. The result is sorted, one triple per node.
fn union_min(
    a: &[(usize, usize, usize)],
    b: &[(usize, usize, usize)],
) -> Vec<(usize, usize, usize)> {
    let sorted =
        |v: &[(usize, usize, usize)]| v.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
    debug_assert!(sorted(a) && sorted(b), "plans are sorted by (type, node)");
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match (x.0, x.1).cmp(&(y.0, y.1)) {
            Ordering::Less => {
                out.push(x);
                i += 1;
            }
            Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            Ordering::Equal => {
                out.push((x.0, x.1, x.2.min(y.2)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The normative eviction predicate of one (possibly merged) plan, in a
/// form a *shared* cache can query per entry instead of enumerating keys.
///
/// [`evict_dirty`] walks the dirty list and removes levels `d..=hops` by
/// key — the right shape for a per-shard slice, where the plan is small
/// relative to the cache. The L2 tier inverts that: the writer sweeps the
/// published map once and asks, per held entry, whether the plan evicts
/// it. Both answer the same question, and this struct *is* the rule:
/// under a plan `P` (including any [`InvalidationPlan::merge`] result),
/// a cached embedding keyed `(ty, node, level)` must be dropped **iff**
/// `P.flush`, or `P.dirty` contains `(ty, node)` at distance `d` with
/// `level >= d`. Levels below `d` survive: a change `d` hops away can
/// only reach an embedding whose receptive field spans at least `d` hops.
/// Predictions count as level `hops` of the entity type.
pub struct PlanFilter {
    flush: bool,
    dist: DirtyDistances,
}

impl PlanFilter {
    /// Compile `plan` into the predicate form: its distances in one array
    /// per node type, indexed by node (merged plans already keep the
    /// minimum distance per node).
    pub fn new(plan: &InvalidationPlan) -> Self {
        let dist = if plan.flush {
            DirtyDistances::default()
        } else {
            plan.dirty
                .iter()
                .map(|&(ty, node, d)| ((ty, node), d))
                .collect()
        };
        PlanFilter {
            flush: plan.flush,
            dist,
        }
    }

    /// True when the plan flushes wholesale (every entry is evicted).
    pub fn flushes(&self) -> bool {
        self.flush
    }

    /// Must the embedding keyed `(ty, node, level)` be dropped under this
    /// plan?
    pub fn evicts(&self, ty: usize, node: usize, level: usize) -> bool {
        self.flush || self.dist.get(ty, node).is_some_and(|d| level >= d)
    }
}

/// Apply one plan's precise evictions to a cache slice: embeddings at
/// levels `d..=hops` for every dirty node, plus the tier-1 prediction for
/// dirty entity nodes. Returns `(embeddings_evicted, predictions_evicted)`
/// — counts of entries actually present, so idle shards report zeros.
/// Works on any [`L1Cache`]: invalidation is keyed by
/// `(type, node, level)` regardless of how the payload is encoded.
pub fn evict_dirty(
    dirty: &[(usize, usize, usize)],
    hops: usize,
    entity_ty: usize,
    predictions: &mut Lru<usize, f64>,
    embeddings: &mut dyn L1Cache,
) -> (u64, u64) {
    let mut emb = 0u64;
    let mut pred = 0u64;
    for &(ty, node, d) in dirty {
        for level in d..=hops {
            if embeddings.invalidate(ty, node, level) {
                emb += 1;
            }
        }
        if ty == entity_ty && predictions.remove(&node) {
            pred += 1;
        }
    }
    (emb, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::btree_map::Entry;
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relgraph_db2graph::{build_graph, ConvertOptions};
    use relgraph_graph::FeatureMatrix;
    use relgraph_store::{DataType, Row, TableSchema, Value};

    fn precise(epoch: u64, entries: &[((usize, usize), usize)]) -> InvalidationPlan {
        InvalidationPlan::precise(epoch, &entries.iter().copied().collect())
    }

    #[test]
    fn merge_unions_dirty_with_min_distance() {
        let a = precise(3, &[((0, 1), 2), ((0, 2), 0)]);
        let b = precise(4, &[((0, 1), 1), ((1, 7), 3)]);
        let m = InvalidationPlan::merge(&[a, b]).unwrap();
        assert_eq!(m.epoch, 4);
        assert!(!m.flush);
        assert_eq!(*m.dirty, vec![(0, 1, 1), (0, 2, 0), (1, 7, 3)]);
    }

    #[test]
    fn merge_lets_flush_dominate() {
        let a = precise(5, &[((0, 1), 0)]);
        let b = InvalidationPlan::flush(6);
        let c = precise(7, &[((2, 2), 1)]);
        let m = InvalidationPlan::merge(&[a, b, c]).unwrap();
        assert_eq!(m.epoch, 7);
        assert!(m.flush);
        assert!(m.dirty.is_empty());
    }

    #[test]
    fn plan_filter_agrees_with_evict_dirty_on_every_level() {
        use crate::cache::EmbeddingCache;
        use relgraph_gnn::EmbeddingStore;
        let hops = 2usize;
        let plan = precise(1, &[((0, 3), 1), ((1, 5), 0), ((0, 7), 2)]);
        let filter = PlanFilter::new(&plan);
        assert!(!filter.flushes());
        let mut tier = EmbeddingCache::new(1024);
        let mut predictions: Lru<usize, f64> = Lru::new(1024);
        let keys: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|ty| (0..8).flat_map(move |node| (0..=hops).map(move |l| (ty, node, l))))
            .collect();
        for &(ty, node, level) in &keys {
            tier.put(ty, node, level, vec![1.0]);
        }
        evict_dirty(&plan.dirty, hops, 0, &mut predictions, &mut tier);
        for &(ty, node, level) in &keys {
            let held = tier.get(ty, node, level).is_some();
            assert_eq!(
                held,
                !filter.evicts(ty, node, level),
                "filter and evict_dirty disagree at ({ty}, {node}, {level})"
            );
        }
        assert!(PlanFilter::new(&InvalidationPlan::flush(2)).evicts(9, 9, 0));
    }

    #[test]
    fn merge_of_one_is_identity_and_of_none_is_none() {
        let a = precise(9, &[((0, 0), 1)]);
        let m = InvalidationPlan::merge(std::slice::from_ref(&a)).unwrap();
        assert_eq!(m.epoch, 9);
        assert_eq!(*m.dirty, *a.dirty);
        assert!(InvalidationPlan::merge(&[]).is_none());
    }

    /// A dirty map ordered by `(type, node)`: the reference's container.
    type RefDist = BTreeMap<(usize, usize), usize>;

    /// A plan's `(type, node, distance)` list.
    type Dirty = Vec<(usize, usize, usize)>;

    /// The closure as first written, over an ordered map and with the
    /// pre-delta feature matrices cloned out by the caller: the reference
    /// the dense arrays must reproduce bit for bit.
    fn reference_closure(
        db: &Database,
        graph: &HeteroGraph,
        mapping: &GraphMapping,
        growth: &[TableGrowth],
        pre_features: &[FeatureMatrix],
        hops: usize,
    ) -> RefDist {
        let mut dist = RefDist::new();
        for (g, pre) in growth.iter().zip(pre_features) {
            let nt = g.node_type;
            let post = graph.features(nt);
            if pre.dim() != post.dim() {
                for row in 0..post.rows() {
                    dist.insert((nt.0, row), 0);
                }
                continue;
            }
            for row in 0..g.pre_len.min(post.rows()) {
                let changed = pre
                    .row(row)
                    .iter()
                    .zip(post.row(row))
                    .any(|(a, b)| a.to_bits() != b.to_bits());
                if changed {
                    dist.insert((nt.0, row), 0);
                }
            }
            for row in g.pre_len..post.rows() {
                dist.insert((nt.0, row), 0);
            }
            let table = &db.tables()[g.table_index];
            for fk in table.schema().foreign_keys() {
                let target = db.table(&fk.referenced_table).unwrap();
                let target_nt = mapping.node_type(target.name()).unwrap();
                let col = table.column_by_name(&fk.column).unwrap();
                for row in g.pre_len..table.len() {
                    let key = col.get(row);
                    if key.is_null() {
                        continue;
                    }
                    if let Some(dst) = target.row_by_key(&key) {
                        dist.insert((target_nt.0, dst), 0);
                    }
                }
            }
        }
        let mut frontier: Vec<(usize, usize)> = dist.keys().copied().collect();
        for d in 1..=hops {
            let mut next = Vec::new();
            for &(ty, node) in &frontier {
                for &et in graph.edge_types_from(NodeTypeId(ty)) {
                    let dst_ty = graph.edge_type(et).dst.0;
                    let (nbrs, _) = graph.neighbor_slices(et, node);
                    for &nbr in nbrs {
                        let key = (dst_ty, nbr as usize);
                        if let Entry::Vacant(e) = dist.entry(key) {
                            e.insert(d);
                            next.push(key);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        dist
    }

    /// A plan's dirty list as first built: collected, then sorted.
    fn reference_dirty(dist: &RefDist) -> Dirty {
        let mut dirty: Dirty = dist.iter().map(|(&(ty, node), &d)| (ty, node, d)).collect();
        dirty.sort_unstable();
        dirty
    }

    /// Minimum distance per node over `dirty`.
    fn reference_min(dirty: &[(usize, usize, usize)], dist: &mut RefDist) {
        for &(ty, node, d) in dirty {
            dist.entry((ty, node))
                .and_modify(|e| *e = (*e).min(d))
                .or_insert(d);
        }
    }

    /// `(flush, dirty)` of the merged plan, as first written.
    fn reference_merge(plans: &[InvalidationPlan]) -> Option<(bool, Dirty)> {
        let last = plans.last()?;
        if plans.len() == 1 {
            return Some((last.flush, last.dirty.to_vec()));
        }
        if plans.iter().any(|p| p.flush) {
            return Some((true, Vec::new()));
        }
        let mut dist = RefDist::new();
        for plan in plans {
            reference_min(&plan.dirty, &mut dist);
        }
        Some((false, reference_dirty(&dist)))
    }

    /// `PlanFilter::evicts` as first written, over an ordered map.
    struct ReferenceFilter {
        flush: bool,
        dist: RefDist,
    }

    impl ReferenceFilter {
        fn new(plan: &InvalidationPlan) -> Self {
            let mut dist = RefDist::new();
            if !plan.flush {
                reference_min(&plan.dirty, &mut dist);
            }
            ReferenceFilter {
                flush: plan.flush,
                dist,
            }
        }

        fn evicts(&self, ty: usize, node: usize, level: usize) -> bool {
            self.flush || self.dist.get(&(ty, node)).is_some_and(|&d| level >= d)
        }
    }

    /// One table of a random database: its foreign keys as
    /// `(column, target, nullable)`, and whether it has a text column (hashed,
    /// so an append leaves old rows' features alone) and a numeric one
    /// (z-scored, so an append rewrites every old row's features).
    struct TableShape {
        name: &'static str,
        fks: &'static [(&'static str, &'static str, bool)],
        text: bool,
        numeric: bool,
    }

    /// Two or three tables: `a`, `b` referencing `a`, and optionally `c`
    /// referencing `b` and (nullable) `a`.
    fn random_shapes(rng: &mut StdRng) -> Vec<TableShape> {
        let mut shapes = vec![
            TableShape {
                name: "a",
                fks: &[],
                text: true,
                numeric: rng.gen_bool(0.5),
            },
            TableShape {
                name: "b",
                fks: &[("a_id", "a", false)],
                text: rng.gen_bool(0.3),
                numeric: rng.gen_bool(0.5),
            },
        ];
        if rng.gen_bool(0.5) {
            shapes.push(TableShape {
                name: "c",
                fks: &[("b_id", "b", false), ("a_id", "a", true)],
                text: false,
                numeric: rng.gen_bool(0.5),
            });
        }
        shapes
    }

    fn random_database(rng: &mut StdRng, shapes: &[TableShape]) -> Database {
        let mut db = Database::new("random");
        for shape in shapes {
            let mut schema = TableSchema::builder(shape.name).column("id", DataType::Int);
            for &(col, _, nullable) in shape.fks {
                schema = if nullable {
                    schema.nullable_column(col, DataType::Int)
                } else {
                    schema.column(col, DataType::Int)
                };
            }
            if shape.text {
                schema = schema.column("tag", DataType::Text);
            }
            if shape.numeric {
                schema = schema.column("v", DataType::Float);
            }
            schema = schema.primary_key("id");
            for &(col, target, _) in shape.fks {
                schema = schema.foreign_key(col, target);
            }
            db.create_table(schema.build().unwrap()).unwrap();
        }
        grow(rng, &mut db, shapes, 1);
        db
    }

    /// Append `0..=3` rows per table (at least `min` each), parents first so
    /// a new row may reference a new parent row.
    fn grow(rng: &mut StdRng, db: &mut Database, shapes: &[TableShape], min: usize) {
        for shape in shapes {
            let extra = rng.gen_range(min..=3);
            for _ in 0..extra {
                let id = db.table(shape.name).unwrap().len() as i64;
                let mut row = Row::new().push(id);
                for &(_, target, nullable) in shape.fks {
                    let targets = db.table(target).unwrap().len() as i64;
                    row = if nullable && rng.gen_bool(0.3) {
                        row.push(Value::Null)
                    } else {
                        row.push(rng.gen_range(0..targets))
                    };
                }
                if shape.text {
                    row = row.push(["x", "y", "z", "w", "v"][rng.gen_range(0..5usize)]);
                }
                if shape.numeric {
                    row = row.push(rng.gen_range(-4.0..4.0f64));
                }
                db.insert(shape.name, row).unwrap();
            }
        }
    }

    fn options(text_hash_dim: usize) -> ConvertOptions {
        ConvertOptions {
            text_hash_dim,
            ..ConvertOptions::default()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 2–3-type databases grown in 1–4 steps: each step's dense
        /// closure and plan equal the reference's, order included (new
        /// rows, FK endpoints, z-score shifts, and now and then a hash
        /// width change that dirties a whole type, at `hops` 0–3); the
        /// steps' plans merge to the reference merge; and the array
        /// filter agrees with the reference filter on every
        /// `(type, node, level)`, out-of-range keys included.
        fn dense_plans_match_the_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shapes = random_shapes(&mut rng);
            let mut db = random_database(&mut rng, &shapes);
            let hops = rng.gen_range(0..=3usize);
            let steps = rng.gen_range(1..=4usize);
            let mut plans = Vec::new();
            let mut sizes = Vec::new();
            for step in 0..steps {
                let (prev, mapping) = build_graph(&db, &options(4)).unwrap();
                let pre_lens: Vec<usize> = db.tables().iter().map(|t| t.len()).collect();
                grow(&mut rng, &mut db, &shapes, 0);
                let growth = grown_tables(&db, &mapping, &pre_lens).unwrap();
                let dim = if rng.gen_bool(0.2) { 8 } else { 4 };
                let (graph, mapping) = build_graph(&db, &options(dim)).unwrap();
                let pre_features: Vec<FeatureMatrix> = growth
                    .iter()
                    .map(|g| prev.features(g.node_type).clone())
                    .collect();
                let dense = dirty_closure(&db, &prev, &graph, &mapping, &growth, hops).unwrap();
                let reference =
                    reference_closure(&db, &graph, &mapping, &growth, &pre_features, hops);
                prop_assert_eq!(dense.len(), reference.len());
                let plan = if rng.gen_bool(0.1) {
                    InvalidationPlan::flush(step as u64 + 1)
                } else {
                    InvalidationPlan::precise(step as u64 + 1, &dense)
                };
                if !plan.flush {
                    prop_assert_eq!(&*plan.dirty, &reference_dirty(&reference));
                }
                sizes = (0..graph.num_node_types())
                    .map(|t| graph.num_nodes(NodeTypeId(t)))
                    .collect();
                plans.push(plan);
            }
            let merged = InvalidationPlan::merge(&plans).unwrap();
            let (flush, dirty) = reference_merge(&plans).unwrap();
            prop_assert_eq!(merged.epoch, steps as u64);
            prop_assert_eq!(merged.flush, flush);
            prop_assert_eq!(&*merged.dirty, &dirty);
            for plan in plans.iter().chain([&merged]) {
                let filter = PlanFilter::new(plan);
                let reference = ReferenceFilter::new(plan);
                for ty in 0..=sizes.len() {
                    for node in 0..=sizes.get(ty).copied().unwrap_or(0) {
                        for level in 0..=hops + 1 {
                            prop_assert_eq!(
                                filter.evicts(ty, node, level),
                                reference.evicts(ty, node, level),
                                "filters disagree at ({}, {}, {})", ty, node, level
                            );
                        }
                    }
                }
            }
        }
    }
}
