//! Property-based tests for graph construction and temporal sampling.

use proptest::prelude::*;
use relgraph_graph::{
    EdgeTypeId, HeteroGraph, HeteroGraphBuilder, NodeTypeId, SamplerConfig, Seed, TemporalSampler,
};

/// A random two-type graph: `a` (entities) and `b` (events), with edges
/// a→b and b→a carrying random times.
fn random_graph(n_a: usize, n_b: usize, edges: &[(usize, usize, i64)]) -> HeteroGraph {
    let mut builder = HeteroGraphBuilder::new();
    let a = builder.add_node_type("a", n_a);
    let b = builder.add_node_type("b", n_b);
    let fwd = builder.add_edge_type("fwd", a, b);
    let rev = builder.add_edge_type("rev", b, a);
    builder.set_node_times(b, (0..n_b).map(|i| i as i64 * 10).collect());
    for &(s, d, t) in edges {
        builder.add_edge(fwd, s % n_a, d % n_b, t);
        builder.add_edge(rev, d % n_b, s % n_a, t);
    }
    builder.finish().unwrap()
}

fn edges_strategy() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, i64)>)> {
    (1usize..8, 1usize..12).prop_flat_map(|(n_a, n_b)| {
        proptest::collection::vec((0..n_a, 0..n_b, 0i64..1000), 0..60)
            .prop_map(move |e| (n_a, n_b, e))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edge_conservation((n_a, n_b, edges) in edges_strategy()) {
        let g = random_graph(n_a, n_b, &edges);
        // Both directions materialize every edge exactly once.
        prop_assert_eq!(g.total_edges(), edges.len() * 2);
        let fwd = g.edge_type_by_name("fwd").unwrap();
        let sum_deg: usize = (0..n_a).map(|i| g.out_degree(fwd, i)).sum();
        prop_assert_eq!(sum_deg, edges.len());
    }

    #[test]
    fn neighbor_lists_sorted_by_time((n_a, n_b, edges) in edges_strategy()) {
        let g = random_graph(n_a, n_b, &edges);
        for et in 0..g.num_edge_types() {
            let e = EdgeTypeId(et);
            let n_src = g.num_nodes(g.edge_type(e).src);
            for i in 0..n_src {
                let times: Vec<i64> = g.neighbors(e, i).map(|(_, t)| t).collect();
                prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn visible_prefix_matches_filter(
        (n_a, n_b, edges) in edges_strategy(),
        cutoff in 0i64..1000,
    ) {
        let g = random_graph(n_a, n_b, &edges);
        let fwd = g.edge_type_by_name("fwd").unwrap();
        for i in 0..n_a {
            let visible: Vec<(usize, i64)> = g.neighbors_before(fwd, i, cutoff).collect();
            let manual: Vec<(usize, i64)> =
                g.neighbors(fwd, i).filter(|&(_, t)| t <= cutoff).collect();
            prop_assert_eq!(visible, manual);
            // Windowed degree helper agrees with the prefix count.
            prop_assert_eq!(
                g.degree_between(fwd, i, i64::MIN, cutoff),
                g.neighbors_before(fwd, i, cutoff).count()
            );
        }
    }

    #[test]
    fn sampler_temporal_invariant(
        (n_a, n_b, edges) in edges_strategy(),
        anchor in 0i64..1200,
        fanout in 1usize..6,
    ) {
        let g = random_graph(n_a, n_b, &edges);
        let sampler = TemporalSampler::new(&g, SamplerConfig::new(vec![fanout, fanout]));
        let seeds: Vec<Seed> = (0..n_a)
            .map(|i| Seed { node_type: NodeTypeId(0), node: i, time: anchor })
            .collect();
        let sub = sampler.sample(&seeds);
        // Invariant 1: no non-seed node postdates its anchor.
        let b_ty = 1;
        for (l, &node) in sub.nodes[b_ty].iter().enumerate() {
            prop_assert!(g.node_time(NodeTypeId(b_ty), node) <= sub.anchors[b_ty][l]);
        }
        // Invariant 2: edge endpoints are valid locals.
        for (et, pairs) in sub.edges.iter().enumerate() {
            let meta = g.edge_type(EdgeTypeId(et));
            for &(s, d) in pairs {
                prop_assert!((s as usize) < sub.nodes[meta.src.0].len());
                prop_assert!((d as usize) < sub.nodes[meta.dst.0].len());
            }
        }
        // Invariant 3: per-(node, edge-type) fanout is respected per hop.
        // (Total over hops may repeat edge types, so check each seed's
        // direct fanout only: the seed's out-edges per edge type.)
        for &sl in &sub.seed_locals {
            for (et, pairs) in sub.edges.iter().enumerate() {
                let meta = g.edge_type(EdgeTypeId(et));
                if meta.src.0 != 0 {
                    continue;
                }
                let direct = pairs.iter().filter(|&&(s, _)| s as usize == sl).count();
                prop_assert!(direct <= fanout, "seed fanout exceeded: {direct} > {fanout}");
            }
        }
        // Invariant 4: every seed is present.
        prop_assert_eq!(sub.seed_locals.len(), n_a);
    }

    #[test]
    fn leaky_sampler_supersets_temporal(
        (n_a, n_b, edges) in edges_strategy(),
        anchor in 0i64..1000,
    ) {
        let g = random_graph(n_a, n_b, &edges);
        let seeds = vec![Seed { node_type: NodeTypeId(0), node: 0, time: anchor }];
        let temporal = TemporalSampler::new(&g, SamplerConfig::new(vec![100]));
        let leaky = TemporalSampler::new(&g, SamplerConfig::new(vec![100]).leaky());
        let t_nodes = temporal.sample(&seeds).total_nodes();
        let l_nodes = leaky.sample(&seeds).total_nodes();
        prop_assert!(l_nodes >= t_nodes);
    }

    #[test]
    fn degree_features_are_monotone_in_window(
        (n_a, n_b, edges) in edges_strategy(),
        anchor in 0i64..1000,
    ) {
        let g = random_graph(n_a, n_b, &edges);
        let sampler = TemporalSampler::new(&g, SamplerConfig::new(vec![3]));
        let sub = sampler.sample(&[Seed { node_type: NodeTypeId(0), node: 0, time: anchor }]);
        // DEGREE_WINDOWS_DAYS = [7, 30, 90, all]: counts must be
        // non-decreasing across widening windows, per edge type.
        let nw = relgraph_graph::sampler::DEGREE_WINDOWS_DAYS.len();
        let stride = relgraph_graph::sampler::degree_stride(&g);
        for rows in &sub.degrees {
            for degs in rows.chunks_exact(stride) {
                for et in 0..degs.len() / nw {
                    for w in 1..nw {
                        prop_assert!(degs[et * nw + w] >= degs[et * nw + w - 1]);
                    }
                }
            }
        }
    }

    /// Cutting seeds' blocks out of a sampled batch equals sampling those
    /// seeds again: random picks and the same picks twice over (repeats),
    /// every seed reversed and in order, none, and each seed alone — at 0–3
    /// hops, temporal, leaky and without degree features.
    #[test]
    fn select_equals_resampling(
        (n_a, n_b, edges) in edges_strategy(),
        hops in 0usize..4,
        fanout in 1usize..6,
        variant in 0usize..3,
        seeds in proptest::collection::vec((0usize..8, 0i64..1200), 1..10),
        random in proptest::collection::vec(0usize..64, 0..12),
    ) {
        let g = random_graph(n_a, n_b, &edges);
        let config = SamplerConfig::new(vec![fanout; hops]);
        let config = match variant {
            0 => config,
            1 => config.leaky(),
            _ => config.without_degree_features(),
        };
        let sampler = TemporalSampler::new(&g, config);
        let seeds: Vec<Seed> = seeds
            .iter()
            .map(|&(node, time)| Seed { node_type: NodeTypeId(0), node: node % n_a, time })
            .collect();
        let batch = sampler.sample(&seeds);
        let n = seeds.len();
        let random: Vec<usize> = random.iter().map(|&i| i % n).collect();
        let mut cases = vec![
            random.iter().chain(&random).copied().collect(),
            random,
            (0..n).rev().collect(),
            (0..n).collect(),
            Vec::new(),
        ];
        cases.extend((0..n).map(|i| vec![i]));
        for picks in cases {
            let picked: Vec<Seed> = picks.iter().map(|&i| seeds[i]).collect();
            prop_assert_eq!(batch.select(&g, &picks), sampler.sample(&picked), "picks {:?}", picks);
        }
    }
}
