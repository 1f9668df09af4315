//! Property tests for the routing substrate: all engines agree with the
//! Bellman-Ford oracle, costs obey the triangle inequality, landmark
//! bounds are admissible, and caches are transparent.

use mt_share::mobility::{grid_partition, LandmarkGraph};
use mt_share::road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
use mt_share::routing::{
    bellman_ford_cost, BidirDijkstra, CchQuery, CustomizableCh, Dijkstra, MaskedDijkstra, NodeMask,
    PathCache, RouterBackend,
};
use proptest::prelude::*;
use std::sync::Arc;

fn city(seed: u64) -> Arc<RoadNetwork> {
    Arc::new(
        grid_city(&GridCityConfig { rows: 12, cols: 12, seed, ..GridCityConfig::default() })
            .unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_agree_with_bellman_ford(
        seed in 0u64..8,
        s in 0u32..144,
        t in 0u32..144,
    ) {
        let g = city(seed);
        let (s, t) = (NodeId(s), NodeId(t));
        let oracle = bellman_ford_cost(&g, s, t).expect("strongly connected");
        let mut d = Dijkstra::new(&g);
        let mut bi = BidirDijkstra::new(&g);
        let mut cch = CchQuery::new(Arc::new(CustomizableCh::build(&g)));
        prop_assert!((d.cost(&g, s, t).unwrap() - oracle).abs() < 1e-2);
        prop_assert!((bi.cost(&g, s, t).unwrap() - oracle).abs() < 1e-2);
        prop_assert!((cch.cost(s, t).unwrap() - oracle).abs() < 1e-2);
    }

    #[test]
    fn triangle_inequality_holds(
        seed in 0u64..4,
        a in 0u32..144,
        b in 0u32..144,
        c in 0u32..144,
    ) {
        let g = city(seed);
        let cache = PathCache::new(g);
        let ab = cache.cost(NodeId(a), NodeId(b)).unwrap();
        let bc = cache.cost(NodeId(b), NodeId(c)).unwrap();
        let ac = cache.cost(NodeId(a), NodeId(c)).unwrap();
        prop_assert!(ac <= ab + bc + 1e-2, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn cache_and_oracle_are_transparent(
        seed in 0u64..4,
        s in 0u32..144,
        t in 0u32..144,
    ) {
        // Unpinned pair (memo + backend), pinned source (forward vector)
        // and pinned target (backward vector) all return Dijkstra's exact
        // bits, under both backends.
        let g = city(seed);
        let (s, t) = (NodeId(s), NodeId(t));
        let mut d = Dijkstra::new(&g);
        let want = d.cost(&g, s, t).map(f64::to_bits);
        let cch = Arc::new(CustomizableCh::build(&g));
        for backend in [RouterBackend::Bidir, RouterBackend::Cch(cch)] {
            let name = backend.name();
            let cache = PathCache::with_backend(g.clone(), backend);
            let bits = |cache: &PathCache| cache.cost(s, t).map(f64::to_bits);
            prop_assert_eq!(bits(&cache), want, "{} unpinned", name);
            // Second query must return the identical memoized value.
            prop_assert_eq!(bits(&cache), want, "{} memoized", name);
            cache.pin(s);
            prop_assert_eq!(bits(&cache), want, "{} pinned source", name);
            cache.unpin(s);
            cache.pin(t);
            prop_assert_eq!(bits(&cache), want, "{} pinned target", name);
        }
    }

    #[test]
    fn returned_paths_are_valid_walks_with_exact_cost(
        seed in 0u64..4,
        s in 0u32..144,
        t in 0u32..144,
    ) {
        let g = city(seed);
        let mut bi = BidirDijkstra::new(&g);
        let p = bi.path(&g, NodeId(s), NodeId(t)).unwrap();
        prop_assert_eq!(p.start(), NodeId(s));
        prop_assert_eq!(p.end(), NodeId(t));
        let mut total = 0.0f64;
        for w in p.nodes.windows(2) {
            let c = g.direct_edge_cost(w[0], w[1]);
            prop_assert!(c.is_some(), "non-adjacent consecutive nodes");
            total += c.unwrap() as f64;
        }
        prop_assert!((total - p.cost_s).abs() < 1e-2);
    }

    #[test]
    fn landmark_lower_bound_is_admissible(
        seed in 0u64..6,
        s in 0u32..144,
        t in 0u32..144,
    ) {
        let g = city(seed);
        // The partition landmark tables partition filtering estimates
        // from: by the triangle inequality, every landmark `L` bounds
        // d(s,t) from below by d(L,t) − d(L,s) and by d(s,L) − d(t,L).
        let partitioning = grid_partition(&g, 9);
        let lg = LandmarkGraph::build(&g, &partitioning);
        let (s, t) = (NodeId(s), NodeId(t));
        let mut d = Dijkstra::new(&g);
        let true_cost = d.cost(&g, s, t).unwrap();
        let lb = partitioning
            .partitions()
            .flat_map(|p| {
                [
                    lg.cost_from_landmark(p, t) - lg.cost_from_landmark(p, s),
                    lg.cost_to_landmark(s, p) - lg.cost_to_landmark(t, p),
                ]
            })
            .fold(0.0f32, f32::max) as f64;
        prop_assert!(
            lb <= true_cost + 1e-3,
            "landmark bound {lb} exceeds true cost {true_cost} for {s}->{t}"
        );
    }

    #[test]
    fn masked_search_never_beats_unmasked(
        seed in 0u64..4,
        s in 0u32..144,
        t in 0u32..144,
        keep_fraction in 3u32..10,
    ) {
        let g = city(seed);
        let mut mask = NodeMask::new(&g);
        mask.clear();
        // Keep endpoints plus a pseudo-random subset of vertices.
        mask.allow(NodeId(s));
        mask.allow(NodeId(t));
        for n in g.nodes() {
            if (n.0.wrapping_mul(2654435761) >> 16) % 10 < keep_fraction {
                mask.allow(n);
            }
        }
        let mut md = MaskedDijkstra::new(&g);
        let mut d = Dijkstra::new(&g);
        let free = d.cost(&g, NodeId(s), NodeId(t)).unwrap();
        if let Some(p) = md.path_masked(&g, NodeId(s), NodeId(t), &mask, None) {
            prop_assert!(p.cost_s >= free - 1e-2, "masked {} < free {}", p.cost_s, free);
        }
    }
}
