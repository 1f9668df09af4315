//! Property suite for the customizable hierarchy: on random synthetic
//! graphs it must answer bit-identical to a plain Dijkstra on the
//! *current* metric after any sequence of random traffic-shift windows
//! (apply → query → restore → query).

use mtshare_road::{apply_traffic_shifts, grid_city, GridCityConfig, NodeId, TrafficShiftSpec};
use mtshare_routing::{CchQuery, CustomizableCh, Dijkstra};
use proptest::prelude::*;
use std::sync::Arc;

/// A small random grid: shape and seed both vary so the dissection
/// order, the skeleton and the tie-breaks all differ between cases.
fn small_grid(rows: usize, cols: usize, seed: u64) -> GridCityConfig {
    GridCityConfig { rows, cols, seed, ..GridCityConfig::tiny() }
}

/// Random query pairs from a deterministic LCG so failures replay.
fn pairs(n: u32, mut seed: u64, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| {
            let mut next = || {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (seed >> 33) as u32 % n
            };
            (NodeId(next()), NodeId(next()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CCH exactness under re-customization: after applying a random
    /// traffic-shift window the customized hierarchy must agree with
    /// Dijkstra on the shifted graph bit for bit, and restoring the base
    /// metric must bring it back to base-Dijkstra agreement.
    #[test]
    fn cch_matches_dijkstra_across_random_traffic_shifts(
        rows in 3usize..=7,
        cols in 3usize..=7,
        seed in 0u64..10_000,
        center in 0u32..10_000,
        radius_m in 150.0f64..2500.0,
        factor_x100 in 110u32..=500,
        pair_seed in 0u64..10_000,
    ) {
        let base = Arc::new(grid_city(&small_grid(rows, cols, seed)).unwrap());
        let n = base.node_count() as u32;
        let spec = TrafficShiftSpec {
            center: NodeId(center % n),
            radius_m,
            factor: f64::from(factor_x100) / 100.0,
            start_s: 0.0,
            duration_s: 1.0,
        };
        let shifted = Arc::new(apply_traffic_shifts(&base, &[spec]).unwrap());

        let cch = Arc::new(CustomizableCh::build(&base));
        let mut q = CchQuery::new(cch.clone());
        let mut d = Dijkstra::new(&base);
        let queries = pairs(n, pair_seed, 12);

        cch.customize(&shifted);
        for &(s, t) in &queries {
            prop_assert_eq!(
                q.cost(s, t),
                d.cost(&shifted, s, t),
                "shifted metric diverges {}->{} (factor {}, radius {})",
                s, t, spec.factor, spec.radius_m
            );
        }

        cch.customize(&base);
        for &(s, t) in &queries {
            prop_assert_eq!(
                q.cost(s, t),
                d.cost(&base, s, t),
                "restored base metric diverges {}->{}", s, t
            );
        }
    }
}
