//! Routing engine bench: exact point-to-point latency for Dijkstra,
//! bidirectional Dijkstra and the customizable-hierarchy (CCH) query,
//! plus CCH build time, metric customization latency, and the bucket
//! many-to-one kernel vs per-pair queries, written to
//! `BENCH_routing.json`.
//!
//! Headline targets (all reflected in `within_target`):
//! - CCH build (order + skeleton + base customization) of the 200×200
//!   city in ≤ 10 s — an absolute budget anchored to history, so a
//!   slowdown of the build itself fails the gate;
//! - CCH re-customization of the 200×200 metric in ≤ 250 ms, the bar
//!   for millisecond-class traffic-shift response;
//! - CCH point-to-point median within 1.5× of bidirectional Dijkstra on
//!   every grid tier, so `--router cch` never makes a single cost miss
//!   much dearer than the default router;
//! - one bucket sweep beating the same 64-source batch issued as
//!   individual CCH-backed cache queries.
//!
//! Usage: `routing_bench [OUT.json]` (default: `BENCH_routing.json` at
//! the workspace root). `MTSHARE_BENCH_RUNS` overrides the repetition
//! count (default 3; best-of is reported). `MTSHARE_BENCH_SCALE=1` adds
//! the 400×400 (160 k node) tier, which is too slow for the default
//! debug-mode invocation.

use mtshare_road::{
    grid_city, ring_radial_city, GridCityConfig, NodeId, RingRadialConfig, RoadNetwork,
};
use mtshare_routing::{
    BidirDijkstra, CchBuckets, CchQuery, CustomizableCh, Dijkstra, PathCache, RouterBackend,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const PAIRS: usize = 64;
const MM_SOURCES: usize = 64;
/// Build budget for the 200×200 tier (measured 2.4–3.5 s on a 2-core
/// host when the budget was set).
const TARGET_BUILD_S: f64 = 10.0;
/// Customization latency bar, applied to the 200×200 tier.
const TARGET_CUSTOMIZE_MS: f64 = 250.0;
/// Max CCH/bidirectional point-to-point median ratio on grid tiers.
const TARGET_P2P_RATIO: f64 = 1.5;

struct GraphReport {
    name: &'static str,
    nodes: usize,
    build_s: f64,
    customize_ms: f64,
    fill_arcs: u64,
    dijkstra_us: f64,
    bidir_us: f64,
    cch_us: f64,
    /// Whether the p2p ratio bar applies (grid tiers only: on the tiny
    /// ring-radial city both engines answer in a few µs, where the
    /// ratio is timer noise).
    gate_ratio: bool,
    /// Whether the build and customize budgets apply (200×200 tier).
    gate_budgets: bool,
}

impl GraphReport {
    fn p2p_ratio(&self) -> f64 {
        self.cch_us / self.bidir_us
    }

    fn within_target(&self) -> bool {
        let ratio_ok = !self.gate_ratio || self.p2p_ratio() <= TARGET_P2P_RATIO;
        let budgets_ok = !self.gate_budgets
            || (self.build_s <= TARGET_BUILD_S && self.customize_ms <= TARGET_CUSTOMIZE_MS);
        ratio_ok && budgets_ok
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(default_out);
    let runs: usize =
        std::env::var("MTSHARE_BENCH_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(1);
    let scale = std::env::var("MTSHARE_BENCH_SCALE").map(|v| v == "1").unwrap_or(false);
    let multicore = std::thread::available_parallelism().map(|p| p.get() > 1).unwrap_or(false);

    let medium =
        Arc::new(grid_city(&GridCityConfig { rows: 60, cols: 60, ..Default::default() }).unwrap());
    let chengdu = Arc::new(grid_city(&GridCityConfig::default()).unwrap());
    // The largest default graph: the scaled stand-in for the paper's
    // 214 k vertex Chengdu network, where the asymptotic gap shows.
    let large = Arc::new(grid_city(&GridCityConfig::large()).unwrap());

    // Non-grid synthetic shape: rings + radials stress the ordering
    // heuristics differently from the lattice tiers.
    let ring = Arc::new(ring_radial_city(&RingRadialConfig::default()).unwrap());

    let mut reports = vec![
        bench_graph("ring_radial", &ring, runs, false, false).0,
        bench_graph("grid_60x60", &medium, runs, true, false).0,
        bench_graph("grid_100x100", &chengdu, runs, true, false).0,
    ];
    let (r_large, cch_large) = bench_graph("grid_200x200", &large, runs, true, true);
    reports.push(r_large);
    if scale {
        let huge = Arc::new(grid_city(&GridCityConfig::huge()).unwrap());
        reports.push(bench_graph("grid_400x400", &huge, runs, true, false).0);
    }
    let (bucket_ms, per_pair_ms) = bench_many_to_many(&large, cch_large, runs);
    let mm_speedup = per_pair_ms / bucket_ms;

    let within_target = mm_speedup > 1.0 && reports.iter().all(GraphReport::within_target);

    let mut json = String::new();
    json.push_str(r#"{"schema":"mtshare-bench-routing/v3","graphs":["#);
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            r#"{{"name":"{}","nodes":{},"cch_build_s":{:.3},"customize_ms":{:.3},"cch_fill_arcs":{},"p2p_median_us":{{"dijkstra":{:.2},"bidirectional":{:.2},"cch":{:.2}}},"cch_vs_bidir":{:.2},"within_target":{}}}"#,
            r.name,
            r.nodes,
            r.build_s,
            r.customize_ms,
            r.fill_arcs,
            r.dijkstra_us,
            r.bidir_us,
            r.cch_us,
            r.p2p_ratio(),
            r.within_target(),
        );
    }
    let _ = write!(
        json,
        r#"],"many_to_many":{{"sources":{MM_SOURCES},"targets":1,"bucket_sweep_ms":{bucket_ms:.3},"per_pair_cached_ms":{per_pair_ms:.3},"speedup":{mm_speedup:.2}}},"target_build_s":{TARGET_BUILD_S},"target_customize_ms":{TARGET_CUSTOMIZE_MS},"target_p2p_ratio":{TARGET_P2P_RATIO},"multicore":{multicore},"within_target":{within_target}}}"#,
    );
    json.push('\n');
    std::fs::write(&out_path, &json).expect("write bench output");
    eprintln!("[routing_bench] many-to-many {mm_speedup:.2}× over per-pair CCH queries");
    eprintln!("[routing_bench] wrote {out_path}");
    if !within_target {
        eprintln!("[routing_bench] WARNING: below target");
    }
}

/// Build and customization times (best of `runs`) and median per-query
/// latency (µs) for each engine over the same random pairs; best-of-
/// `runs` medians are reported so scheduler noise only helps, never
/// hurts, the comparison.
fn bench_graph(
    name: &'static str,
    graph: &Arc<RoadNetwork>,
    runs: usize,
    gate_ratio: bool,
    gate_budgets: bool,
) -> (GraphReport, Arc<CustomizableCh>) {
    let pairs = random_pairs(graph.node_count(), PAIRS, 1);

    let mut build_s = f64::INFINITY;
    let mut built = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let cch = CustomizableCh::build(graph);
        build_s = build_s.min(t0.elapsed().as_secs_f64());
        built = Some(cch);
    }
    let cch = Arc::new(built.expect("runs >= 1"));
    let fill_arcs = cch.fill_arc_count();
    // Re-customization latency: the chaos-recovery path rebuilds the
    // whole metric from the (possibly traffic-shifted) graph.
    let mut customize_ms = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        cch.customize(graph);
        customize_ms = customize_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut d = Dijkstra::new(graph);
    let dijkstra_us = best_median(runs, &pairs, |(s, t)| {
        let _ = d.cost(graph, s, t);
    });
    let mut bi = BidirDijkstra::new(graph);
    let bidir_us = best_median(runs, &pairs, |(s, t)| {
        let _ = bi.cost(graph, s, t);
    });
    let mut q = CchQuery::new(cch.clone());
    let cch_us = best_median(runs, &pairs, |(s, t)| {
        let _ = q.cost(s, t);
    });
    let settled: usize = pairs
        .iter()
        .map(|&(s, t)| {
            let _ = q.cost(s, t);
            q.last_settled()
        })
        .sum::<usize>()
        / pairs.len();

    eprintln!(
        "[routing_bench] {name}: cch build {build_s:.2}s ({fill_arcs} fill arcs), customize \
         {customize_ms:.1}ms, p2p median dijkstra {dijkstra_us:.1}µs / bidir {bidir_us:.1}µs / \
         cch {cch_us:.1}µs (~{settled} settled)"
    );
    let report = GraphReport {
        name,
        nodes: graph.node_count(),
        build_s,
        customize_ms,
        fill_arcs,
        dijkstra_us,
        bidir_us,
        cch_us,
        gate_ratio,
        gate_budgets,
    };
    (report, cch)
}

/// One bucket sweep answering `MM_SOURCES` → 1 target, vs the same batch
/// issued as individual CCH-backed cache queries (ms). Both arms share
/// the warm hierarchy and run one untimed warm-up pass, so the
/// comparison is sweep-vs-queries — not first-touch allocation noise.
fn bench_many_to_many(
    graph: &Arc<RoadNetwork>,
    cch: Arc<CustomizableCh>,
    runs: usize,
) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(7);
    let n = graph.node_count() as u32;
    let sources: Vec<NodeId> = (0..MM_SOURCES).map(|_| NodeId(rng.gen_range(0..n))).collect();
    let target = NodeId(rng.gen_range(0..n));

    let mut buckets = CchBuckets::new(cch.clone());
    let _ = buckets.many_to_one(&sources, target); // warm-up, untimed
    let mut bucket_ms = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        let costs = buckets.many_to_one(&sources, target);
        assert_eq!(costs.len(), sources.len());
        bucket_ms = bucket_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let make_cache = || PathCache::with_backend(graph.clone(), RouterBackend::Cch(cch.clone()));
    let warm = make_cache(); // warm-up, untimed
    for &s in &sources {
        let _ = warm.cost(s, target);
    }
    let mut per_pair_ms = f64::INFINITY;
    for _ in 0..runs {
        let cache = make_cache(); // cold memo per run; the engine is warm
        let t0 = Instant::now();
        for &s in &sources {
            let _ = cache.cost(s, target);
        }
        per_pair_ms = per_pair_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    eprintln!(
        "[routing_bench] many-to-many {MM_SOURCES}×1: bucket sweep {bucket_ms:.2}ms, \
         per-pair cached {per_pair_ms:.2}ms"
    );
    (bucket_ms, per_pair_ms)
}

fn best_median(
    runs: usize,
    pairs: &[(NodeId, NodeId)],
    mut f: impl FnMut((NodeId, NodeId)),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let mut samples: Vec<f64> = pairs
            .iter()
            .map(|&p| {
                let t0 = Instant::now();
                f(p);
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        best = best.min(samples[samples.len() / 2]);
    }
    best
}

fn random_pairs(n_nodes: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (NodeId(rng.gen_range(0..n_nodes as u32)), NodeId(rng.gen_range(0..n_nodes as u32)))
        })
        .collect()
}

fn default_out() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("BENCH_routing.json")
        .to_string_lossy()
        .into_owned()
}
