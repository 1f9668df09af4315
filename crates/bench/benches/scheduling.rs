//! Scheduling ablation (DESIGN.md decision #4): the O(m²) insertion DP vs
//! brute-force enumeration vs exhaustive reordering, as schedule depth
//! grows — quantifying what the paper's insertion heuristic buys and
//! costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtshare_model::{
    best_insertion, best_reordering, evaluate_schedule, EvalContext, RequestId, RequestStore,
    RideRequest, Taxi, TaxiId, World,
};
use mtshare_road::{grid_city, GridCityConfig, NodeId};
use mtshare_routing::PathCache;
use std::sync::Arc;

struct Fx {
    graph: Arc<mtshare_road::RoadNetwork>,
    cache: PathCache,
    requests: RequestStore,
}

impl Fx {
    fn new() -> Self {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        Self { graph, cache, requests: RequestStore::new() }
    }

    fn req(&mut self, o: u32, d: u32, rho: f64) -> RideRequest {
        let direct = self.cache.cost(NodeId(o), NodeId(d)).unwrap();
        self.cache.pin(NodeId(o));
        self.cache.pin(NodeId(d));
        let r = RideRequest {
            id: RequestId(self.requests.len() as u32),
            release_time: 0.0,
            origin: NodeId(o),
            destination: NodeId(d),
            passengers: 1,
            deadline: direct * rho,
            direct_cost_s: direct,
            offline: false,
        };
        self.requests.push(r.clone());
        r
    }
}

fn busy_taxi(f: &mut Fx, depth: usize) -> Taxi {
    let mut taxi = Taxi::new(TaxiId(0), 8, NodeId(0));
    let chain = [(20u32, 340u32), (42, 320), (64, 300)];
    for &(o, d) in chain.iter().take(depth) {
        let r = f.req(o, d, 10.0);
        let m = taxi.schedule.len();
        taxi.schedule = taxi.schedule.with_insertion(&r, m, m + 1);
        taxi.assigned.push(r.id);
    }
    taxi
}

fn brute_force(taxi: &Taxi, req: &RideRequest, world: &World<'_>) -> Option<f64> {
    let requests = world.requests;
    let lookup = |r| requests.get(r);
    let ectx = EvalContext {
        start_node: taxi.position_at(0.0),
        start_time: 0.0,
        initial_load: 0,
        capacity: taxi.capacity as u32,
        requests: &lookup,
    };
    let m = taxi.schedule.len();
    let mut best = None;
    for i in 0..=m {
        for j in (i + 1)..=(m + 1) {
            let s = taxi.schedule.with_insertion(req, i, j);
            if let Some(e) = evaluate_schedule(&s, &ectx, |a, b| world.cache.cost(a, b)) {
                if best.is_none_or(|b| e.total_cost_s < b) {
                    best = Some(e.total_cost_s);
                }
            }
        }
    }
    best
}

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("insertion_operator");
    for depth in [0usize, 1, 2, 3] {
        let mut f = Fx::new();
        let taxi = busy_taxi(&mut f, depth);
        let probe = f.req(86, 280, 10.0);
        let taxis = [taxi];

        group.bench_with_input(BenchmarkId::new("slack_dp", depth), &depth, |b, _| {
            let world =
                World { graph: &f.graph, cache: &f.cache, taxis: &taxis, requests: &f.requests };
            b.iter(|| best_insertion(&taxis[0], &probe, 0.0, &world, |x, y| world.cache.cost(x, y)))
        });
        group.bench_with_input(BenchmarkId::new("brute_force", depth), &depth, |b, _| {
            let world =
                World { graph: &f.graph, cache: &f.cache, taxis: &taxis, requests: &f.requests };
            b.iter(|| brute_force(&taxis[0], &probe, &world))
        });
        group.bench_with_input(BenchmarkId::new("exhaustive_reorder", depth), &depth, |b, _| {
            let world =
                World { graph: &f.graph, cache: &f.cache, taxis: &taxis, requests: &f.requests };
            b.iter(|| {
                best_reordering(&taxis[0], &probe, 0.0, &world, |x, y| world.cache.cost(x, y))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduling);
criterion_main!(benches);
