//! Quickstart: build a city, train mT-Share, dispatch a few shared rides.
//!
//! Run with: `cargo run --release --example quickstart`

use mt_share::core::{MobilityContext, MtShare, MtShareConfig, PartitionStrategy};
use mt_share::model::{
    DispatchScheme, RequestId, RequestStore, RideRequest, Taxi, TaxiId, TimedRoute, World,
};
use mt_share::road::{grid_city, GridCityConfig, NodeId};
use mt_share::routing::PathCache;
use mt_share::sim::{WorkloadConfig, WorkloadGenerator};
use std::sync::Arc;

fn main() {
    // 1. A synthetic city (stand-in for OpenStreetMap Chengdu).
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).expect("valid config"));
    println!("city: {} intersections, {} road segments", graph.node_count(), graph.edge_count());

    // 2. Historical trips train the bipartite map partitioning and the
    //    transition model (Sec. IV-B1 of the paper).
    let mut demand = WorkloadGenerator::new(graph.clone(), WorkloadConfig::default());
    let historical = demand.historical_trips(3000);
    let ctx = MobilityContext::build(&graph, &historical, 16, 4, 7, PartitionStrategy::Bipartite);
    println!("bipartite partitioning: {} partitions", ctx.kappa());

    // 3. A small fleet and the shared routing infrastructure.
    let cache = PathCache::new(graph.clone());
    let mut taxis: Vec<Taxi> =
        (0..6).map(|i| Taxi::new(TaxiId(i), 4, NodeId(i * 61 % 400))).collect();
    let mut requests = RequestStore::new();
    let mut scheme = MtShare::new(&graph, ctx, MtShareConfig::default(), taxis.len());
    {
        let world = World { graph: &graph, cache: &cache, taxis: &taxis, requests: &requests };
        scheme.install(&world);
    }

    // 4. Dispatch a stream of ride requests.
    let trips = [(0u32, 399u32), (21, 380), (44, 360), (399, 0), (120, 310)];
    for (k, (o, d)) in trips.iter().enumerate() {
        let now = k as f64 * 60.0;
        let direct = cache.cost(NodeId(*o), NodeId(*d)).expect("connected city");
        cache.pin(NodeId(*o));
        cache.pin(NodeId(*d));
        let req = RideRequest {
            id: RequestId(requests.len() as u32),
            release_time: now,
            origin: NodeId(*o),
            destination: NodeId(*d),
            passengers: 1,
            deadline: now + direct * 1.3,
            direct_cost_s: direct,
            offline: false,
        };
        requests.push(req.clone());

        let outcome = {
            let world = World { graph: &graph, cache: &cache, taxis: &taxis, requests: &requests };
            scheme.dispatch(&req, now, &world)
        };
        match outcome.assignment {
            Some(a) => {
                println!(
                    "{}: {} -> {} served by {} (detour {:.1} min, {} candidates, {} events scheduled)",
                    req.id,
                    req.origin,
                    req.destination,
                    a.taxi,
                    a.detour_cost_s / 60.0,
                    outcome.candidates_examined,
                    a.schedule.len(),
                );
                // Commit the plan so the next request sees the taxi busy.
                let t = &mut taxis[a.taxi.index()];
                let pos = t.position_at(now);
                let route = TimedRoute::build_on(&graph, pos, now, &a.legs, &a.schedule);
                t.assigned.push(req.id);
                t.set_plan(a.schedule, route, now);
                let world =
                    World { graph: &graph, cache: &cache, taxis: &taxis, requests: &requests };
                scheme.after_assign(&taxis[a.taxi.index()], &world);
            }
            None => println!("{}: rejected ({} candidates)", req.id, outcome.candidates_examined),
        }
    }
}
