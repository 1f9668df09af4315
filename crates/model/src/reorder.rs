//! Exhaustive schedule reordering — the oracle insertion-based scheduling
//! approximates.
//!
//! The paper notes that, in theory, "we should rearrange all events of a
//! taxi schedule" when a request joins, but rejects it for its cost
//! (Sec. IV-C2) and inserts while keeping the existing order. This module
//! implements the exact rearrangement for *small* schedules: enumerate
//! every precedence-valid permutation of the events (existing + the new
//! request's pair) and return the cheapest feasible one. Exponential — use
//! as a test oracle and for the insertion-gap ablation bench, never in the
//! dispatch path.

use crate::request::RideRequest;
use crate::schedule::{evaluate_schedule, EvalContext, EventKind, Schedule, ScheduleEvent};
use crate::taxi::Taxi;
use crate::{Time, World};
use mtshare_road::NodeId;

/// Result of the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct BestReorder {
    /// The cheapest feasible full schedule (existing events freely
    /// reordered, precedence preserved).
    pub schedule: Schedule,
    /// Added route cost vs. the taxi's current plan, seconds.
    pub delta_s: f64,
}

/// Hard cap on events considered (9! permutations ≈ 360 k).
const MAX_EVENTS: usize = 9;

/// Exhaustively finds the cheapest feasible schedule serving the taxi's
/// committed requests plus `req`. Returns `None` when no feasible ordering
/// exists or the schedule exceeds the 9-event cap (9! permutations).
pub fn best_reordering(
    taxi: &Taxi,
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    mut cost: impl FnMut(NodeId, NodeId) -> Option<f64>,
) -> Option<BestReorder> {
    let mut events: Vec<ScheduleEvent> = taxi.schedule.events().to_vec();
    events.push(ScheduleEvent { kind: EventKind::Pickup, request: req.id, node: req.origin });
    events.push(ScheduleEvent { kind: EventKind::Dropoff, request: req.id, node: req.destination });
    if events.len() > MAX_EVENTS {
        return None;
    }

    // Current remaining plan cost (for the delta).
    let mut remaining = 0.0;
    {
        let mut from = taxi.position_at(now);
        for ev in taxi.schedule.events() {
            remaining += cost(from, ev.node)?;
            from = ev.node;
        }
    }

    let requests = world.requests;
    let lookup = |r| requests.get(r);
    let ectx = EvalContext {
        start_node: taxi.position_at(now),
        start_time: now,
        initial_load: taxi.onboard_load(world.requests),
        capacity: taxi.capacity as u32,
        requests: &lookup,
    };

    let n = events.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut best: Option<(f64, Vec<usize>)> = None;

    // DFS over permutations with precedence pruning: a drop-off may only
    // follow its pick-up (events of onboard passengers have no pick-up in
    // the list, so they are always placeable).
    fn dfs(
        events: &[ScheduleEvent],
        order: &mut Vec<usize>,
        used: &mut [bool],
        best: &mut Option<(f64, Vec<usize>)>,
        evaluate: &mut dyn FnMut(&[usize]) -> Option<f64>,
    ) {
        let n = events.len();
        if order.len() == n {
            if let Some(total) = evaluate(order) {
                if best.as_ref().is_none_or(|(b, _)| total < *b) {
                    *best = Some((total, order.clone()));
                }
            }
            return;
        }
        for i in 0..n {
            if used[i] {
                continue;
            }
            if events[i].kind == EventKind::Dropoff {
                // Its pickup (if present) must already be placed.
                let has_pickup = events
                    .iter()
                    .enumerate()
                    .find(|(_, e)| e.kind == EventKind::Pickup && e.request == events[i].request)
                    .map(|(j, _)| j);
                if let Some(j) = has_pickup {
                    if !order.contains(&j) {
                        continue;
                    }
                }
            }
            used[i] = true;
            order.push(i);
            dfs(events, order, used, best, evaluate);
            order.pop();
            used[i] = false;
        }
    }

    let mut evaluate = |order: &[usize]| -> Option<f64> {
        let mut s = Schedule::new();
        for &i in order {
            s.push(events[i]);
        }
        evaluate_schedule(&s, &ectx, &mut cost).map(|e| e.total_cost_s)
    };
    dfs(&events, &mut order, &mut used, &mut best, &mut evaluate);

    best.map(|(total, order)| {
        let mut schedule = Schedule::new();
        for &i in &order {
            schedule.push(events[i]);
        }
        BestReorder { schedule, delta_s: total - remaining }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::best_insertion;
    use crate::request::{RequestId, RequestStore};
    use crate::taxi::TaxiId;
    use mtshare_road::{grid_city, GridCityConfig};
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

        fn world<'a>(&'a self, taxis: &'a [Taxi]) -> World<'a> {
            World { graph: &self.graph, cache: &self.cache, taxis, requests: &self.requests }
        }
    }

    #[test]
    fn reordering_never_worse_than_insertion() {
        let mut f = Fx::new();
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        // Existing schedule of two requests, inserted back-to-back.
        for (o, d) in [(40u32, 360u32), (23, 340)] {
            let r = f.req(o, d, 8.0);
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&r, m, m + 1);
            taxi.assigned.push(r.id);
        }
        let probe = f.req(60, 320, 8.0);
        let taxis = [taxi];
        let world = f.world(&taxis);
        let ins = best_insertion(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b));
        let reo = best_reordering(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b));
        let (ins, reo) = (ins.expect("feasible"), reo.expect("feasible"));
        assert!(
            reo.delta_s <= ins.delta_s + 1e-6,
            "reordering {} must not exceed insertion {}",
            reo.delta_s,
            ins.delta_s
        );
        assert!(reo.schedule.precedence_ok());
        assert_eq!(reo.schedule.len(), taxis[0].schedule.len() + 2);
    }

    #[test]
    fn vacant_taxi_reordering_equals_insertion() {
        let mut f = Fx::new();
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        let probe = f.req(21, 200, 2.0);
        let taxis = [taxi];
        let world = f.world(&taxis);
        let ins =
            best_insertion(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b)).unwrap();
        let reo =
            best_reordering(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b)).unwrap();
        assert!((ins.delta_s - reo.delta_s).abs() < 1e-6);
    }

    #[test]
    fn infeasible_for_both_when_deadline_impossible() {
        let mut f = Fx::new();
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(399));
        let probe = f.req(0, 20, 1.0); // zero slack, taxi at far corner
        let taxis = [taxi];
        let world = f.world(&taxis);
        assert!(best_insertion(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b)).is_none());
        assert!(
            best_reordering(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b)).is_none()
        );
    }

    #[test]
    fn oversized_schedules_refused() {
        let mut f = Fx::new();
        let mut taxi = Taxi::new(TaxiId(0), 8, NodeId(0));
        for k in 0..4u32 {
            let r = f.req(20 + k, 300 + k, 5.0);
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&r, m, m + 1);
        }
        let probe = f.req(60, 320, 5.0);
        let taxis = [taxi];
        let world = f.world(&taxis);
        // 8 existing + 2 new = 10 > MAX_EVENTS.
        assert!(
            best_reordering(&taxis[0], &probe, 0.0, &world, |a, b| f.cache.cost(a, b)).is_none()
        );
    }
}
