//! Shared test fixture for the baseline schemes.

use mtshare_model::{
    DispatchOutcome, DispatchScheme, RequestId, RequestStore, RideRequest, Taxi, TaxiId,
    TimedRoute, World,
};
use mtshare_road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
use mtshare_routing::PathCache;
use std::sync::Arc;

pub(crate) struct Bench {
    pub graph: Arc<RoadNetwork>,
    pub cache: PathCache,
    pub taxis: Vec<Taxi>,
    pub requests: RequestStore,
}

impl Bench {
    pub fn new() -> Self {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        Self { graph, cache, taxis: Vec::new(), requests: RequestStore::new() }
    }

    pub fn add_taxi(&mut self, at: NodeId) -> TaxiId {
        let id = TaxiId(self.taxis.len() as u32);
        self.taxis.push(Taxi::new(id, 4, at));
        id
    }

    pub fn world(&self) -> World<'_> {
        World {
            graph: &self.graph,
            cache: &self.cache,
            taxis: &self.taxis,
            requests: &self.requests,
        }
    }

    pub fn make_request(&mut self, origin: u32, dest: u32, release: f64, rho: f64) -> RideRequest {
        let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
        self.cache.pin(NodeId(origin));
        self.cache.pin(NodeId(dest));
        let req = RideRequest {
            id: RequestId(self.requests.len() as u32),
            release_time: release,
            origin: NodeId(origin),
            destination: NodeId(dest),
            passengers: 1,
            deadline: release + direct * rho,
            direct_cost_s: direct,
            offline: false,
        };
        self.requests.push(req.clone());
        req
    }

    pub fn install(&self, scheme: &mut dyn DispatchScheme) {
        scheme.install(&self.world());
    }

    pub fn dispatch(
        &self,
        scheme: &mut dyn DispatchScheme,
        req: &RideRequest,
        now: f64,
    ) -> DispatchOutcome {
        let world = World {
            graph: &self.graph,
            cache: &self.cache,
            taxis: &self.taxis,
            requests: &self.requests,
        };
        scheme.dispatch(req, now, &world)
    }

    pub fn dispatch_and_commit(
        &mut self,
        scheme: &mut dyn DispatchScheme,
        req: &RideRequest,
        now: f64,
    ) -> bool {
        let out = self.dispatch(scheme, req, now);
        match out.assignment {
            None => false,
            Some(a) => {
                let t = &mut self.taxis[a.taxi.index()];
                let pos = t.position_at(now);
                let route = TimedRoute::build_on(&self.graph, pos, now, &a.legs, &a.schedule);
                t.assigned.push(req.id);
                t.location = pos;
                t.location_time = now;
                t.set_plan(a.schedule, route, now);
                let world = World {
                    graph: &self.graph,
                    cache: &self.cache,
                    taxis: &self.taxis,
                    requests: &self.requests,
                };
                scheme.after_assign(&self.taxis[a.taxi.index()], &world);
                true
            }
        }
    }
}
