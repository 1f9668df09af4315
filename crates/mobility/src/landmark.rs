//! The landmark graph `G_ℓ` (Def. 8) built over a map partitioning.
//!
//! Vertices are partition landmarks; two landmarks are connected when their
//! partitions are adjacent (some road edge crosses between them). Exact
//! landmark↔landmark and landmark↔vertex travel costs come from dense
//! tables — one forward and one backward one-to-all Dijkstra per
//! landmark — which is what lets partition filtering (Alg. 2) estimate
//! shortest-path lengths without touching the full graph.

use crate::partition::{MapPartitioning, PartitionId};
use mtshare_road::{NodeId, RoadNetwork};
use mtshare_routing::Dijkstra;
use rustc_hash::FxHashSet;

/// Landmark graph with precomputed cost tables.
#[derive(Debug, Clone)]
pub struct LandmarkGraph {
    adjacency: Vec<Vec<PartitionId>>,
    /// `from_rows[p][v]` = cost from partition `p`'s landmark to vertex
    /// `v` (`f32::INFINITY` when unreachable).
    from_rows: Vec<Vec<f32>>,
    /// `to_rows[p][v]` = cost from vertex `v` to partition `p`'s landmark.
    to_rows: Vec<Vec<f32>>,
    landmark_of: Vec<NodeId>,
}

impl LandmarkGraph {
    /// Builds the landmark graph for `partitioning` over `graph`.
    pub fn build(graph: &RoadNetwork, partitioning: &MapPartitioning) -> Self {
        let k = partitioning.len();
        let mut adj_sets: Vec<FxHashSet<u16>> = vec![FxHashSet::default(); k];
        for u in graph.nodes() {
            let pu = partitioning.partition_of(u);
            for (v, _) in graph.out_edges(u) {
                let pv = partitioning.partition_of(v);
                if pu != pv {
                    adj_sets[pu.index()].insert(pv.0);
                    adj_sets[pv.index()].insert(pu.0);
                }
            }
        }
        let adjacency = adj_sets
            .into_iter()
            .map(|s| {
                let mut v: Vec<PartitionId> = s.into_iter().map(PartitionId).collect();
                v.sort();
                v
            })
            .collect();
        let landmark_of = partitioning.landmarks().to_vec();
        // Landmarks are members of disjoint partitions, hence distinct:
        // one row pair per partition.
        let mut engine = Dijkstra::new(graph);
        let (mut from_rows, mut to_rows) = (Vec::with_capacity(k), Vec::with_capacity(k));
        for &l in &landmark_of {
            let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
            engine.one_to_all(graph, l, &mut fwd);
            engine.all_to_one(graph, l, &mut bwd);
            from_rows.push(fwd);
            to_rows.push(bwd);
        }
        Self { adjacency, from_rows, to_rows, landmark_of }
    }

    /// Number of partitions / landmarks.
    #[inline]
    pub fn len(&self) -> usize {
        self.landmark_of.len()
    }

    /// Whether the landmark graph is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.landmark_of.is_empty()
    }

    /// Partitions adjacent to `p`.
    #[inline]
    pub fn neighbors(&self, p: PartitionId) -> &[PartitionId] {
        &self.adjacency[p.index()]
    }

    /// Landmark vertex of partition `p`.
    #[inline]
    pub fn landmark(&self, p: PartitionId) -> NodeId {
        self.landmark_of[p.index()]
    }

    /// Travel cost between the landmarks of two partitions, seconds.
    #[inline]
    pub fn cost_between(&self, from: PartitionId, to: PartitionId) -> f32 {
        self.cost_from_landmark(from, self.landmark_of[to.index()])
    }

    /// Travel cost from partition `p`'s landmark to any vertex.
    #[inline]
    pub fn cost_from_landmark(&self, p: PartitionId, v: NodeId) -> f32 {
        self.from_rows[p.index()][v.index()]
    }

    /// Travel cost from any vertex to partition `p`'s landmark.
    #[inline]
    pub fn cost_to_landmark(&self, v: NodeId, p: PartitionId) -> f32 {
        self.to_rows[p.index()][v.index()]
    }

    /// Approximate resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.adjacency.iter().map(|a| a.len() * 2).sum::<usize>()
            + self.from_rows.iter().chain(&self.to_rows).map(|r| r.len() * 4).sum::<usize>()
            + self.landmark_of.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_partition::grid_partition;
    use mtshare_road::{grid_city, GridCityConfig};

    fn setup() -> (RoadNetwork, MapPartitioning, LandmarkGraph) {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let p = grid_partition(&g, 16);
        let lg = LandmarkGraph::build(&g, &p);
        (g, p, lg)
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let (_, p, lg) = setup();
        for q in p.partitions() {
            for &r in lg.neighbors(q) {
                assert_ne!(q, r);
                assert!(lg.neighbors(r).contains(&q), "{q} -> {r} not symmetric");
            }
        }
    }

    #[test]
    fn grid_partitions_have_neighbors() {
        let (_, p, lg) = setup();
        assert!(!lg.is_empty());
        assert_eq!(lg.len(), p.len());
        for q in p.partitions() {
            assert!(!lg.neighbors(q).is_empty(), "{q} isolated");
        }
    }

    #[test]
    fn landmark_costs_are_exact() {
        let (g, p, lg) = setup();
        let mut d = Dijkstra::new(&g);
        let parts: Vec<_> = p.partitions().collect();
        for &a in parts.iter().take(4) {
            for &b in parts.iter().rev().take(4) {
                let want = d.cost(&g, lg.landmark(a), lg.landmark(b)).unwrap();
                assert!((lg.cost_between(a, b) as f64 - want).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn vertex_to_landmark_costs_are_exact() {
        let (g, p, lg) = setup();
        let mut d = Dijkstra::new(&g);
        let q = p.partitions().next().unwrap();
        for v in [NodeId(3), NodeId(250), NodeId(399)] {
            let want_to = d.cost(&g, v, lg.landmark(q)).unwrap();
            assert!((lg.cost_to_landmark(v, q) as f64 - want_to).abs() < 1e-2);
            let want_from = d.cost(&g, lg.landmark(q), v).unwrap();
            assert!((lg.cost_from_landmark(q, v) as f64 - want_from).abs() < 1e-2);
        }
    }

    #[test]
    fn memory_positive() {
        let (_, _, lg) = setup();
        assert!(lg.memory_bytes() > 0);
    }
}
