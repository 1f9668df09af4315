//! Shared shortest-path cost cache.
//!
//! The paper precomputes the all-pairs shortest paths of the Chengdu graph
//! and serves them from memory so that every scheme enjoys O(1) queries
//! (Sec. IV-C, V-A4). All-pairs storage is infeasible beyond toy graphs, so
//! [`PathCache`] provides the equivalent amortized behaviour in two layers,
//! shared by *all* schemes so the response-time comparison stays fair:
//!
//! - **Pinned vectors.** Insertion-based scheduling only ever touches a
//!   small hot set: legs run *from* a taxi position or a scheduled event
//!   node *to* another event node, and event nodes are exactly the
//!   origins/destinations of active requests. [`PathCache::pin`] stores,
//!   per hot node, one forward and one backward one-to-all vector (two
//!   Dijkstras), reference-counted, so while a request is active every leg
//!   cost involving its endpoints is a single array read.
//!   [`PathCache::batch`] answers a burst of such reads under one lock.
//! - **Memo.** Any other pair is a point-to-point query against the exact
//!   backend, memoized in lock-striped shards keyed by the source node so
//!   the speculative batch-dispatch workers can probe and fill it
//!   concurrently. Each shard owns its own search engine (per-query
//!   scratch state), so a miss never blocks other shards.
//!
//! [`PathCache::cost`] checks, in order: `a == b`, the pinned backward
//! vector of `b`, the pinned forward vector of `a`, the memo, and finally
//! the backend.
//!
//! # Exact, backend-independent answers
//!
//! Cost misses are answered by a [`RouterBackend`]: plain bidirectional
//! Dijkstra (the default) or a [`CustomizableCh`]. Edge costs live on the
//! dyadic grid (`mtshare_road::COST_QUANTUM_S`), so any path under 2^24
//! quanta (about 72 h) has an exact `f32` cost: the pinned vectors,
//! bidirectional Dijkstra and the hierarchy return the *same bits* for a
//! pair. Hence an answer is a function of `(a, b)` and the metric alone —
//! independent of the backend, of which nodes happen to be pinned, of
//! lookup history and of thread interleaving — and switching backends can
//! never change simulator behaviour, only speed.
//!
//! Paths always come from bidirectional Dijkstra, regardless of backend:
//! when several shortest paths tie, a hierarchy and bidirectional search
//! can legitimately pick different (equal-cost) vertex sequences, and a
//! different committed route would change taxi trajectories and therefore
//! trace bytes. Costs are the hot query mix; paths are only materialized
//! when a schedule commits.
//!
//! # Re-customization
//!
//! A regional traffic shift changes the metric mid-run. Both backends
//! support [`PathCache::recustomize`]: swap in the shifted graph
//! (re-customizing the CCH metric in milliseconds), clear the memo,
//! recompute every pinned vector, and every subsequent answer — cost,
//! pinned read or path — is exact on the *shifted* graph.

use crate::bidirectional::BidirDijkstra;
use crate::cch::{CchQuery, CchStats, CustomizableCh};
use crate::dijkstra::Dijkstra;
use crate::path::Path;
use mtshare_road::{NodeId, RoadNetwork};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// The exact engine a [`PathCache`] uses to answer cost misses.
#[derive(Debug, Clone, Default)]
pub enum RouterBackend {
    /// Bidirectional Dijkstra, no preprocessing (the seed behaviour).
    #[default]
    Bidir,
    /// Customizable contraction hierarchy (skeleton built from the same
    /// [`RoadNetwork`] the cache serves; metric re-customizable at run
    /// time via [`PathCache::recustomize`]).
    Cch(Arc<CustomizableCh>),
}

impl RouterBackend {
    /// Stable name for CLI/observability output.
    pub fn name(&self) -> &'static str {
        match self {
            RouterBackend::Bidir => "bidir",
            RouterBackend::Cch(_) => "cch",
        }
    }
}

/// Number of lock stripes. Power of two so the shard pick is a mask; 16
/// comfortably exceeds the worker counts the batch dispatcher uses.
const SHARDS: usize = 16;

/// Query and pin counters of a [`PathCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that ran a graph search.
    pub misses: u64,
    /// Queries answered from a pinned vector.
    pub vector_hits: u64,
    /// One-to-all computations performed for pins (two per pinned node,
    /// and two per pinned node at each re-customization).
    pub pin_computes: u64,
    /// Pinned vectors freed because their refcount dropped to zero.
    pub pin_evictions: u64,
}

impl CacheStats {
    /// Memo hit ratio in [0, 1]; 0 when no memo query was made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheShard {
    costs: FxHashMap<u64, f32>,
    engine: BidirDijkstra,
    /// CCH query scratch when the backend is [`RouterBackend::Cch`].
    cch: Option<CchQuery>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct PinnedEntry {
    refs: u32,
    /// Forward: cost from the pinned node to every vertex.
    fwd: Vec<f32>,
    /// Backward: cost from every vertex to the pinned node.
    bwd: Vec<f32>,
}

#[derive(Debug, Default)]
struct PinCounters {
    vector_hits: AtomicU64,
    pin_computes: AtomicU64,
    evictions: AtomicU64,
}

/// Thread-safe shortest-path cost cache over a road network: pinned
/// hot-node vectors in front of a memoizing exact backend.
///
/// Costs are cached until the metric changes: the paper assumes static
/// traffic (Sec. III-A), and under `--disruptions` a regional traffic
/// shift triggers [`PathCache::recustomize`], which clears the memo and
/// recomputes the pins. Paths are *not* cached — they are only needed when
/// a schedule is actually committed, which is orders of magnitude rarer
/// than cost probes.
///
/// Clones share all state.
#[derive(Debug, Clone)]
pub struct PathCache {
    /// The graph answers are exact on *right now* — swapped wholesale by
    /// [`PathCache::recustomize`]; readers snapshot the `Arc`.
    live: Arc<RwLock<Arc<RoadNetwork>>>,
    shards: Arc<[Mutex<CacheShard>; SHARDS]>,
    cch: Option<Arc<CustomizableCh>>,
    /// Pinned vectors by node id. Reads share; pins/unpins are rare and
    /// exclusive.
    pinned: Arc<RwLock<FxHashMap<u32, PinnedEntry>>>,
    /// Scratch engine for pin computations (pins are serialized anyway).
    pin_engine: Arc<Mutex<Dijkstra>>,
    pin_stats: Arc<PinCounters>,
}

impl PathCache {
    /// Creates an empty cache over `graph` with the default
    /// ([`RouterBackend::Bidir`]) backend.
    pub fn new(graph: Arc<RoadNetwork>) -> Self {
        Self::with_backend(graph, RouterBackend::Bidir)
    }

    /// Creates an empty cache over `graph` answering misses with `backend`.
    pub fn with_backend(graph: Arc<RoadNetwork>, backend: RouterBackend) -> Self {
        let cch = match &backend {
            RouterBackend::Bidir => None,
            RouterBackend::Cch(cch) => {
                assert_eq!(
                    cch.graph_digest(),
                    graph.digest(),
                    "customizable hierarchy was built for a different graph"
                );
                assert_eq!(
                    cch.metric_graph_digest(),
                    graph.digest(),
                    "customizable hierarchy carries a metric for a different graph"
                );
                Some(cch.clone())
            }
        };
        let shards = std::array::from_fn(|_| {
            Mutex::new(CacheShard {
                costs: FxHashMap::default(),
                engine: BidirDijkstra::new(&graph),
                cch: cch.as_ref().map(|h| CchQuery::new(h.clone())),
                hits: 0,
                misses: 0,
            })
        });
        Self {
            pin_engine: Arc::new(Mutex::new(Dijkstra::new(&graph))),
            live: Arc::new(RwLock::new(graph)),
            shards: Arc::new(shards),
            cch,
            pinned: Arc::default(),
            pin_stats: Arc::default(),
        }
    }

    /// Name of the active backend (`"bidir"` or `"cch"`).
    pub fn backend_name(&self) -> &'static str {
        if self.cch.is_some() {
            "cch"
        } else {
            "bidir"
        }
    }

    /// The shared hierarchy when the backend is [`RouterBackend::Cch`].
    pub fn customizable(&self) -> Option<&Arc<CustomizableCh>> {
        self.cch.as_ref()
    }

    /// CCH query/customization counters, when the backend is
    /// [`RouterBackend::Cch`].
    pub fn cch_stats(&self) -> Option<CchStats> {
        self.cch.as_ref().map(|h| h.stats())
    }

    /// Swaps the metric: all subsequent answers are exact on `graph`
    /// (same topology as the current graph, different edge costs — e.g.
    /// from [`mtshare_road::apply_traffic_shifts`]). Re-customizes the
    /// CCH metric when that backend is active, clears the memo, and
    /// recomputes every pinned vector eagerly in ascending node-id order.
    /// Refcounts survive, so active requests keep their O(1) fast path.
    /// Returns the CCH metric generation, if any.
    ///
    /// Answers already handed out were exact on the previous metric;
    /// in-flight probes in other threads may still read it — callers
    /// serialize re-customization against dispatch (the simulator does
    /// this naturally: shifts apply between events).
    ///
    /// # Panics
    /// Panics when `graph` has a different vertex count.
    pub fn recustomize(&self, graph: Arc<RoadNetwork>) -> Option<u64> {
        assert_eq!(
            graph.node_count(),
            self.live.read().node_count(),
            "re-customization graph must share the topology"
        );
        let generation = self.cch.as_ref().map(|h| h.customize(&graph));
        *self.live.write() = graph.clone();
        for shard in self.shards.iter() {
            shard.lock().costs.clear();
        }
        let mut pinned = self.pinned.write();
        let mut nodes: Vec<u32> = pinned.keys().copied().collect();
        nodes.sort_unstable();
        let mut engine = self.pin_engine.lock();
        for v in nodes {
            let e = pinned.get_mut(&v).expect("key collected above");
            engine.one_to_all(&graph, NodeId(v), &mut e.fwd);
            engine.all_to_one(&graph, NodeId(v), &mut e.bwd);
            self.pin_stats.pin_computes.fetch_add(2, Relaxed);
        }
        generation
    }

    /// The road network answers are currently exact on (a snapshot: the
    /// cache may re-customize after this returns).
    #[inline]
    pub fn graph(&self) -> Arc<RoadNetwork> {
        self.live.read().clone()
    }

    #[inline]
    fn key(a: NodeId, b: NodeId) -> u64 {
        ((a.0 as u64) << 32) | b.0 as u64
    }

    /// Stripe by source node: batch workers probing different requests'
    /// legs mostly start from distinct sources, so they land on distinct
    /// locks.
    #[inline]
    fn shard(&self, a: NodeId) -> &Mutex<CacheShard> {
        &self.shards[a.0 as usize & (SHARDS - 1)]
    }

    /// Pins `node`, computing its forward + backward distance vectors if
    /// not already resident. Pins are reference-counted.
    pub fn pin(&self, node: NodeId) {
        let mut pinned = self.pinned.write();
        if let Some(e) = pinned.get_mut(&node.0) {
            e.refs += 1;
            return;
        }
        let graph = self.graph();
        let mut fwd = Vec::new();
        let mut bwd = Vec::new();
        {
            let mut engine = self.pin_engine.lock();
            engine.one_to_all(&graph, node, &mut fwd);
            engine.all_to_one(&graph, node, &mut bwd);
        }
        self.pin_stats.pin_computes.fetch_add(2, Relaxed);
        pinned.insert(node.0, PinnedEntry { refs: 1, fwd, bwd });
    }

    /// Releases one pin of `node`; vectors are freed when the count drops
    /// to zero. Unpinning an unpinned node is a no-op.
    pub fn unpin(&self, node: NodeId) {
        let mut pinned = self.pinned.write();
        if let Some(e) = pinned.get_mut(&node.0) {
            e.refs -= 1;
            if e.refs == 0 {
                pinned.remove(&node.0);
                self.pin_stats.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Number of currently pinned nodes.
    pub fn pinned_count(&self) -> usize {
        self.pinned.read().len()
    }

    /// Shortest-path cost in seconds from `a` to `b`, or `None` when
    /// unreachable: a pinned-vector read when either endpoint is pinned,
    /// else a memoized backend query (unreachability is memoized too).
    pub fn cost(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if a == b {
            return Some(0.0);
        }
        // Recursive: `cost` may run inside `batch`, which holds a read.
        if let Some(c) = pinned_lookup(&self.pinned.read_recursive(), a, b) {
            self.pin_stats.vector_hits.fetch_add(1, Relaxed);
            return finite(c);
        }
        let key = Self::key(a, b);
        let mut shard = self.shard(a).lock();
        if let Some(&c) = shard.costs.get(&key) {
            shard.hits += 1;
            return finite(c);
        }
        shard.misses += 1;
        let cost = if let Some(q) = shard.cch.as_mut() {
            q.cost(a, b)
        } else {
            let graph = self.live.read().clone();
            shard.engine.cost(&graph, a, b)
        };
        shard.costs.insert(key, cost.map_or(f32::INFINITY, |c| c as f32));
        cost
    }

    /// Runs `f` with a [`PinnedReader`]: a borrowed view of the pinned
    /// vectors that answers the pinned part of [`PathCache::cost`] without
    /// re-acquiring the lock or touching an atomic per query. Vector hits
    /// are counted locally and folded into the stats once at the end.
    ///
    /// Intended for query bursts that probe many legs against the same
    /// pin set — e.g. scoring one insertion candidate. The read lock is
    /// held for the whole closure, recursion-tolerant, so `f` may fall
    /// back to `cost()` for unpinned pairs; callers must not
    /// `pin`/`unpin` from inside `f` or concurrently with it (dispatch
    /// already orders all pinning before scoring).
    pub fn batch<R>(&self, f: impl FnOnce(&mut PinnedReader<'_>) -> R) -> R {
        let mut reader = PinnedReader { pinned: self.pinned.read_recursive(), hits: 0 };
        let r = f(&mut reader);
        if reader.hits > 0 {
            self.pin_stats.vector_hits.fetch_add(reader.hits, Relaxed);
        }
        r
    }

    /// Shortest path from `a` to `b` (computed fresh; its cost is memoized).
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Path> {
        let graph = self.live.read().clone();
        let mut shard = self.shard(a).lock();
        let p = shard.engine.path(&graph, a, b)?;
        let key = Self::key(a, b);
        shard.costs.entry(key).or_insert(p.cost_s as f32);
        Some(p)
    }

    /// Pre-warms the memo with all pairs from `sources` × `targets`.
    pub fn warm(&self, sources: &[NodeId], targets: &[NodeId]) {
        for &s in sources {
            for &t in targets {
                let _ = self.cost(s, t);
            }
        }
    }

    /// Snapshot of the counters, memo counts aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            vector_hits: self.pin_stats.vector_hits.load(Relaxed),
            pin_computes: self.pin_stats.pin_computes.load(Relaxed),
            pin_evictions: self.pin_stats.evictions.load(Relaxed),
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            let s = shard.lock();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().costs.len()).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident memory in bytes: pinned vectors plus memo.
    pub fn memory_bytes(&self) -> usize {
        let pinned = self.pinned.read().len() * (2 * self.live.read().node_count() * 4 + 16);
        // key (8) + value (4) + hashbrown overhead ≈ 1 ctrl byte + padding.
        pinned + self.shards.iter().map(|s| s.lock().costs.capacity() * (8 + 4 + 2)).sum::<usize>()
    }
}

/// The pinned-vector entry for `a → b` when either endpoint is pinned,
/// in the fixed lookup order: the backward vector of `b`, then the
/// forward vector of `a`.
#[inline]
fn pinned_lookup(pinned: &FxHashMap<u32, PinnedEntry>, a: NodeId, b: NodeId) -> Option<f32> {
    match pinned.get(&b.0) {
        Some(e) => Some(e.bwd[a.index()]),
        None => pinned.get(&a.0).map(|e| e.fwd[b.index()]),
    }
}

/// A stored cost as an answer: `∞` encodes unreachable.
#[inline]
fn finite(c: f32) -> Option<f64> {
    c.is_finite().then_some(c as f64)
}

/// Borrowed fast-path view of a cache's pinned vectors — see
/// [`PathCache::batch`].
pub struct PinnedReader<'a> {
    pinned: RwLockReadGuard<'a, FxHashMap<u32, PinnedEntry>>,
    hits: u64,
}

impl PinnedReader<'_> {
    /// The pinned part of [`PathCache::cost`]: `Some(answer)` when
    /// `a == b` or either endpoint is pinned, reading the same vector
    /// entry in the same order, so the answer is bit-identical. Returns
    /// `None` when the pair would need the memo/backend path; the caller
    /// falls back to its full cost function (nested `cost()` reads are
    /// safe — see [`PathCache::batch`]).
    #[inline]
    pub fn pinned_cost(&mut self, a: NodeId, b: NodeId) -> Option<Option<f64>> {
        if a == b {
            return Some(Some(0.0));
        }
        let c = pinned_lookup(&self.pinned, a, b)?;
        self.hits += 1;
        Some(finite(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{apply_traffic_shifts, grid_city, GridCityConfig, TrafficShiftSpec};

    fn cache() -> (Arc<RoadNetwork>, PathCache) {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let c = PathCache::new(g.clone());
        (g, c)
    }

    fn bits(c: Option<f64>) -> Option<u64> {
        c.map(f64::to_bits)
    }

    fn shift(g: &RoadNetwork, center: u32, radius_m: f64, factor: f64) -> Arc<RoadNetwork> {
        let spec = TrafficShiftSpec {
            center: NodeId(center),
            radius_m,
            factor,
            start_s: 0.0,
            duration_s: 1.0,
        };
        Arc::new(apply_traffic_shifts(g, &[spec]).unwrap())
    }

    #[test]
    fn cost_matches_dijkstra_and_hits_on_repeat() {
        let (g, c) = cache();
        let mut d = Dijkstra::new(&g);
        let want = d.cost(&g, NodeId(0), NodeId(399));
        let got1 = c.cost(NodeId(0), NodeId(399));
        let got2 = c.cost(NodeId(0), NodeId(399));
        assert_eq!(bits(got1), bits(want));
        assert_eq!(bits(got1), bits(got2));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_cost_is_zero_and_free() {
        let (_, c) = cache();
        assert_eq!(c.cost(NodeId(5), NodeId(5)), Some(0.0));
        c.pin(NodeId(5));
        assert_eq!(c.cost(NodeId(5), NodeId(5)), Some(0.0));
        let s = c.stats();
        assert_eq!((s.misses, s.vector_hits), (0, 0));
    }

    #[test]
    fn direction_matters_in_the_key() {
        let (_, c) = cache();
        let ab = c.cost(NodeId(0), NodeId(399)).unwrap();
        let ba = c.cost(NodeId(399), NodeId(0)).unwrap();
        // Jittered directed grid: costs differ between directions.
        assert_eq!(c.stats().misses, 2);
        assert!(ab > 0.0 && ba > 0.0);
    }

    #[test]
    fn path_agrees_with_cost() {
        let (_, c) = cache();
        let p = c.path(NodeId(3), NodeId(200)).unwrap();
        let cost = c.cost(NodeId(3), NodeId(200)).unwrap();
        assert_eq!(p.cost_s.to_bits(), cost.to_bits());
    }

    #[test]
    fn unreachable_memoized() {
        use mtshare_road::{EdgeSpec, GeoPoint};
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = Arc::new(RoadNetwork::new(pts, &edges).unwrap());
        let c = PathCache::new(g);
        assert_eq!(c.cost(NodeId(1), NodeId(0)), None);
        assert_eq!(c.cost(NodeId(1), NodeId(0)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // A pinned vector encodes unreachability as ∞ and answers `None`.
        c.pin(NodeId(0));
        assert_eq!(c.cost(NodeId(1), NodeId(0)), None);
        assert_eq!(c.stats().vector_hits, 1);
    }

    #[test]
    fn warm_fills_the_memo() {
        let (_, c) = cache();
        c.warm(&[NodeId(0), NodeId(1)], &[NodeId(10), NodeId(11)]);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        let memo_bytes = c.memory_bytes();
        assert!(memo_bytes > 0);
        c.pin(NodeId(3));
        assert_eq!(c.memory_bytes(), memo_bytes + 2 * 400 * 4 + 16);
    }

    #[test]
    fn pinned_vectors_match_unpinned_queries_bit_for_bit() {
        // A pinned source (forward vector), a pinned target (backward
        // vector) and an unpinned pair (memo + backend), under both
        // backends, against a pin-free cache and plain Dijkstra.
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cch = Arc::new(crate::cch::CustomizableCh::build(&g));
        let mut d = Dijkstra::new(&g);
        for backend in [RouterBackend::Bidir, RouterBackend::Cch(cch)] {
            let name = backend.name();
            let pinned = PathCache::with_backend(g.clone(), backend.clone());
            let plain = PathCache::with_backend(g.clone(), backend);
            pinned.pin(NodeId(0));
            pinned.pin(NodeId(399));
            let pairs = [
                (NodeId(0), NodeId(250)),  // pinned source
                (NodeId(17), NodeId(399)), // pinned target
                (NodeId(40), NodeId(41)),  // unpinned pair
            ];
            for (a, b) in pairs {
                let want = bits(d.cost(&g, a, b));
                assert_eq!(bits(pinned.cost(a, b)), want, "{name} {a:?}->{b:?}");
                assert_eq!(bits(plain.cost(a, b)), want, "{name} {a:?}->{b:?}");
            }
            let s = pinned.stats();
            assert_eq!((s.vector_hits, s.misses, s.pin_computes), (2, 1, 4), "{name}");
            assert_eq!(plain.stats().vector_hits, 0, "{name}");
        }
    }

    #[test]
    fn pinning_extra_nodes_never_changes_an_answer() {
        // The determinism contract of speculative dispatch: the batch path
        // pins whole batches of endpoints up front, the sequential path
        // pins one request at a time, and both must read identical costs.
        let (_, c) = cache();
        let memo = bits(c.cost(NodeId(17), NodeId(399)));
        c.pin(NodeId(399));
        assert_eq!(bits(c.cost(NodeId(17), NodeId(399))), memo);
        c.pin(NodeId(17)); // source pinned too: still the same bits
        assert_eq!(bits(c.cost(NodeId(17), NodeId(399))), memo);
        c.unpin(NodeId(399)); // now only the forward vector answers
        assert_eq!(bits(c.cost(NodeId(17), NodeId(399))), memo);
        c.pin(NodeId(250)); // unrelated pin
        assert_eq!(bits(c.cost(NodeId(17), NodeId(399))), memo);
    }

    #[test]
    fn refcounted_pinning() {
        let (_, c) = cache();
        c.pin(NodeId(7));
        c.pin(NodeId(7));
        assert_eq!(c.pinned_count(), 1);
        assert_eq!(c.stats().pin_computes, 2); // one fwd + one bwd, second pin free
        c.unpin(NodeId(7));
        assert_eq!(c.pinned_count(), 1);
        assert_eq!(c.stats().pin_evictions, 0);
        c.unpin(NodeId(7));
        assert_eq!(c.pinned_count(), 0);
        assert_eq!(c.stats().pin_evictions, 1);
        c.unpin(NodeId(7)); // no-op
        assert_eq!(c.pinned_count(), 0);
        assert_eq!(c.stats().pin_evictions, 1);
    }

    #[test]
    fn batch_reader_matches_cost_bit_for_bit() {
        let (_, c) = cache();
        c.pin(NodeId(0));
        c.pin(NodeId(399));
        let pairs = [(NodeId(5), NodeId(5)), (NodeId(17), NodeId(399)), (NodeId(0), NodeId(250))];
        for (a, b) in pairs {
            let want = c.cost(a, b);
            let got = c.batch(|r| r.pinned_cost(a, b)).expect("either endpoint pinned or a == b");
            assert_eq!(bits(got), bits(want), "{a:?}->{b:?}");
        }
        // Neither endpoint pinned: the reader defers to the full path,
        // which may run nested inside the batch.
        let nested = c.batch(|r| {
            assert!(r.pinned_cost(NodeId(40), NodeId(41)).is_none());
            c.cost(NodeId(40), NodeId(41))
        });
        assert_eq!(bits(nested), bits(c.cost(NodeId(40), NodeId(41))));
        // Hits were folded into the shared stats exactly once per answer.
        assert_eq!(c.stats().vector_hits, 2 * 2); // (17,399) and (0,250), via cost + batch
    }

    #[test]
    fn recustomize_recomputes_pins_and_drops_the_memo() {
        let (g, c) = cache();
        c.pin(NodeId(399));
        let _ = c.cost(NodeId(40), NodeId(41)); // memoized search
        let before = c.cost(NodeId(0), NodeId(399)).unwrap();
        let computes = c.stats().pin_computes;

        let shifted = shift(&g, 0, 800.0, 3.0);
        assert_eq!(c.recustomize(shifted.clone()), None);
        assert_eq!(c.graph().digest(), shifted.digest());
        assert_eq!(c.pinned_count(), 1);
        assert!(c.is_empty());
        assert_eq!(c.stats().pin_computes, computes + 2);

        // Pinned fast path and memo/search path both answer on the new
        // metric, bit-identical to a fresh cache over the shifted graph.
        let fresh = PathCache::new(shifted);
        let after = c.cost(NodeId(0), NodeId(399)).unwrap();
        assert!(after > before, "slowdown region must lengthen the trip");
        assert_eq!(bits(Some(after)), bits(fresh.cost(NodeId(0), NodeId(399))));
        assert_eq!(bits(c.cost(NodeId(40), NodeId(41))), bits(fresh.cost(NodeId(40), NodeId(41))));
        // The refcount survived: one unpin frees the vectors.
        c.unpin(NodeId(399));
        assert_eq!(c.pinned_count(), 0);
    }

    #[test]
    fn cch_backend_matches_bidir_and_recustomizes() {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cch = Arc::new(crate::cch::CustomizableCh::build(&g));
        let cached = PathCache::with_backend(g.clone(), RouterBackend::Cch(cch));
        let bidir = PathCache::new(g.clone());
        assert_eq!(bidir.backend_name(), "bidir");
        assert_eq!(cached.backend_name(), "cch");
        assert!(cached.customizable().is_some());
        assert!(bidir.cch_stats().is_none());

        let sources: Vec<NodeId> = (0..24).map(|i| NodeId(i * 13 % 400)).collect();
        let target = NodeId(397);
        for &s in &sources {
            assert_eq!(bits(cached.cost(s, target)), bits(bidir.cost(s, target)), "{s}");
        }
        // Cost misses route through the CCH query path.
        assert!(cached.cch_stats().unwrap().p2p_queries > 0);
        // Paths still come from the canonical bidirectional engine.
        assert_eq!(cached.path(NodeId(2), NodeId(391)), bidir.path(NodeId(2), NodeId(391)));

        // Shift a region; both recustomizable backends agree bit-for-bit
        // with fresh Dijkstra on the shifted graph — cost & path.
        let shifted = shift(&g, 200, 600.0, 2.0);
        assert_eq!(cached.recustomize(shifted.clone()), Some(1));
        assert_eq!(bidir.recustomize(shifted.clone()), None);
        assert_eq!(cached.graph().digest(), shifted.digest());
        let mut d = Dijkstra::new(&shifted);
        for &s in sources.iter().take(8) {
            let want = bits(d.cost(&shifted, s, target));
            assert_eq!(bits(cached.cost(s, target)), want, "{s}");
            assert_eq!(bits(bidir.cost(s, target)), want, "{s}");
        }
        let p = cached.path(NodeId(0), NodeId(399)).unwrap();
        assert_eq!(Some(p.cost_s), d.cost(&shifted, NodeId(0), NodeId(399)));
        assert_eq!(cached.cch_stats().unwrap().customizations, 2);
    }

    #[test]
    fn sources_land_on_distinct_shards_but_answers_agree() {
        // Sources 0..16 map to all 16 stripes; repeat queries hit their
        // own shard's memo and aggregate counters stay exact.
        let (g, c) = cache();
        let mut d = Dijkstra::new(&g);
        for src in 0..16u32 {
            let want = d.cost(&g, NodeId(src), NodeId(399));
            let got = c.cost(NodeId(src), NodeId(399));
            assert_eq!(bits(got), bits(want), "src={src}");
            assert_eq!(bits(c.cost(NodeId(src), NodeId(399))), bits(got));
        }
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (16, 16));
        assert_eq!(c.len(), 16);
    }
}
