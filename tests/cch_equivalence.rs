//! Customizable-hierarchy equivalence matrix: on every synthetic city
//! shape, CCH costs must equal Dijkstra and bidirectional Dijkstra *bit
//! for bit* (dyadic edge quantization makes f32 path sums associative),
//! paths materialized by a CCH-backed cache must be valid walks resumming
//! to the CCH cost, persisted hierarchies must survive a round trip and
//! never be trusted when stale or corrupt, and — end to end — the
//! simulator's event trace must be byte-identical whichever router
//! produced the costs.

use mt_share::road::{
    grid_city, ring_radial_city, GridCityConfig, NodeId, RingRadialConfig, RoadNetwork,
};
use mt_share::routing::{
    BidirDijkstra, CchQuery, CustomizableCh, Dijkstra, PathCache, RouterBackend,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

/// Every synthetic shape the road crate can generate, small enough for
/// debug-mode preprocessing.
fn shapes() -> Vec<(&'static str, Arc<RoadNetwork>)> {
    vec![
        ("grid_tiny", Arc::new(grid_city(&GridCityConfig::tiny()).unwrap())),
        (
            "grid_30x30",
            Arc::new(
                grid_city(&GridCityConfig { rows: 30, cols: 30, ..Default::default() }).unwrap(),
            ),
        ),
        ("ring_radial", Arc::new(ring_radial_city(&RingRadialConfig::default()).unwrap())),
    ]
}

#[test]
fn cch_costs_equal_both_dijkstras_on_every_shape() {
    for (name, graph) in shapes() {
        let mut q = CchQuery::new(Arc::new(CustomizableCh::build(&graph)));
        let mut d = Dijkstra::new(&graph);
        let mut bi = BidirDijkstra::new(&graph);
        let mut rng = SmallRng::seed_from_u64(17);
        let n = graph.node_count() as u32;
        for _ in 0..120 {
            let s = NodeId(rng.gen_range(0..n));
            let t = NodeId(rng.gen_range(0..n));
            let want = d.cost(&graph, s, t);
            assert_eq!(bi.cost(&graph, s, t), want, "{name}: bidir vs dijkstra {s}->{t}");
            assert_eq!(q.cost(s, t), want, "{name}: cch vs dijkstra {s}->{t}");
        }
    }
}

/// Under `--router cch` costs come from the hierarchy but committed
/// paths from bidirectional search; the two must agree to the bit, or a
/// schedule proved feasible on costs would commit a different route.
#[test]
fn cch_cache_paths_are_exact_walks_on_every_shape() {
    for (name, graph) in shapes() {
        let cch = Arc::new(CustomizableCh::build(&graph));
        let cache = PathCache::with_backend(graph.clone(), RouterBackend::Cch(cch));
        let mut d = Dijkstra::new(&graph);
        let mut rng = SmallRng::seed_from_u64(23);
        let n = graph.node_count() as u32;
        for _ in 0..40 {
            let s = NodeId(rng.gen_range(0..n));
            let t = NodeId(rng.gen_range(0..n));
            let cost = cache.cost(s, t);
            let p = cache.path(s, t).unwrap();
            assert_eq!(p.start(), s, "{name}");
            assert_eq!(p.end(), t, "{name}");
            // Resummation over original edges must reproduce the reported
            // cost exactly — quantized edges sum associatively in f32.
            let mut total = 0.0f32;
            for w in p.nodes.windows(2) {
                let c = graph.direct_edge_cost(w[0], w[1]);
                assert!(c.is_some(), "{name}: non-adjacent hop {}->{}", w[0], w[1]);
                total += c.unwrap();
            }
            assert_eq!(total as f64, p.cost_s, "{name}: resummed walk {s}->{t}");
            assert_eq!(Some(p.cost_s), cost, "{name}: path vs cch cost {s}->{t}");
            assert_eq!(cost, d.cost(&graph, s, t), "{name}: vs dijkstra {s}->{t}");
        }
    }
}

#[test]
fn artifact_round_trips_and_stale_or_corrupt_copies_are_rebuilt() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cch-artifacts");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("hierarchy.mtcc");

    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let built = CustomizableCh::build(&graph);
    built.save(&file).unwrap();

    // Round trip: the loaded hierarchy answers identically.
    let loaded = CustomizableCh::load(&file, &graph).unwrap();
    assert_eq!(loaded.artifact_digest(), built.artifact_digest());
    let (mut qa, mut qb) = (CchQuery::new(Arc::new(built)), CchQuery::new(Arc::new(loaded)));
    for (s, t) in [(0u32, 399u32), (37, 201), (399, 0), (5, 5)] {
        assert_eq!(qa.cost(NodeId(s), NodeId(t)), qb.cost(NodeId(s), NodeId(t)));
    }

    // Stale: an artifact built for a *different* graph must be rejected...
    let other =
        Arc::new(grid_city(&GridCityConfig { seed: 991, ..GridCityConfig::tiny() }).unwrap());
    assert_ne!(graph.digest(), other.digest(), "seed must change the digest");
    assert!(CustomizableCh::load(&file, &other).is_err());
    // ...and load_or_build falls back to a correct rebuild.
    let (rebuilt, was_rebuilt) = CustomizableCh::load_or_build(&file, &other).unwrap();
    assert!(was_rebuilt);
    assert_eq!(rebuilt.graph_digest(), other.digest());

    // Corrupt: truncate the (re-saved) artifact mid-frame.
    let bytes = std::fs::read(&file).unwrap();
    std::fs::write(&file, &bytes[..bytes.len() / 2]).unwrap();
    assert!(CustomizableCh::load(&file, &other).is_err());
    let (recovered, was_rebuilt) = CustomizableCh::load_or_build(&file, &other).unwrap();
    assert!(was_rebuilt);
    assert_eq!(recovered.graph_digest(), other.digest());
    // The rebuild rewrote a healthy artifact in place of the torn one.
    let reloaded = CustomizableCh::load(&file, &other).unwrap();
    assert_eq!(reloaded.artifact_digest(), recovered.artifact_digest());
}

/// A healthy artifact from an *incompatible format version* is the one
/// corruption mode that must never trigger the silent rebuild-and-clobber
/// path: the CLI refuses it with a clear message and exit code 2, and the
/// file is left byte-for-byte intact.
#[test]
fn version_mismatched_artifact_exits_2_and_is_left_intact() {
    use mt_share::persist::{write_snapshot, Encoder};
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("artifact-version");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("cch.mtsnap");
    let mut enc = Encoder::new();
    enc.bytes(b"MTCC");
    enc.u32(1); // a format version this build does not read
    enc.u64(0);
    write_snapshot(&file, &enc.into_bytes()).unwrap();
    let before = std::fs::read(&file).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .args([
            "simulate",
            "--scheme",
            "no-sharing",
            "--rows",
            "8",
            "--cols",
            "8",
            "--taxis",
            "2",
            "--requests",
            "5",
            "--router",
            "cch",
            "--ch-artifact",
            file.to_str().unwrap(),
        ])
        .output()
        .expect("spawn mtshare");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("version 1"), "{err}");
    assert_eq!(std::fs::read(&file).unwrap(), before, "artifact clobbered");
}

fn simulate(dir: &Path, router: &str, parallelism: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .current_dir(dir)
        .args([
            "simulate",
            "--scheme",
            "mt-share",
            "--rows",
            "20",
            "--cols",
            "20",
            "--taxis",
            "15",
            "--requests",
            "150",
            "--nonpeak",
            "--router",
            router,
            "--parallelism",
            parallelism,
            "--trace-out",
            trace,
        ])
        .output()
        .expect("spawn mtshare");
    assert!(
        out.status.success(),
        "router={router} parallelism={parallelism}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The end-to-end correctness bar: swapping the exact cost engine (and
/// the dispatch worker count) must not move a single byte of the trace.
#[test]
fn traces_are_byte_identical_across_routers_and_parallelism() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cch-trace-diff");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    simulate(&dir, "bidir", "1", "bidir-p1.jsonl");
    simulate(&dir, "cch", "1", "cch-p1.jsonl");
    simulate(&dir, "cch", "4", "cch-p4.jsonl");

    let reference = std::fs::read(dir.join("bidir-p1.jsonl")).unwrap();
    assert!(!reference.is_empty(), "baseline trace must not be empty");
    for other in ["cch-p1.jsonl", "cch-p4.jsonl"] {
        let got = std::fs::read(dir.join(other)).unwrap();
        assert!(got == reference, "{other} diverges from the bidir baseline trace");
    }
}
