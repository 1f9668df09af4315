//! The harness measures the real program. On small scenarios, a
//! decorated run gives the same trace digest as an undecorated run and
//! as `mtshare simulate` / `mtshare serve` with the equivalent flags.

use perfbench::{file_digest, run, write_feed, Probe, Router, RunOptions, RunResult, Spec};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn small_peak(router: Router) -> Spec {
    Spec {
        rows: 30,
        cols: 30,
        taxis: 60,
        requests: 400,
        nonpeak: false,
        capacity: 4,
        router,
        parallelism: 2,
        serve: false,
    }
}

fn small_serve() -> Spec {
    Spec {
        rows: 30,
        cols: 30,
        taxis: 60,
        requests: 400,
        nonpeak: true,
        capacity: 8,
        router: Router::Bidir,
        parallelism: 1,
        serve: true,
    }
}

/// A fresh path under the test's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let p = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-harness").join(name);
    std::fs::create_dir_all(p.parent().expect("has a parent")).expect("scratch dir");
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn traced(spec: &Spec, probe: Probe, feed: Option<&Path>, state: &str) -> RunResult {
    let opts = RunOptions {
        seed: 0,
        probe,
        trace: true,
        feed: feed.map(Path::to_path_buf),
        state_dir: spec.serve.then(|| scratch(state)),
    };
    let out = run(spec, &opts, Instant::now()).expect("run finishes");
    assert!(out.errors.is_empty(), "{probe:?}: {:?}", out.errors);
    out
}

/// Runs the `mtshare` command line with `--trace-out` and digests the
/// trace file it writes.
fn cli_digest(cmd: &str, spec: &Spec, extra: &[&str], name: &str) -> String {
    let trace = scratch(name);
    let status = Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .arg(cmd)
        .args(spec.cli_flags())
        .args(extra)
        .arg("--trace-out")
        .arg(&trace)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("mtshare runs");
    assert!(status.success(), "mtshare {cmd} failed: {status}");
    file_digest(&trace).expect("trace written")
}

#[test]
fn decorated_peak_run_matches_undecorated_and_cli() {
    let spec = small_peak(Router::Bidir);
    let full = traced(&spec, Probe::Full, None, "");
    let latency = traced(&spec, Probe::Latency, None, "");
    let plain = traced(&spec, Probe::None, None, "");
    // A decorator that dropped `dispatch_batch_speculative` would turn
    // parallel dispatch off without changing the trace.
    assert!(full.layers.spec_batches > 0, "no speculative batches at parallelism 2");
    assert_eq!(full.layers.spec_batches, latency.layers.spec_batches);
    assert!(full.layers.steps > 0 && full.layers.index_calls > 0);
    // Peak demand is all online: one verdict per request.
    assert_eq!(full.latencies_ms.len(), full.requests);
    assert_eq!(latency.latencies_ms.len(), latency.requests);
    let cli = cli_digest("simulate", &spec, &[], "simulate.jsonl");
    for other in [&latency, &plain] {
        assert_eq!(full.digest, other.digest);
        assert_eq!(full.served, other.served);
    }
    assert_eq!(full.digest.as_deref(), Some(cli.as_str()));
}

#[test]
fn cch_run_traces_like_bidir() {
    let bidir = traced(&small_peak(Router::Bidir), Probe::Full, None, "");
    let cch = traced(&small_peak(Router::Cch), Probe::Full, None, "");
    assert_eq!(bidir.digest, cch.digest);
    assert_eq!(bidir.served, cch.served);
    assert!(cch.layers.router_build_s > 0.0);
}

#[test]
fn decorated_serve_run_matches_undecorated_and_cli() {
    let spec = small_serve();
    let feed = scratch("feed.jsonl");
    let entries = write_feed(&spec, 0, &feed).expect("feed written");
    let full = traced(&spec, Probe::Full, Some(&feed), "state-full");
    let plain = traced(&spec, Probe::None, Some(&feed), "state-plain");
    assert_eq!(full.requests, entries);
    assert_eq!(full.refused, 0);
    assert_eq!(full.layers.feed_bytes, std::fs::metadata(&feed).expect("feed").len());
    assert!(full.layers.state_bytes > 0);
    let state = scratch("state-cli");
    let state = state.to_str().expect("utf-8 path");
    let feed_arg = feed.to_str().expect("utf-8 path");
    let cli =
        cli_digest("serve", &spec, &["--feed", feed_arg, "--state-dir", state], "serve.jsonl");
    assert_eq!(full.digest, plain.digest);
    assert_eq!(full.served, plain.served);
    assert_eq!(full.digest.as_deref(), Some(cli.as_str()));
}
