#!/usr/bin/env python3
"""End-to-end dispatch benchmark for the mT-Share reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload peak-bidir --seed 1 --seconds 50 --trace 0

Builds the `perfbench` package (cargo, offline, release), then spawns
one fresh `perfbench run` process per measurement and aggregates their
output. Prints every metric by name with its unit, the host facts, and
as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of one extra traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("peak-bidir", "peak-cch", "serve-durable")

# Wall time of one measured process on the reference host (2 cores),
# serve feed included. A run makes round(seconds / nominal) of them, at
# least 2: a fixed count, so the work a run does, and its served ratio,
# never depend on timing.
NOMINAL_PROCESS_S = {"peak-bidir": 4.5, "peak-cch": 20.5, "serve-durable": 7.2}
# Seed stride between runs: run seed N measures sub-seeds
# N * SEED_STRIDE + i, one per process.
SEED_STRIDE = 64
# Decision-latency samples a run needs so that p99 has more than ten
# samples beyond it.
MIN_SAMPLES = 1500
# Every measured process must end within this many seconds of the
# build finishing, so a run exits within 180 s.
RUN_DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("dispatch_p50_ms", "ms"),
    ("dispatch_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("served_ratio", "ratio"),
]

PER_LAYER = [
    ("road.build_s", "s"),
    ("sim.scenario_s", "s"),
    ("mobility.context_s", "s"),
    ("routing.preprocess_s", "s"),
    ("core.dispatch_busy_s", "s"),
    ("core.dispatch_calls", "count"),
    ("core.dispatch_unstaged_s", "s"),
    ("routing.cch_bucket_sweeps", "count"),
    ("routing.cch_bucket_sources", "count"),
    ("routing.cch_p2p_queries", "count"),
    ("routing.path_cache_hit_ratio", "ratio"),
    ("routing.oracle_pin_computes", "count"),
    ("routing.dispatch_routing_s", "s"),
    ("core.candidate_search_s", "s"),
    ("core.partition_filter_s", "s"),
    ("core.filter_kept_ratio", "ratio"),
    ("core.commit_s", "s"),
    ("model.insertion_s", "s"),
    ("model.insertion_feasible_ratio", "ratio"),
    ("core.index_update_s", "s"),
    ("par.spec_batches", "count"),
    ("par.spec_batch_mean", "count"),
    ("par.spec_valid_ratio", "ratio"),
    ("par.worker_balance", "ratio"),
    ("sim.steps", "count"),
    ("sim.loop_self_s", "s"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_write_pct", "%"),
    ("persist.wal_records", "count"),
    ("persist.state_bytes", "bytes"),
    ("serve.feed_read_pct", "%"),
    ("serve.feed_bytes", "bytes"),
    ("unattributed_s", "s"),
    ("unattributed_pct", "%"),
    ("obs.overhead_pct", "%"),
    ("cch.run_phase_s", "s"),
    ("cch.dispatch_busy_s", "s"),
    ("cch.dispatch_unstaged_s", "s"),
    ("cch.path_cache_hit_ratio", "ratio"),
]


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, math.ceil(q * n) - 1))]


def ratio(num, den):
    return num / den if den else 0.0


class Bench:
    def __init__(self, root, binary, work):
        self.root = root
        self.binary = binary
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.feeds = {}  # serve sub-seed -> (feed path, entries)
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def feed(self, workload, seed):
        """The recorded serve feed for `seed` and its entry count, or
        (None, None) for one-shot workloads."""
        if workload != "serve-durable":
            return None, None
        if seed not in self.feeds:
            path = os.path.join(self.work, f"feed-{seed}.jsonl")
            out = self.spawn(["feed", "--workload", workload, "--seed", str(seed),
                              "--out", path])
            self.feeds[seed] = (path, out["entries"] if out else None)
        return self.feeds[seed]

    def spawn(self, args):
        """Runs one `perfbench` process; returns its JSON output or None."""
        cmd = [self.binary] + args
        left = self.deadline - time.monotonic()
        if left <= 0:
            self.errors.append(f"out of time before: {' '.join(args)}")
            return None
        try:
            p = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            self.errors.append(f"timed out: {' '.join(args)}")
            return None
        if p.returncode != 0:
            self.errors.append(f"exit {p.returncode}: {' '.join(args)}: {p.stderr.strip()[-500:]}")
            return None
        try:
            return json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.errors.append(f"unreadable output: {' '.join(args)}")
            return None

    def measure(self, workload, seed, trace=False, expect=None, parallelism=None):
        """One measured process. `expect` is the request count of the
        inputs when known beforehand; a process that fails counts every
        one of them as failed."""
        feed, entries = self.feed(workload, seed)
        expect = entries if entries is not None else expect
        args = ["run", "--workload", workload, "--seed", str(seed)]
        if trace:
            args.append("--trace")
        if parallelism:
            args += ["--parallelism", str(parallelism)]
        state = None
        if feed:
            state = os.path.join(self.work, "state")
            shutil.rmtree(state, ignore_errors=True)
            args += ["--feed", feed, "--state-dir", state]
        out = self.spawn(args)
        if state:
            shutil.rmtree(state, ignore_errors=True)
        if out is None:
            self.attempted += expect or 0
            self.failed += expect or 0
            return None
        self.attempted += out["requests"]
        if out["errors"]:
            self.errors += [f"{workload} seed {seed}: {e}" for e in out["errors"]]
            self.failed += out["requests"]
        else:
            self.failed += out["unresolved"] + out["refused"]
        if expect is not None and out["requests"] != expect:
            self.errors.append(f"{workload} seed {seed}: {out['requests']} requests, "
                               f"input has {expect}")
        return out


def usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_facts(root):
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               cwd=root).stdout.strip()
    except OSError:
        rustc = "unknown"
    commit = "none (not a git checkout)"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=root)
        lines = git.stdout.split()
        if git.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, IndexError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "src", "crates", "shims", "perfbench"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base)
            if "target" not in os.path.relpath(d, root).split(os.sep)
            for f in files if f != "Cargo.lock")
        for path in paths:
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    usable = usable_cores()
    return {"nproc": os.cpu_count(), "usable_cores": usable, "multicore": usable > 1,
            "rustc": rustc, "commit": commit, "source_sha256": h.hexdigest()[:16]}


def build(root):
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    target = os.path.abspath(os.path.join(root, target))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    p = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", manifest, "--bin", "perfbench"],
                       cwd=root, env=env, stdout=sys.stderr)
    if p.returncode != 0:
        die("build failed")
    return os.path.join(target, "release", "perfbench"), target


def end_to_end(bench, workload, seed, seconds, requests):
    """Untraced processes, each on its own sub-seed. Every figure pools
    or takes the median over all of them: the host's speed drifts over
    tens of seconds, and only the whole run averages it out."""
    n = max(2, min(SEED_STRIDE, round(seconds / NOMINAL_PROCESS_S[workload])))
    runs = []
    for i in range(n):
        out = bench.measure(workload, seed * SEED_STRIDE + i, expect=requests)
        if out:
            runs.append(out)
    if not runs:
        return {}, {}
    latencies = sorted(x for r in runs for x in r["latencies_ms"])
    if len(latencies) < MIN_SAMPLES:
        bench.errors.append(f"only {len(latencies)} latency samples (< {MIN_SAMPLES})")
    if not latencies:
        latencies = [0.0]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "throughput_rps": (sum(r["served"] + r["rejected"] for r in runs)
                           / sum(r["layers"]["run_phase_s"] for r in runs)),
        "dispatch_p50_ms": quantile(latencies, 0.50),
        "dispatch_p99_ms": quantile(latencies, 0.99),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "served_ratio": ratio(sum(r["served"] for r in runs), sum(r["requests"] for r in runs)),
    }
    facts = {"processes": n, "setup_samples": len(runs), "latency_samples": len(latencies),
             "beyond_p99": sum(1 for x in latencies if x > metrics["dispatch_p99_ms"]),
             "sub_seeds": f"{seed * SEED_STRIDE}..{seed * SEED_STRIDE + n - 1}",
             "served": [r["served"] for r in runs]}
    return metrics, facts


def stage_seconds(out):
    return {k: v["total_s"] for k, v in out["summary"]["profiling"]["stages"].items()}


def unstaged_s(out):
    """Scoring-call time outside every dispatch stage span."""
    stage = stage_seconds(out)
    staged = (stage["candidate_search"] + stage["partition_filter"] + stage["insertion_dp"]
              + stage["dtree_update"] + stage["routing"])
    return out["layers"]["dispatch_busy_s"] - staged


def per_layer(out, untraced_rps, par, cch):
    """Per-layer metrics of one traced process, plus the additive
    breakdown of its wall time. `par.*` come from the traced process
    `par`; the router-hierarchy metrics (`routing.preprocess_s`,
    `routing.cch_*`, `cch.*`) from the traced cch process `cch`, or are
    0 when the run has none."""
    L = out["layers"]
    prof = out["summary"]["profiling"]
    P = par["layers"]
    items = par["summary"]["profiling"]["workers"]["items"]
    stage = stage_seconds(out)
    counters = prof["counters"]
    persistence = prof["persistence"]
    ckpt_write_s = persistence["checkpoint_write_ms"]["total_s"]
    unstaged = unstaged_s(out)
    hierarchy = (cch["summary"]["profiling"]["cch"] if cch
                 else {"bucket_sweeps": 0, "bucket_sources": 0, "p2p_queries": 0})
    run_phase = L["run_phase_s"]
    loop_self = (run_phase - L["dispatch_busy_s"] - L["index_busy_s"] - ckpt_write_s
                 - L["feed_read_s"])
    # Additive: these and `unattributed_s` sum to the process wall time.
    breakdown = [
        ("road.build_s", L["road_build_s"]),
        ("routing.router_build_s", L["router_build_s"]),
        ("sim.scenario_s", L["scenario_s"]),
        ("mobility.context_s", L["context_s"]),
        ("core.scheme_build_s", L["scheme_build_s"]),
        ("sim.init_s", L["init_s"]),
        ("core.dispatch_busy_s", L["dispatch_busy_s"]),
        ("core.index_update_s", L["index_busy_s"]),
        ("persist.checkpoint_write_s", ckpt_write_s),
        ("serve.feed_read_s", L["feed_read_s"]),
        ("sim.loop_self_s", loop_self),
    ]
    unattributed = out["wall_s"] - sum(v for _, v in breakdown)
    rps = (out["served"] + out["rejected"]) / run_phase
    metrics = {
        "road.build_s": L["road_build_s"],
        "sim.scenario_s": L["scenario_s"],
        "mobility.context_s": L["context_s"],
        "routing.preprocess_s": cch["layers"]["router_build_s"] if cch else 0.0,
        "core.dispatch_busy_s": L["dispatch_busy_s"],
        "core.dispatch_calls": L["dispatch_calls"],
        "core.dispatch_unstaged_s": unstaged,
        "routing.cch_bucket_sweeps": hierarchy["bucket_sweeps"],
        "routing.cch_bucket_sources": hierarchy["bucket_sources"],
        "routing.cch_p2p_queries": hierarchy["p2p_queries"],
        "routing.path_cache_hit_ratio": prof["path_cache"]["hit_ratio"],
        "routing.oracle_pin_computes": prof["oracle"]["pin_computes"],
        "routing.dispatch_routing_s": stage["routing"],
        "core.candidate_search_s": stage["candidate_search"],
        "core.partition_filter_s": stage["partition_filter"],
        "core.filter_kept_ratio": ratio(counters["filter_partitions_kept"],
                                        counters["filter_partitions_considered"]),
        "core.commit_s": stage["commit"],
        "model.insertion_s": stage["insertion_dp"] + stage["dtree_update"],
        "model.insertion_feasible_ratio": ratio(counters["insertions_feasible"],
                                                counters["insertions_attempted"]),
        "core.index_update_s": L["index_busy_s"],
        "par.spec_batches": P["spec_batches"],
        "par.spec_batch_mean": ratio(P["spec_requests"], P["spec_batches"]),
        "par.spec_valid_ratio": ratio(P["spec_valid"], P["spec_requests"]),
        "par.worker_balance": ratio(min(items), max(items)) if items else 0.0,
        # `serve::serve` steps internally; there, each step appends one
        # WAL record.
        "sim.steps": L["steps"] if L["steps"] else persistence["wal_records"],
        "sim.loop_self_s": loop_self,
        "persist.checkpoints": persistence["checkpoints"],
        "persist.checkpoint_write_pct": 100.0 * ckpt_write_s / run_phase,
        "persist.wal_records": persistence["wal_records"],
        "persist.state_bytes": L["state_bytes"],
        "serve.feed_read_pct": 100.0 * L["feed_read_s"] / run_phase,
        "serve.feed_bytes": L["feed_bytes"],
        "unattributed_s": unattributed,
        "unattributed_pct": 100.0 * unattributed / out["wall_s"],
        "obs.overhead_pct": 100.0 * (untraced_rps / rps - 1.0),
        "cch.run_phase_s": cch["layers"]["run_phase_s"] if cch else 0.0,
        "cch.dispatch_busy_s": cch["layers"]["dispatch_busy_s"] if cch else 0.0,
        "cch.dispatch_unstaged_s": unstaged_s(cch) if cch else 0.0,
        "cch.path_cache_hit_ratio":
            cch["summary"]["profiling"]["path_cache"]["hit_ratio"] if cch else 0.0,
    }
    detail = [
        ("  stages inside dispatch (thread-seconds)", L["dispatch_busy_s"] - unstaged),
        ("    core.candidate_search_s", stage["candidate_search"]),
        ("    core.partition_filter_s", stage["partition_filter"]),
        ("    model.insertion_s", stage["insertion_dp"] + stage["dtree_update"]),
        ("    routing.dispatch_routing_s", stage["routing"]),
        ("  core.dispatch_unstaged_s", unstaged),
        ("  core.commit_s (span holds after_assign)", stage["commit"]),
        ("  program's own response time (SimReport), total", prof["response_ms"]["total_s"]),
    ]
    if L["steps"]:
        detail.append(("  sim.step_wall_s (SimEngine::step total)", L["step_wall_s"]))
    return metrics, breakdown + [("unattributed_s", unattributed)], detail


def traced_run(bench, w, seed, requests):
    """One untraced and one traced process on the same inputs; the
    difference in throughput is the tracing overhead. A peak workload
    also runs two traced references on the same inputs, whose trace
    digest and served count must equal the measured one:
    - the parallel reference, `peak-bidir` at parallelism = usable
      cores (the parallelism identity), which supplies the `par.*`
      metrics;
    - the same inputs under the other router (the router identity). The
      cch process of the two supplies the router-hierarchy metrics.
    Returns the per-layer metrics, run facts and breakdown lines."""
    sub = seed * SEED_STRIDE
    plain = bench.measure(w, sub, expect=requests)
    traced = bench.measure(w, sub, trace=True, expect=requests)
    facts = {"sub_seed": sub}
    if not (plain and traced):
        return {}, facts, []
    if plain["served"] != traced["served"]:
        bench.errors.append(f"served {plain['served']} untraced, {traced['served']} traced")
    par, cch = traced, None
    if w != "serve-durable":
        cores = usable_cores()
        other = "peak-bidir" if w == "peak-cch" else "peak-cch"
        par = bench.measure("peak-bidir", sub, trace=True, expect=requests, parallelism=cores)
        ref = bench.measure(other, sub, trace=True, expect=requests)
        if not (par and ref):
            return {}, facts, []
        for name, r in ((f"parallel peak-bidir (parallelism {cores})", par), (other, ref)):
            if (r["digest"], r["served"]) != (traced["digest"], traced["served"]):
                bench.errors.append(
                    f"{w} digest {traced['digest']} served {traced['served']} != {name} "
                    f"digest {r['digest']} served {r['served']}")
        cch = traced if w == "peak-cch" else ref
        facts.update(parallel_digest=par["digest"], parallel_reference=cores,
                     router_reference=other, router_reference_digest=ref["digest"])
    rps = (plain["served"] + plain["rejected"]) / plain["layers"]["run_phase_s"]
    metrics, breakdown, detail = per_layer(traced, rps, par, cch)
    facts.update(digest=traced["digest"], served=traced["served"], wall_s=traced["wall_s"])
    wall = traced["wall_s"]
    lines = [f"# breakdown of the traced process's {wall:.3f} s wall"]
    lines += [f"#   {name:<48} {v:10.4f} s {100.0 * v / wall:6.1f} %" for name, v in breakdown]
    lines += [f"#   {name:<48} {v:10.4f} s" for name, v in detail]
    return metrics, facts, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("Cargo.toml", "src", "crates"):
        if not os.path.exists(os.path.join(root, need)):
            die(f"{need} missing at {root}: run from a full checkout", 2)
    binary, target = build(root)
    work = os.path.join(target, "perfbench-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, binary, work)
    w = args.workload
    # Requests per one-shot process; serve processes take the feed's count.
    requests = None if w == "serve-durable" else 1500
    try:
        if args.trace:
            metrics, run_facts, notes = traced_run(bench, w, args.seed, requests)
        else:
            metrics, run_facts = end_to_end(bench, w, args.seed, args.seconds, requests)
            notes = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"# perfbench workload={w} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# host " + json.dumps(host_facts(root), sort_keys=True))
    print("# run " + json.dumps(run_facts, sort_keys=True))
    for line in notes:
        print(line)
    for e in bench.errors:
        print(f"# check failed: {e}")
    for name, v in metrics.items():
        print(f"{name:<32} {v!r:>24} {units[name]}")
    result = {
        "correct": not bench.errors and bool(metrics),
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
