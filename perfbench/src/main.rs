//! One measured process of the end-to-end benchmark; `run.py` spawns
//! these and aggregates their output.
//!
//! ```text
//! perfbench feed --workload serve-durable --seed N --out FEED.jsonl
//! perfbench run  --workload W --seed N [--trace] [--parallelism N]
//!                [--feed FEED.jsonl] [--state-dir DIR]
//! ```
//!
//! `run` prints one JSON object: raw timings, counts, latency samples
//! and, with `--trace`, the trace digest and the obs summary.

use mt_share::obs::json::{escape, fmt_f64};
use perfbench::{peak_rss_mb, run, write_feed, Probe, RunOptions, Spec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let fail = |msg: &str| -> ! {
        eprintln!("perfbench: {msg}");
        std::process::exit(2)
    };
    let workload = value("--workload").unwrap_or_else(|| fail("missing --workload"));
    let mut spec = Spec::workload(&workload)
        .unwrap_or_else(|| fail(&format!("unknown workload `{workload}`")));
    if let Some(p) = value("--parallelism") {
        spec.parallelism = p
            .parse()
            .ok()
            .filter(|&p| p >= 1)
            .unwrap_or_else(|| fail("--parallelism must be a positive integer"));
    }
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail("--seed must be an integer"));

    match args.first().map(String::as_str) {
        Some("feed") => {
            let out = value("--out").unwrap_or_else(|| fail("missing --out"));
            match write_feed(&spec, seed, &PathBuf::from(out)) {
                Ok(n) => println!("{{\"entries\":{n}}}"),
                Err(e) => fail(&e),
            }
        }
        Some("run") => {
            let trace = flag("--trace");
            let opts = RunOptions {
                seed,
                probe: if trace { Probe::Full } else { Probe::Latency },
                trace,
                feed: value("--feed").map(PathBuf::from),
                state_dir: value("--state-dir").map(PathBuf::from),
            };
            let result = run(&spec, &opts, process_start).unwrap_or_else(|e| fail(&e));
            // Teardown of the run's structures happened inside `run`, so
            // the wall time covers the whole process a user would wait for.
            let wall_s = process_start.elapsed().as_secs_f64();
            let l = &result.layers;
            let mut s = String::with_capacity(64 * 1024);
            let _ = write!(
                s,
                r#"{{"workload":"{}","seed":{seed},"parallelism":{},"wall_s":{},"setup_s":{},"peak_rss_mb":{},"requests":{},"served":{},"rejected":{},"unresolved":{},"refused":{},"#,
                escape(&workload),
                spec.parallelism,
                fmt_f64(wall_s),
                fmt_f64(result.setup_s),
                fmt_f64(peak_rss_mb()),
                result.requests,
                result.served,
                result.rejected,
                result.unresolved,
                result.refused,
            );
            let _ = write!(
                s,
                r#""layers":{{"road_build_s":{},"router_build_s":{},"scenario_s":{},"context_s":{},"scheme_build_s":{},"init_s":{},"dispatch_busy_s":{},"dispatch_calls":{},"index_busy_s":{},"index_calls":{},"spec_batches":{},"spec_requests":{},"spec_valid":{},"steps":{},"step_wall_s":{},"run_phase_s":{},"feed_read_s":{},"feed_bytes":{},"state_bytes":{}}},"#,
                fmt_f64(l.road_build_s),
                fmt_f64(l.router_build_s),
                fmt_f64(l.scenario_s),
                fmt_f64(l.context_s),
                fmt_f64(l.scheme_build_s),
                fmt_f64(l.init_s),
                fmt_f64(l.dispatch_busy_s),
                l.dispatch_calls,
                fmt_f64(l.index_busy_s),
                l.index_calls,
                l.spec_batches,
                l.spec_requests,
                l.spec_valid,
                l.steps,
                fmt_f64(l.step_wall_s),
                fmt_f64(l.run_phase_s),
                fmt_f64(l.feed_read_s),
                l.feed_bytes,
                l.state_bytes,
            );
            s.push_str(r#""latencies_ms":["#);
            for (i, v) in result.latencies_ms.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&fmt_f64(*v));
            }
            s.push_str(r#"],"errors":["#);
            for (i, e) in result.errors.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, r#""{}""#, escape(e));
            }
            s.push(']');
            if let Some(d) = &result.digest {
                let _ = write!(s, r#","digest":"{d}""#);
            }
            if let Some(summary) = &result.summary {
                let _ = write!(s, r#","summary":{summary}"#);
            }
            s.push('}');
            println!("{s}");
        }
        _ => fail("usage: perfbench feed|run --workload W --seed N [...]"),
    }
}
