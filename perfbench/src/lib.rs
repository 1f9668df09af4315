//! End-to-end dispatch benchmark harness.
//!
//! Drives the public calls `mtshare simulate` and `mtshare serve` make,
//! in the same order: `road::grid_city` → router build →
//! `Scenario::generate` → `build_context` → `SchemeKind::build` →
//! `Simulator` / `SimEngine` / `serve::serve`. Every per-layer number is
//! taken from outside the program:
//!
//! 1. each public call above is timed here;
//! 2. [`TimedScheme`] wraps the dispatch scheme, forwards every
//!    `DispatchScheme` method and times it;
//! 3. each `SimEngine::step` and each read from the serve feed is timed.
//!
//! The program's own obs summary adds its counters and stage spans; no
//! span is added inside the program.

use mt_share::core::{MtShareConfig, PartitionStrategy};
use mt_share::model::{
    DispatchOutcome, DispatchScheme, EngineStats, RideRequest, SchedulerKind, SpeculativeOutcome,
    Taxi, TaxiId, Time, WindowRow, World,
};
use mt_share::obs::{Event, EventSink, Obs, RejectReason};
use mt_share::road::{grid_city, GridCityConfig, RoadNetwork};
use mt_share::routing::{CustomizableCh, PathCache, RouterBackend};
use mt_share::serve::{
    open_feed, record_feed, AdmissionPolicy, AdmissionQueue, Pace, ServeOptions, ServeOutcome,
};
use mt_share::sim::{
    build_context, PersistConfig, RunOutcome, Scenario, ScenarioConfig, SchemeKind, SimConfig,
    SimEngine, SimReport, Simulator, StepOutcome,
};
use std::collections::HashMap;
use std::io::{BufRead, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seed of the synthetic city: the `mtshare` command line's default map.
const CITY_SEED: u64 = 7;
/// Partition count: the `mtshare` command line's `--kappa` default.
const KAPPA: usize = 24;
/// Admission queue size: the `mtshare serve --queue-capacity` default.
const QUEUE_CAPACITY: usize = 64;

/// Exact cost engine behind the path cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Router {
    /// Bidirectional Dijkstra (`--router bidir`, the default).
    Bidir,
    /// Customizable contraction hierarchy (`--router cch`).
    Cch,
}

/// One workload's inputs and configuration, short of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Grid rows of the synthetic city.
    pub rows: usize,
    /// Grid columns of the synthetic city.
    pub cols: usize,
    /// Fleet size.
    pub taxis: usize,
    /// Requests generated.
    pub requests: usize,
    /// Non-peak demand (a third offline) instead of peak demand.
    pub nonpeak: bool,
    /// Seats per taxi.
    pub capacity: u8,
    /// Cost engine.
    pub router: Router,
    /// Dispatch worker threads.
    pub parallelism: usize,
    /// Replay a recorded feed through `serve::serve` with a state
    /// directory, instead of a one-shot `Simulator` run.
    pub serve: bool,
}

impl Spec {
    /// The named workload (see `perfbench/README.md` for why each).
    pub fn workload(name: &str) -> Option<Spec> {
        let peak = Spec {
            rows: 100,
            cols: 100,
            taxis: 300,
            requests: 1500,
            nonpeak: false,
            capacity: 4,
            router: Router::Bidir,
            parallelism: 1,
            serve: false,
        };
        match name {
            "peak-bidir" => Some(peak),
            "peak-cch" => Some(Spec { router: Router::Cch, ..peak }),
            "serve-durable" => Some(Spec {
                rows: 60,
                cols: 60,
                taxis: 400,
                requests: 6000,
                nonpeak: true,
                capacity: 8,
                router: Router::Bidir,
                parallelism: 1,
                serve: true,
            }),
            _ => None,
        }
    }

    /// The synthetic city, as `mtshare --rows R --cols C` builds it.
    pub fn city(&self) -> Arc<RoadNetwork> {
        let cfg = GridCityConfig {
            rows: self.rows,
            cols: self.cols,
            seed: CITY_SEED,
            ..Default::default()
        };
        Arc::new(grid_city(&cfg).expect("valid city config"))
    }

    /// The scenario for workload seed `seed`. Seed 0 is exactly what the
    /// `mtshare` command line generates; other seeds draw another set of
    /// live requests from the same demand model and place the fleet
    /// anew, so the program only ever receives the generated inputs.
    pub fn scenario_config(&self, seed: u64) -> ScenarioConfig {
        let mut cfg = if self.nonpeak {
            ScenarioConfig::nonpeak(self.taxis)
        } else {
            ScenarioConfig::peak(self.taxis)
        };
        cfg.n_requests = self.requests;
        cfg.capacity = self.capacity;
        // The demand generator draws its hotspot layout and then every
        // trip from one random stream. Drawing `seed % 256` extra
        // historical trips first keeps the layout (the city's demand
        // structure) and gives the live requests a fresh realization.
        cfg.n_historical += (seed % 256) as usize;
        cfg.seed = cfg.seed.wrapping_add(seed);
        cfg
    }

    /// The `mtshare` flags that reproduce this spec at seed 0.
    pub fn cli_flags(&self) -> Vec<String> {
        let mut f = vec![
            "--rows".to_string(),
            self.rows.to_string(),
            "--cols".into(),
            self.cols.to_string(),
            "--taxis".into(),
            self.taxis.to_string(),
            "--requests".into(),
            self.requests.to_string(),
            "--capacity".into(),
            self.capacity.to_string(),
            "--parallelism".into(),
            self.parallelism.to_string(),
            "--router".into(),
            match self.router {
                Router::Bidir => "bidir".into(),
                Router::Cch => "cch".into(),
            },
        ];
        if self.nonpeak {
            f.push("--nonpeak".into());
        }
        f
    }
}

/// Writes the serve feed for `spec` at `seed`: the scenario's request
/// stream in the feed format (`mtshare simulate --feed-record`).
/// Returns the number of entries.
pub fn write_feed(spec: &Spec, seed: u64, path: &Path) -> Result<usize, String> {
    let graph = spec.city();
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph, &cache, spec.scenario_config(seed));
    std::fs::write(path, record_feed(&scenario.requests))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(scenario.requests.len())
}

/// How much of the program the harness times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// No decorator: the scheme is handed to the simulator as built.
    None,
    /// Decorator timing only the scoring calls (per-request latency).
    Latency,
    /// Every scheme hook, every `SimEngine::step` and every feed read.
    Full,
}

/// Per-request decision clocks and per-hook busy time, filled by
/// [`TimedScheme`].
#[derive(Debug, Default)]
pub struct Recorder {
    /// When the scheme's `install` returned: the first moment the
    /// dispatcher can take a request.
    pub installed_at: Option<Instant>,
    /// Decision latency per verdict, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests scored by a speculative batch and not yet decided: the
    /// batch's start, and whether validation rejected the speculation
    /// (so the next `dispatch` is its fallback).
    open: HashMap<u32, (Instant, bool)>,
    /// Wall time inside scoring calls (`dispatch`, `dispatch_offline`,
    /// `dispatch_batch_speculative`, `validate_speculative`,
    /// `score_window`, `dispatch_to`).
    pub dispatch_busy: Duration,
    /// Scoring calls made.
    pub dispatch_calls: u64,
    /// Wall time inside index hooks (`after_assign`,
    /// `on_taxi_progress`, `on_taxi_removed`). `Probe::Full` only.
    pub index_busy: Duration,
    /// Index hook calls made. `Probe::Full` only.
    pub index_calls: u64,
    /// `dispatch_batch_speculative` calls that returned results.
    pub spec_batches: u64,
    /// Requests those batches speculated.
    pub spec_requests: u64,
    /// Speculative results that `validate_speculative` accepted.
    pub spec_valid: u64,
}

impl Recorder {
    /// Records one latency sample for a verdict reached at `now` by a
    /// call that began at `call_start`. The clock starts at the
    /// speculative batch when the verdict is that batch's validated
    /// result or its fallback `dispatch`, else at the call itself.
    fn verdict(&mut self, req: u32, call_start: Instant, now: Instant, from_batch: bool) {
        let start = match self.open.remove(&req) {
            Some((batch_start, rejected)) if from_batch || rejected => batch_start,
            _ => call_start,
        };
        self.latencies_ms.push((now - start).as_secs_f64() * 1e3);
    }

    fn scored(&mut self, t0: Instant, t1: Instant) {
        self.dispatch_busy += t1 - t0;
        self.dispatch_calls += 1;
    }
}

/// A `DispatchScheme` decorator: forwards every trait method to the
/// wrapped scheme and times it into a [`Recorder`].
///
/// A request's decision clock starts when the scoring call behind its
/// verdict begins, and stops at the verdict. For a request in a
/// speculative batch that call is `dispatch_batch_speculative`, and the
/// verdict is the `validate_speculative` that accepts its result or the
/// fallback `dispatch` that replaces it. Otherwise the call and the
/// verdict are one `dispatch` / `dispatch_offline`. When the simulator
/// abandons the rest of a batch (a commit queued an earlier event), the
/// speculation was wasted work, not a decision: a request scored again
/// later restarts its clock there.
pub struct TimedScheme {
    inner: Box<dyn DispatchScheme>,
    full: bool,
    /// What the decorator measured.
    pub rec: Recorder,
}

impl TimedScheme {
    /// Wraps `inner`; `full` also times the index hooks.
    pub fn new(inner: Box<dyn DispatchScheme>, full: bool) -> Self {
        Self { inner, full, rec: Recorder::default() }
    }

    /// The wrapped scheme, for undecorated runs.
    pub fn inner_mut(&mut self) -> &mut dyn DispatchScheme {
        self.inner.as_mut()
    }

    fn index_hook(&mut self, f: impl FnOnce(&mut dyn DispatchScheme)) {
        if !self.full {
            return f(self.inner.as_mut());
        }
        let t0 = Instant::now();
        f(self.inner.as_mut());
        self.rec.index_busy += t0.elapsed();
        self.rec.index_calls += 1;
    }
}

impl DispatchScheme for TimedScheme {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn install(&mut self, world: &World<'_>) {
        self.inner.install(world);
        self.rec.installed_at = Some(Instant::now());
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs);
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let t0 = Instant::now();
        let out = self.inner.dispatch(req, now, world);
        let t1 = Instant::now();
        self.rec.scored(t0, t1);
        self.rec.verdict(req.id.0, t0, t1, false);
        out
    }

    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        let t0 = Instant::now();
        let out = self.inner.dispatch_offline(req, encountered_by, now, world);
        let t1 = Instant::now();
        self.rec.scored(t0, t1);
        self.rec.verdict(req.id.0, t0, t1, false);
        out
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.index_hook(|s| s.after_assign(taxi, world));
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.index_hook(|s| s.on_taxi_progress(taxi, now, world));
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.index_hook(|s| s.on_taxi_removed(taxi, world));
    }

    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        self.inner.indexed_taxis()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8], world: &World<'_>) -> Result<(), String> {
        self.inner.restore_state(bytes, world)
    }

    fn index_memory_bytes(&self) -> usize {
        self.inner.index_memory_bytes()
    }

    fn uses_probabilistic_routing(&self) -> bool {
        self.inner.uses_probabilistic_routing()
    }

    fn scheduler_stats(&self) -> EngineStats {
        self.inner.scheduler_stats()
    }

    fn dispatch_batch_speculative(
        &mut self,
        reqs: &[RideRequest],
        world: &World<'_>,
    ) -> Option<Vec<SpeculativeOutcome>> {
        let t0 = Instant::now();
        let out = self.inner.dispatch_batch_speculative(reqs, world);
        self.rec.scored(t0, Instant::now());
        if out.is_some() {
            self.rec.spec_batches += 1;
            self.rec.spec_requests += reqs.len() as u64;
            for r in reqs {
                self.rec.open.insert(r.id.0, (t0, false));
            }
        }
        out
    }

    fn validate_speculative(
        &mut self,
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        spec: &SpeculativeOutcome,
    ) -> bool {
        let t0 = Instant::now();
        let valid = self.inner.validate_speculative(req, now, world, spec);
        let t1 = Instant::now();
        self.rec.scored(t0, t1);
        if valid {
            self.rec.spec_valid += 1;
            self.rec.verdict(req.id.0, t0, t1, true);
        } else if let Some(open) = self.rec.open.get_mut(&req.id.0) {
            open.1 = true;
        }
        valid
    }

    fn score_window(
        &mut self,
        reqs: &[RideRequest],
        now: Time,
        world: &World<'_>,
    ) -> Option<Vec<WindowRow>> {
        let t0 = Instant::now();
        let out = self.inner.score_window(reqs, now, world);
        self.rec.scored(t0, Instant::now());
        out
    }

    fn dispatch_to(
        &mut self,
        req: &RideRequest,
        taxi: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        let t0 = Instant::now();
        let out = self.inner.dispatch_to(req, taxi, now, world);
        let t1 = Instant::now();
        self.rec.scored(t0, t1);
        self.rec.verdict(req.id.0, t0, t1, false);
        out
    }
}

/// 64-bit FNV-1a, the digest of a canonical event stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digest of a JSONL trace file as `mtshare --trace-out` writes it.
pub fn file_digest(path: &Path) -> std::io::Result<String> {
    let mut h = Fnv::default();
    h.update(&std::fs::read(path)?);
    Ok(h.hex())
}

/// What [`DigestSink`] saw.
#[derive(Debug, Default, Clone)]
pub struct TraceStats {
    /// Digest of the canonical JSONL stream (each line plus `\n`).
    pub digest: Fnv,
    /// Terminal events (`dropoff` or `reject`) per request id.
    pub terminal: Vec<u32>,
    /// `dropoff` events.
    pub dropoffs: u64,
    /// Requests refused by serve admission (shed, rejected at the
    /// queue, or rejected past a drain).
    pub refused: u64,
}

/// An event sink that hashes the canonical stream instead of writing
/// it, and counts each request's terminal events.
pub struct DigestSink(Arc<Mutex<TraceStats>>);

impl DigestSink {
    /// The sink and a handle to what it records.
    pub fn new() -> (Self, Arc<Mutex<TraceStats>>) {
        let stats = Arc::new(Mutex::new(TraceStats::default()));
        (Self(stats.clone()), stats)
    }
}

impl EventSink for DigestSink {
    fn on_event(&mut self, ev: &Event, line: &str) {
        let mut s = self.0.lock().expect("digest sink poisoned");
        s.digest.update(line.as_bytes());
        s.digest.update(b"\n");
        let req = match *ev {
            Event::Dropoff { req, .. } => {
                s.dropoffs += 1;
                req
            }
            Event::Reject { req, reason, .. } => {
                if matches!(
                    reason,
                    RejectReason::QueueShed
                        | RejectReason::QueueRejected
                        | RejectReason::DrainRejected
                ) {
                    s.refused += 1;
                }
                req
            }
            _ => return,
        };
        let i = req as usize;
        if s.terminal.len() <= i {
            s.terminal.resize(i + 1, 0);
        }
        s.terminal[i] += 1;
    }
}

/// A `BufRead` wrapper that times every read from the serve feed.
pub struct TimedFeed<R> {
    inner: R,
    busy: Arc<Mutex<(Duration, u64)>>,
}

impl<R> TimedFeed<R> {
    /// Wraps `inner`; the handle accumulates (read time, bytes read).
    pub fn new(inner: R) -> (Self, Arc<Mutex<(Duration, u64)>>) {
        let busy = Arc::new(Mutex::new((Duration::ZERO, 0)));
        (Self { inner, busy: busy.clone() }, busy)
    }
}

impl<R: Read> Read for TimedFeed<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t0 = Instant::now();
        let n = self.inner.read(buf);
        let mut busy = self.busy.lock().expect("feed timer poisoned");
        busy.0 += t0.elapsed();
        busy.1 += *n.as_ref().unwrap_or(&0) as u64;
        n
    }
}

impl<R: BufRead> BufRead for TimedFeed<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let t0 = Instant::now();
        let buf = self.inner.fill_buf();
        self.busy.lock().expect("feed timer poisoned").0 += t0.elapsed();
        buf
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
        self.busy.lock().expect("feed timer poisoned").1 += amt as u64;
    }
}

/// One measured process's options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// What the harness times.
    pub probe: Probe,
    /// Enable the obs summary in memory and hash the event stream.
    pub trace: bool,
    /// The recorded feed (serve workloads).
    pub feed: Option<PathBuf>,
    /// The state directory (serve workloads); must not exist yet.
    pub state_dir: Option<PathBuf>,
}

/// Seconds spent in each timed public call and hook, plus counts.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `road::grid_city`.
    pub road_build_s: f64,
    /// Router build (`PathCache::with_backend`, with the CCH build).
    pub router_build_s: f64,
    /// `Scenario::generate`.
    pub scenario_s: f64,
    /// `build_context`.
    pub context_s: f64,
    /// `SchemeKind::build`.
    pub scheme_build_s: f64,
    /// `Simulator::new`, plus `SimEngine::new` up to the scheme's
    /// `install` return.
    pub init_s: f64,
    /// Scoring-call time (decorator).
    pub dispatch_busy_s: f64,
    /// Scoring calls (decorator).
    pub dispatch_calls: u64,
    /// Index-hook time (decorator, `Probe::Full`).
    pub index_busy_s: f64,
    /// Index-hook calls (decorator, `Probe::Full`).
    pub index_calls: u64,
    /// Speculative batches scored.
    pub spec_batches: u64,
    /// Requests speculated.
    pub spec_requests: u64,
    /// Speculations accepted at commit.
    pub spec_valid: u64,
    /// `SimEngine::step` calls (`Probe::Full`, one-shot workloads).
    pub steps: u64,
    /// Wall time inside `SimEngine::step` calls (`Probe::Full`,
    /// one-shot workloads; `serve::serve` steps internally).
    pub step_wall_s: f64,
    /// Wall time from `install` returning to the report.
    pub run_phase_s: f64,
    /// Time inside feed reads (serve, `Probe::Full`).
    pub feed_read_s: f64,
    /// Bytes read from the feed (serve, `Probe::Full`).
    pub feed_bytes: u64,
    /// Bytes in the state directory at the end (serve).
    pub state_bytes: u64,
}

/// What one measured process produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Process start to the scheme's `install` return.
    pub setup_s: f64,
    /// Timed calls and hooks.
    pub layers: Layers,
    /// Requests in the run.
    pub requests: usize,
    /// Requests served.
    pub served: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Requests without exactly one terminal verdict.
    pub unresolved: usize,
    /// Requests refused by serve admission.
    pub refused: usize,
    /// Decision latency samples, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Digest of the canonical event stream (`trace` runs).
    pub digest: Option<String>,
    /// The obs summary (`trace` runs).
    pub summary: Option<String>,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| it.filter_map(|e| e.ok()?.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// Runs one measured process's worth of work for `spec`. `process_start`
/// is when the process began; setup time is measured from it.
pub fn run(spec: &Spec, opts: &RunOptions, process_start: Instant) -> Result<RunResult, String> {
    let mut layers = Layers::default();
    let obs = if opts.trace { Obs::enabled() } else { Obs::disabled() };
    let trace = opts.trace.then(|| {
        let (sink, stats) = DigestSink::new();
        obs.add_sink(Box::new(sink));
        stats
    });

    let (graph, t) = secs(|| spec.city());
    layers.road_build_s = t;
    let (cache, t) = secs(|| {
        let backend = match spec.router {
            Router::Bidir => RouterBackend::Bidir,
            Router::Cch => {
                let _span = obs.stage(mt_share::obs::Stage::PreprocessCh);
                RouterBackend::Cch(Arc::new(CustomizableCh::build(&graph)))
            }
        };
        PathCache::with_backend(graph.clone(), backend)
    });
    layers.router_build_s = t;
    let (mut scenario, t) =
        secs(|| Scenario::generate(graph.clone(), &cache, spec.scenario_config(opts.seed)));
    layers.scenario_s = t;
    if spec.serve {
        // As `mtshare serve` does: the feed replaces the arrival stream.
        scenario.requests = Vec::new();
    }
    let (ctx, t) =
        secs(|| build_context(&graph, &scenario.historical, KAPPA, PartitionStrategy::Bipartite));
    layers.context_s = t;
    let mt_cfg = (spec.parallelism > 1).then(|| {
        MtShareConfig::default()
            .with_parallelism(spec.parallelism)
            .with_scheduler(SchedulerKind::default())
    });
    let (scheme, t) =
        secs(|| SchemeKind::MtShare.build(&graph, scenario.taxis.len(), Some(ctx), mt_cfg));
    layers.scheme_build_s = t;
    let mut timed = TimedScheme::new(scheme, opts.probe == Probe::Full);

    let persist = match (&opts.state_dir, spec.serve) {
        (Some(dir), true) => Some(PersistConfig::new(dir)),
        (None, true) => return Err("serve workloads need a state directory".into()),
        _ => None,
    };
    let sim_cfg = SimConfig { parallelism: spec.parallelism, persist, ..SimConfig::default() };
    let n_nodes = graph.node_count() as u32;
    let init_start = Instant::now();
    let mut sim = Simulator::new(graph, cache, &scenario, sim_cfg).with_obs(obs.clone());
    if spec.serve {
        sim = sim.with_streaming();
    }
    let decorated = opts.probe != Probe::None;
    let scheme: &mut dyn DispatchScheme = if decorated { &mut timed } else { timed.inner_mut() };

    let one_shot = !spec.serve && opts.probe != Probe::Full;
    let report: SimReport = if one_shot {
        // `mtshare simulate`'s call: the run loop lives inside it, so
        // setup ends at the decorator's `install` return.
        match sim.run_to_outcome(scheme) {
            RunOutcome::Finished(report) => report,
            _ => return Err("one-shot run did not finish".into()),
        }
    } else {
        let mut engine = SimEngine::new(sim, &mut *scheme);
        if !decorated {
            timed.rec.installed_at = Some(Instant::now());
        }
        let scheme: &mut dyn DispatchScheme =
            if decorated { &mut timed } else { timed.inner_mut() };
        if spec.serve {
            let path = opts.feed.as_ref().ok_or("serve workloads need a feed")?;
            let feed = open_feed(&path.to_string_lossy())?;
            let serve_opts = ServeOptions {
                queue: AdmissionQueue { capacity: QUEUE_CAPACITY, policy: AdmissionPolicy::Block },
                pace: Pace::Free,
                report_every_s: None,
                n_nodes,
                heartbeat: None,
                feed_faults: None,
            };
            let outcome = if opts.probe == Probe::Full {
                let (feed, busy) = TimedFeed::new(feed);
                let out = mt_share::serve::serve(engine, scheme, feed, serve_opts, &obs, None);
                let (read, bytes) = *busy.lock().expect("feed timer poisoned");
                layers.feed_read_s = read.as_secs_f64();
                layers.feed_bytes = bytes;
                out
            } else {
                mt_share::serve::serve(engine, scheme, feed, serve_opts, &obs, None)
            };
            match outcome.map_err(|e| format!("serve: {e}"))? {
                ServeOutcome::Finished(report) => *report,
                _ => return Err("serve run did not finish".into()),
            }
        } else {
            let mut stepping = Duration::ZERO;
            loop {
                let t0 = Instant::now();
                let step = engine.step(scheme);
                stepping += t0.elapsed();
                layers.steps += 1;
                match step {
                    StepOutcome::Progressed => {}
                    StepOutcome::Done => break,
                    other => return Err(format!("step stopped with {other:?}")),
                }
            }
            layers.step_wall_s = stepping.as_secs_f64();
            engine.finalize(scheme).map_err(|step| format!("finalize failed at step {step}"))?
        }
    };
    let done = Instant::now();
    // Undecorated one-shot runs cannot see `install`: their run phase
    // starts at `Simulator::new`.
    let installed_at = match timed.rec.installed_at {
        Some(at) => at,
        None if !decorated => init_start,
        None => return Err("install was not observed".into()),
    };
    layers.init_s = (installed_at - init_start).as_secs_f64();
    layers.run_phase_s = (done - installed_at).as_secs_f64();
    if let Some(dir) = &opts.state_dir {
        layers.state_bytes = dir_bytes(dir);
    }
    let rec = std::mem::take(&mut timed.rec);
    layers.dispatch_busy_s = rec.dispatch_busy.as_secs_f64();
    layers.dispatch_calls = rec.dispatch_calls;
    layers.index_busy_s = rec.index_busy.as_secs_f64();
    layers.index_calls = rec.index_calls;
    layers.spec_batches = rec.spec_batches;
    layers.spec_requests = rec.spec_requests;
    layers.spec_valid = rec.spec_valid;

    let mut result = RunResult {
        setup_s: (installed_at - process_start).as_secs_f64(),
        requests: report.n_requests,
        served: report.served,
        rejected: report.rejected,
        latencies_ms: rec.latencies_ms,
        ..RunResult::default()
    };
    check_report(&report, &mut result);
    if decorated && !rec.open.is_empty() {
        result.errors.push(format!("{} scored requests never got a verdict", rec.open.len()));
    }
    if let Some(stats) = trace {
        let s = stats.lock().expect("digest sink poisoned").clone();
        check_trace(&s, &mut result);
        result.digest = Some(s.digest.hex());
        result.summary = obs.summary_json();
    }
    result.layers = layers;
    Ok(result)
}

/// Every request ends in exactly one terminal state, as the report
/// counts it.
fn check_report(report: &SimReport, out: &mut RunResult) {
    let accounted = report.served + report.rejected;
    if accounted != report.n_requests {
        out.unresolved = report.n_requests.abs_diff(accounted);
        out.errors.push(format!(
            "served {} + rejected {} != requests {}",
            report.served, report.rejected, report.n_requests
        ));
    }
    let mut ids: Vec<u32> = report.served_records.iter().map(|r| r.request).collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != report.served || report.served_records.len() != report.served {
        out.errors.push(format!(
            "{} served, {} delivery records, {} distinct",
            report.served,
            report.served_records.len(),
            ids.len()
        ));
    }
}

/// Every request has exactly one terminal event in the trace, and
/// serve admission refused nothing.
fn check_trace(s: &TraceStats, out: &mut RunResult) {
    let mut bad = s.terminal.iter().filter(|&&n| n != 1).count();
    bad += out.requests.saturating_sub(s.terminal.len());
    if s.terminal.len() > out.requests {
        out.errors.push(format!(
            "trace names request {} of {}",
            s.terminal.len() - 1,
            out.requests
        ));
    }
    if bad > 0 {
        out.unresolved = out.unresolved.max(bad);
        out.errors.push(format!("{bad} requests without exactly one terminal event"));
    }
    if s.dropoffs != out.served as u64 {
        out.errors.push(format!("{} dropoff events for {} served", s.dropoffs, out.served));
    }
    if s.refused > 0 {
        out.refused = s.refused as usize;
        out.errors.push(format!("admission refused {} requests", s.refused));
    }
}

/// Peak resident set size of this process (`VmHWM`), mebibytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
