//! `baseline` — records and checks the repo's perf baseline.
//!
//! The baseline is one flat table of named layers, each a measured
//! workload's `{ name, miners, work, wall_secs, per_sec }`. **Record
//! mode** (default) measures every layer and writes the table as
//! machine-readable JSON (`BENCH_10.json`):
//!
//! * `dynamics` (steps/sec) — a scheduler-free `goc_learning::Dynamics`
//!   run converging a 100k-miner, 8-hashrate-class, 3-coin game from the
//!   all-on-c0 start (best of three runs);
//! * `sim` (events/sec) — a 100k-rig population aggregated into 8
//!   behaviour cohorts over a two-chain market for 1000 simulated days
//!   (long enough that the timed window is ~100 ms, not timer noise;
//!   best of three runs);
//! * `scheduler/<kind>` (steps/sec) — every `SchedulerKind` converging
//!   the same 100k-miner game through the incremental scheduler
//!   protocol (`Dynamics` with a scheduler, over a `MoveSource`);
//! * `churn` ((steps+deltas)/sec) — a scheduler-free `Dynamics` run
//!   absorbing the shared churn fixture (10% population turnover, one
//!   coin launch, one retirement) on the 100k-miner universe;
//! * `ensemble` (replicas/sec) — `goc_analysis::ensemble::run` driving
//!   an 8-replica Monte-Carlo ensemble over the 100k-miner fixture on
//!   the work-stealing executor at a **fixed 2 worker threads** (so the
//!   number is comparable between the recording box and CI runners
//!   regardless of their core counts);
//! * `server` (requests/sec) — a live `goc-server` on an ephemeral
//!   loopback port answering a stream of 1000-miner `RunEnsemble`
//!   requests from one blocking client (wire framing + admission
//!   control + dispatch onto the shared executor, end to end);
//! * `snapshot/{encode,decode,fork}` (ops/sec) — the binary snapshot
//!   codec over the 100k-miner tracker: `Snapshot::of` + `encode`,
//!   `TryFrom<&[u8]>` (full frame + semantic revalidation), and
//!   `fork_at` (the population fork the ensemble engine performs per
//!   replica); the three ops share one tracker build;
//! * `telemetry` (steps/sec) — the dynamics workload again, but run
//!   through the run-level `DynamicsObserver` on an enabled registry,
//!   gating the cost of its per-run counter adds;
//! * `tracing` (steps/sec) — the dynamics workload once more, through
//!   the same observer on an *enabled* flight recorder (one
//!   `dynamics_run` span per run), gating the recorder's cheap-when-on
//!   contract the same way `telemetry` gates the metrics layer.
//!
//! Layers without a stated repeat count are best of two runs.
//!
//! What the layers cannot see: `dynamics`, `scheduler/*`, `telemetry`
//! and `tracing` start every miner on coin 0, so movers leave each class
//! in ascending id order and every group-index insert is a push onto the
//! end of its class. The cost of inserting into the middle of a large
//! class (the group index's run layout, `crates/game/src/tracker.rs`)
//! never shows in them. `ensemble` is the layer that can see it: its
//! replicas start from random configurations, where almost every step
//! inserts mid-class.
//! `--quick` (the CI smoke mode) measures the same layers at 10k miners
//! and 16 server requests.
//!
//! **Check mode** (`--check FILE [--tolerance T]`) is the CI perf gate:
//! it re-measures every layer at the miner counts (and ensemble
//! replica / server request counts) recorded in `FILE` and fails
//! (exit 1) if any measured throughput drops below `T × recorded`
//! (default `T = 0.5`, i.e. a >50% regression), naming **which** layers
//! regressed. Before measuring anything it validates the whole file: a
//! missing, unknown or duplicated layer, a miner count the gate machine
//! cannot allocate, a zero or oversized work count, or a wall time or
//! throughput that is not a finite positive number is a named error and
//! a failing exit — never a panic, a silent pass, or an ungated layer.
//!
//! ```text
//! cargo run --release -p goc-bench --bin baseline            # full, writes BENCH_10.json
//! cargo run --release -p goc-bench --bin baseline -- --quick # CI smoke (10k miners)
//! cargo run --release -p goc-bench --bin baseline -- --out custom.json
//! cargo run --release -p goc-bench --bin baseline -- --check BENCH_10.json --tolerance 0.5
//! ```
//!
//! Re-record after a perf-relevant change by re-running the full mode on
//! quiet hardware and committing the refreshed `BENCH_10.json`. Keep the
//! tolerance loose: the gate is meant to catch order-of-magnitude
//! regressions (an accidentally quadratic path), not CI-runner noise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use goc_analysis::ensemble::{run as run_ensemble, EnsembleSpec};
use goc_game::{CoinId, Configuration, MassTracker, Snapshot};
use goc_learning::{ChurnPlan, Dynamics, DynamicsObserver, SchedulerKind};
use goc_proto::{Client, ReportPayload, Request, Response};
use goc_server::{EnsembleOnlyBackend, Server, ServerConfig};
use goc_sim::fixtures::{scale_churn_scenario, scale_class_game, scale_cohort_scenario};
use goc_telemetry::trace::{TraceRecorder, DEFAULT_LANE_CAPACITY};
use goc_telemetry::{Observe, Registry};
use serde::{Deserialize, Serialize};

/// Largest recorded miner count the gate will re-measure. Each miner
/// costs a few hundred bytes across the tracker's index structures, so
/// populations beyond this bound exceed what a CI-class machine can
/// allocate — the gate refuses with a named error instead of OOMing.
const MAX_GATE_MINERS: usize = 2_000_000;

/// Worker threads of the recorded ensemble workload. Fixed (not
/// "available cores") so the recorded replicas/sec is comparable
/// between the recording machine and the CI gate runner.
const ENSEMBLE_THREADS: usize = 2;

/// Replicas of the recorded ensemble workload.
const ENSEMBLE_REPLICAS: u64 = 8;

/// Largest recorded ensemble replica count the gate will re-measure —
/// the same defense as [`MAX_GATE_MINERS`]: a corrupt or hand-edited
/// recording must become a named error, not an hours-long re-measure.
const MAX_GATE_REPLICAS: u64 = 1024;

/// Replicas each benchmarked server request asks for — small, so the
/// recorded number is dominated by the wire/admission/dispatch path,
/// not by replica compute.
const SERVER_REPLICAS: usize = 2;

/// Requests of the recorded server workload (full mode).
const SERVER_REQUESTS: u64 = 32;

/// Population of the recorded server workload. Deliberately modest:
/// the ensemble layer already gates 100k-miner compute; this layer
/// gates the service round-trip.
const SERVER_MINERS: usize = 1000;

/// Largest recorded server request count the gate will re-measure.
const MAX_GATE_REQUESTS: u64 = 1024;

/// Codec operations per timed snapshot batch — enough that the timed
/// window is milliseconds, not timer noise, at 100k miners.
const SNAPSHOT_OPS: u64 = 8;

/// Repeats of every layer in check mode (fewer than a recording run).
const CHECK_REPEATS: usize = 2;

/// One measured layer of the baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Layer {
    /// Layer name, one of [`layer_names`].
    name: String,
    /// Population head-count.
    miners: usize,
    /// Work units completed (steps, events, replicas, requests, ops).
    work: u64,
    /// Best-of-N wall time in seconds.
    wall_secs: f64,
    /// `work / wall_secs`.
    per_sec: f64,
}

/// The `BENCH_10.json` schema.
#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    /// Baseline generation.
    baseline: u32,
    /// Whether the quick (CI smoke) population was used.
    quick: bool,
    /// How to regenerate this file.
    recorded_by: String,
    /// Every measured layer, in [`layer_names`] order.
    layers: Vec<Layer>,
}

impl Baseline {
    fn layer(&self, name: &str) -> Option<&Layer> {
        self.layers.iter().find(|layer| layer.name == name)
    }
}

/// `(work, best wall_secs)` of one measured layer.
type Timed = (u64, f64);

/// A measured workload. Each yields one layer, except [`Workload::Snapshot`],
/// whose three codec ops share one tracker build.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Dynamics,
    Sim,
    Scheduler(SchedulerKind),
    Churn,
    Ensemble,
    Server,
    Snapshot,
    Telemetry,
    Tracing,
}

impl Workload {
    /// Every workload, in the order `record` writes its layers.
    fn all() -> impl Iterator<Item = Workload> {
        [Workload::Dynamics, Workload::Sim]
            .into_iter()
            .chain(SchedulerKind::ALL.into_iter().map(Workload::Scheduler))
            .chain([
                Workload::Churn,
                Workload::Ensemble,
                Workload::Server,
                Workload::Snapshot,
                Workload::Telemetry,
                Workload::Tracing,
            ])
    }

    /// The names of the layers this workload measures.
    fn names(self) -> Vec<String> {
        match self {
            Workload::Dynamics => vec!["dynamics".into()],
            Workload::Sim => vec!["sim".into()],
            Workload::Scheduler(kind) => vec![format!("scheduler/{}", kind.name())],
            Workload::Churn => vec!["churn".into()],
            Workload::Ensemble => vec!["ensemble".into()],
            Workload::Server => vec!["server".into()],
            Workload::Snapshot => ["encode", "decode", "fork"]
                .map(|op| format!("snapshot/{op}"))
                .to_vec(),
            Workload::Telemetry => vec!["telemetry".into()],
            Workload::Tracing => vec!["tracing".into()],
        }
    }

    /// `(miners, work, repeats)` of a recording run. `work` is the
    /// replica / request count for `ensemble` / `server` and unused by
    /// every other workload, whose work is whatever convergence takes.
    fn record_plan(self, quick: bool) -> (usize, u64, usize) {
        let n = if quick { 10_000 } else { 100_000 };
        match self {
            Workload::Dynamics | Workload::Sim => (n, 0, 3),
            Workload::Ensemble => (n, ENSEMBLE_REPLICAS, 2),
            Workload::Server if quick => (SERVER_MINERS, SERVER_REQUESTS / 2, 2),
            Workload::Server => (SERVER_MINERS, SERVER_REQUESTS, 2),
            _ => (n, 0, 2),
        }
    }

    /// Measures this workload's layers at `miners` (and `work`, see
    /// [`Workload::record_plan`]), best of `repeats` runs.
    fn measure(self, miners: usize, work: u64, repeats: usize) -> Vec<Layer> {
        let timed: Vec<Timed> = match self {
            Workload::Dynamics => vec![dynamics(miners, repeats)],
            Workload::Sim => vec![sim(miners, repeats)],
            Workload::Scheduler(kind) => vec![scheduler(kind, miners, repeats)],
            Workload::Churn => vec![churn(miners, repeats)],
            Workload::Ensemble => vec![ensemble(miners, work, repeats)],
            Workload::Server => vec![server(miners, work, repeats)],
            Workload::Snapshot => snapshot(miners, repeats).to_vec(),
            Workload::Telemetry => vec![telemetry(miners, repeats)],
            Workload::Tracing => vec![tracing(miners, repeats)],
        };
        self.names()
            .into_iter()
            .zip(timed)
            .map(|(name, (work, wall_secs))| Layer {
                name,
                miners,
                work,
                wall_secs,
                per_sec: work as f64 / wall_secs.max(1e-9),
            })
            .collect()
    }
}

/// Every layer name this binary records, in file order.
fn layer_names() -> Vec<String> {
    Workload::all().flat_map(Workload::names).collect()
}

fn dynamics(n: usize, repeats: usize) -> Timed {
    // The shared scale fixture (`goc_sim::fixtures`): the recorder must
    // measure exactly the workload the `scale`/`schedulers` experiments
    // run.
    let game = scale_class_game(n);
    let start = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
    let mut best = f64::INFINITY;
    let mut steps = 0usize;
    for _ in 0..repeats {
        let clock = Instant::now();
        let outcome = Dynamics::new(&game).start(&start).run().expect("converges");
        assert!(outcome.converged, "dynamics did not converge");
        best = best.min(clock.elapsed().as_secs_f64());
        steps = outcome.steps;
    }
    (steps as u64, best)
}

fn sim(n: usize, repeats: usize) -> Timed {
    // 1000 simulated days: cohorts compress a 100k-rig population into
    // ~3.5k events per 10 days, and a sub-millisecond timed window would
    // gate on scheduler noise, not throughput. The longer horizon keeps
    // the measured region around 100 ms.
    let spec = scale_cohort_scenario(n, 1000.0, 9);
    let mut best = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..repeats {
        let mut sim = spec.build().expect("cohort spec builds");
        let clock = Instant::now();
        let metrics = sim.run();
        best = best.min(clock.elapsed().as_secs_f64());
        events = metrics.total_events;
    }
    (events, best)
}

fn scheduler(kind: SchedulerKind, n: usize, repeats: usize) -> Timed {
    let game = scale_class_game(n);
    let start = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
    let mut best = f64::INFINITY;
    let mut steps = 0usize;
    for rep in 0..repeats {
        let mut sched = kind.build(5);
        let clock = Instant::now();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(sched.as_mut())
            .run()
            .expect("bundled schedulers are legal");
        assert!(outcome.converged, "{kind} did not converge at rep {rep}");
        best = best.min(clock.elapsed().as_secs_f64());
        steps = outcome.steps;
    }
    (steps as u64, best)
}

fn churn(n: usize, repeats: usize) -> Timed {
    // The shared churn workload: the fixture scenario lowered to a game
    // universe plus a step-keyed delta plan (exactly what the `churn`
    // experiment drives; the stride policy lives on
    // `ChurnUniverse::step_deltas`).
    let spec = scale_churn_scenario(n, 30.0, 9, 10);
    let universe = goc_sim::churn_universe(&spec, 1e-4).expect("fixture lowers to a universe");
    let plan = ChurnPlan::with_events(
        Some(universe.miner_active.clone()),
        Some(universe.coin_active.clone()),
        universe.step_deltas(n),
    );
    let mut best = f64::INFINITY;
    let mut work = 0usize;
    for _ in 0..repeats {
        let clock = Instant::now();
        let outcome = Dynamics::new(&universe.game)
            .start(&universe.start)
            .churn(&plan)
            .run()
            .expect("churn dynamics converge");
        assert!(outcome.converged, "churn dynamics did not converge");
        best = best.min(clock.elapsed().as_secs_f64());
        work = outcome.steps + outcome.churn_applied;
    }
    (work as u64, best)
}

fn ensemble(n: usize, replicas: u64, repeats: usize) -> Timed {
    // The ensemble engine's own workload: `replicas` deterministic
    // Monte-Carlo replicas of the scheduler-free dynamics over the scale fixture,
    // random start each, on the work-stealing executor at a fixed
    // thread count (`work` = replicas, so `per_sec` is replicas/sec).
    let spec = EnsembleSpec::new(n, replicas as usize, 9);
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let report = run_ensemble(&spec, ENSEMBLE_THREADS).expect("fixture ensembles run");
        assert_eq!(
            report.aggregate.converged, replicas as usize,
            "ensemble replicas did not all converge"
        );
        best = best.min(report.timing.total_wall_secs);
    }
    (replicas, best)
}

fn server(n: usize, requests: u64, repeats: usize) -> Timed {
    // End to end over real loopback TCP: framing, admission control,
    // and the dispatch of each `RunEnsemble` onto the shared executor.
    // One blocking client, so the number is a round-trip latency
    // reciprocal, not a concurrency measure (the `serve` experiment
    // covers concurrency; this gates the per-request path).
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let config = ServerConfig {
            threads: ENSEMBLE_THREADS,
            session_budget: requests + 1,
            ..ServerConfig::default()
        };
        let server =
            Server::bind(config, Box::new(EnsembleOnlyBackend)).expect("server binds on loopback");
        let addr = server.local_addr().expect("bound servers have an address");
        let handle = std::thread::spawn(move || server.run().expect("server drains cleanly"));
        let mut client = Client::connect(addr).expect("client connects");
        let clock = Instant::now();
        for i in 0..requests {
            let spec = EnsembleSpec::new(n, SERVER_REPLICAS, 9 + i);
            let reply = client
                .request(Request::RunEnsemble { spec })
                .expect("request round-trips");
            assert!(
                matches!(
                    reply.terminal(),
                    Response::Report(ReportPayload::Ensemble(_))
                ),
                "request was not served: {:?}",
                reply.terminal()
            );
        }
        best = best.min(clock.elapsed().as_secs_f64());
        drop(client);
        let mut closer = Client::connect(addr).expect("shutdown client connects");
        let reply = closer
            .request(Request::Shutdown)
            .expect("shutdown round-trips");
        assert!(
            matches!(
                reply.terminal(),
                Response::Report(ReportPayload::ShutdownAck)
            ),
            "server did not acknowledge shutdown"
        );
        handle.join().expect("server thread exits");
    }
    (requests, best)
}

/// `[encode, decode, fork]`, [`SNAPSHOT_OPS`] codec operations each.
fn snapshot(n: usize, repeats: usize) -> [Timed; 3] {
    let game = scale_class_game(n);
    let start = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
    let tracker = MassTracker::new(&game, &start).expect("valid tracker");
    let bytes = Snapshot::of(&tracker).encode();

    let mut encode_best = f64::INFINITY;
    for _ in 0..repeats {
        let clock = Instant::now();
        for _ in 0..SNAPSHOT_OPS {
            let encoded = Snapshot::of(&tracker).encode();
            assert_eq!(encoded.len(), bytes.len(), "encoding is deterministic");
        }
        encode_best = encode_best.min(clock.elapsed().as_secs_f64());
    }

    let mut decode_best = f64::INFINITY;
    let mut decoded: Option<Snapshot> = None;
    for _ in 0..repeats {
        let clock = Instant::now();
        for _ in 0..SNAPSHOT_OPS {
            decoded = Some(Snapshot::try_from(bytes.as_slice()).expect("own encoding decodes"));
        }
        decode_best = decode_best.min(clock.elapsed().as_secs_f64());
    }
    let decoded = decoded.expect("at least one decode ran");

    // The population fork at a start *different* from the snapshot's
    // own (the ensemble forks at each replica's random start, which is
    // never the recorded one): full bulk group rebuild, no shortcuts.
    let alt = Configuration::uniform(CoinId(1), game.system()).expect("fixture has ≥ 2 coins");
    let mut fork_best = f64::INFINITY;
    for _ in 0..repeats {
        let clock = Instant::now();
        for _ in 0..SNAPSHOT_OPS {
            let fork = decoded.fork_at(&alt).expect("valid start");
            assert_eq!(fork.active_miner_count(), n, "forks carry the population");
        }
        fork_best = fork_best.min(clock.elapsed().as_secs_f64());
    }

    [encode_best, decode_best, fork_best].map(|best| (SNAPSHOT_OPS, best))
}

/// The exact `dynamics` workload, but run through a [`DynamicsObserver`]
/// on `observe`: one `dynamics_run` span and the `goc_dynamics_*`
/// counter adds per run. The recorded steps/sec is gated like any other
/// layer, so run-level observation cannot silently grow per-step work.
fn observed(n: usize, repeats: usize, observe: &Observe) -> Timed {
    let game = scale_class_game(n);
    let start = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
    let observer = DynamicsObserver::new(observe);
    let lane = observe.tracer.lane();
    let mut best = f64::INFINITY;
    let mut steps = 0usize;
    for _ in 0..repeats {
        let clock = Instant::now();
        let outcome = observer
            .run(Dynamics::new(&game).start(&start), &lane, 0)
            .expect("observed dynamics converge");
        best = best.min(clock.elapsed().as_secs_f64());
        assert!(outcome.converged, "observed dynamics did not converge");
        steps = outcome.steps;
    }
    (steps as u64, best)
}

fn telemetry(n: usize, repeats: usize) -> Timed {
    // The metrics half of the observer, on an *enabled* registry.
    let observe = Observe {
        registry: Registry::new(),
        ..Observe::off()
    };
    let (steps, best) = observed(n, repeats, &observe);
    // Deterministic dynamics: every repeat walks the same steps, and
    // the registry (shared across repeats by metric name) must have
    // counted all of them.
    assert_eq!(
        observe
            .registry
            .snapshot()
            .counter("goc_dynamics_steps_total"),
        Some(steps * repeats as u64),
        "telemetry missed steps"
    );
    (steps, best)
}

fn tracing(n: usize, repeats: usize) -> Timed {
    // The trace half of the observer, on an *enabled* recorder at the
    // default lane capacity.
    let observe = Observe {
        tracer: TraceRecorder::new(DEFAULT_LANE_CAPACITY),
        ..Observe::off()
    };
    let timed = observed(n, repeats, &observe);
    // One span (begin + end) per run, each retained or counted as
    // dropped.
    let snapshot = observe.tracer.snapshot();
    assert_eq!(
        snapshot.events.len() as u64 + snapshot.dropped,
        2 * repeats as u64,
        "the recorder lost records"
    );
    timed
}

fn record(quick: bool, out: &Path) -> ExitCode {
    let mut layers = Vec::new();
    for workload in Workload::all() {
        let (miners, work, repeats) = workload.record_plan(quick);
        for layer in workload.measure(miners, work, repeats) {
            println!(
                "{:<32} {} miners, {} work in {:.3} s -> {:.1}/s",
                layer.name, layer.miners, layer.work, layer.wall_secs, layer.per_sec
            );
            layers.push(layer);
        }
    }
    let baseline = Baseline {
        baseline: 10,
        quick,
        recorded_by: "cargo run --release -p goc-bench --bin baseline".into(),
        layers,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    match std::fs::write(out, json + "\n") {
        Ok(()) => {
            println!("[written {}]", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// Every reason `baseline` cannot be honestly re-measured and gated,
/// each naming its layer. The layer names must equal [`layer_names`]
/// (a missing layer would leave its workload ungated), and each layer
/// must record a population this machine can allocate, a work count
/// inside the gate's envelope, and a finite positive wall time and
/// throughput (a `per_sec` ≤ 0 would put the floor at or below zero,
/// so the layer would pass whatever it measured).
fn validate(baseline: &Baseline) -> Result<(), Vec<String>> {
    let expected = layer_names();
    let mut errors = Vec::new();
    for name in &expected {
        match baseline.layers.iter().filter(|l| &l.name == name).count() {
            0 => errors.push(format!(
                "layer `{name}` is missing, so its workload would be ungated"
            )),
            1 => {}
            count => errors.push(format!("layer `{name}` is recorded {count} times")),
        }
    }
    for layer in &baseline.layers {
        let name = &layer.name;
        if !expected.contains(name) {
            errors.push(format!("layer `{name}` is unknown to this binary"));
            continue;
        }
        if !(1..=MAX_GATE_MINERS).contains(&layer.miners) {
            errors.push(format!(
                "layer `{name}` records {} miners, outside the gate's 1..={MAX_GATE_MINERS}: \
                 the file is corrupt or was recorded on hardware this gate cannot emulate",
                layer.miners
            ));
        }
        let max_work = match name.as_str() {
            "ensemble" => MAX_GATE_REPLICAS,
            "server" => MAX_GATE_REQUESTS,
            _ => u64::MAX,
        };
        if layer.work == 0 {
            errors.push(format!("layer `{name}` records zero work"));
        } else if layer.work > max_work {
            errors.push(format!(
                "layer `{name}` records {} work units, beyond the {max_work} this gate will \
                 re-measure",
                layer.work
            ));
        }
        for (field, value) in [("wall_secs", layer.wall_secs), ("per_sec", layer.per_sec)] {
            if !(value.is_finite() && value > 0.0) {
                errors.push(format!(
                    "layer `{name}` records {field} = {value}, not a finite positive number"
                ));
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// One gate comparison; returns whether `measured` clears the floor.
fn gate(measured: &Layer, recorded: &Layer, tolerance: f64) -> bool {
    let floor = recorded.per_sec * tolerance;
    let ok = measured.per_sec >= floor;
    println!(
        "{} {:<28} measured {:>12.0}/s vs recorded {:>12.0}/s (floor {:>12.0}/s)",
        if ok { "[PASS]" } else { "[FAIL]" },
        measured.name,
        measured.per_sec,
        recorded.per_sec,
        floor
    );
    ok
}

fn check(file: &Path, tolerance: f64) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    let recorded: Baseline = match serde_json::from_str(&text) {
        Ok(recorded) => recorded,
        Err(e) => {
            eprintln!(
                "error: {} does not parse as a baseline: {e}",
                file.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if let Err(errors) = validate(&recorded) {
        for error in errors {
            eprintln!("error: {}: {error}", file.display());
        }
        return ExitCode::FAILURE;
    }
    println!(
        "perf gate: re-measuring {} (baseline {}) at tolerance {tolerance}",
        file.display(),
        recorded.baseline
    );
    let mut regressed: Vec<String> = Vec::new();
    // Re-measure at the *recorded* miner (and replica / request) counts
    // so the comparison is apples-to-apples.
    for workload in Workload::all() {
        let plan = recorded
            .layer(&workload.names()[0])
            .expect("validated baselines hold every layer");
        for measured in workload.measure(plan.miners, plan.work, CHECK_REPEATS) {
            let layer = recorded
                .layer(&measured.name)
                .expect("validated baselines hold every layer");
            if !gate(&measured, layer, tolerance) {
                regressed.push(measured.name);
            }
        }
    }
    if regressed.is_empty() {
        println!("perf gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: throughput regressed below tolerance × recorded baseline for: {}",
            regressed.join(", ")
        );
        ExitCode::FAILURE
    }
}

fn default_out() -> PathBuf {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if repo_root.is_dir() {
        repo_root.join("BENCH_10.json")
    } else {
        PathBuf::from("BENCH_10.json")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = default_out();
    let mut check_file: Option<PathBuf> = None;
    let mut tolerance = 0.5f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("error: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match it.next() {
                Some(path) => check_file = Some(PathBuf::from(path)),
                None => {
                    eprintln!("error: --check needs a baseline file");
                    return ExitCode::FAILURE;
                }
            },
            "--tolerance" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(t)) if t > 0.0 && t <= 1.0 => tolerance = t,
                _ => {
                    eprintln!("error: --tolerance needs a value in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "error: unknown flag `{other}` (supported: --quick, --out FILE, \
                     --check FILE, --tolerance T)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match check_file {
        Some(file) => check(&file, tolerance),
        None => record(quick, &out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline the CI gate checks.
    const COMMITTED: &str = include_str!("../../../../BENCH_10.json");

    fn committed() -> Baseline {
        serde_json::from_str(COMMITTED).expect("BENCH_10.json parses")
    }

    fn refusals(baseline: &Baseline) -> Vec<String> {
        validate(baseline).expect_err("the baseline is refused")
    }

    #[test]
    fn the_committed_baseline_is_gateable() {
        let baseline = committed();
        assert_eq!(validate(&baseline), Ok(()));
        let names: Vec<String> = baseline.layers.iter().map(|l| l.name.clone()).collect();
        assert_eq!(names, layer_names());
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn the_committed_baseline_keeps_its_recorded_numbers() {
        let baseline = committed();
        assert_eq!(
            baseline.layer("dynamics"),
            Some(&Layer {
                name: "dynamics".into(),
                miners: 100000,
                work: 45000,
                wall_secs: 0.041670771,
                per_sec: 1079893.6261582489,
            })
        );
        assert_eq!(
            baseline.layer("server"),
            Some(&Layer {
                name: "server".into(),
                miners: 1000,
                work: 32,
                wall_secs: 0.04104117,
                per_sec: 779.7048670883407,
            })
        );
    }

    #[test]
    fn a_degenerate_throughput_is_refused_by_name() {
        let mut baseline = committed();
        baseline.layers[3].per_sec = 0.0;
        let errors = refusals(&baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("`scheduler/uniform-random`"),
            "{errors:?}"
        );
        assert!(errors[0].contains("per_sec"), "{errors:?}");
    }

    #[test]
    fn corrupt_counts_and_times_are_refused_by_name() {
        let mut baseline = committed();
        for layer in &mut baseline.layers {
            match layer.name.as_str() {
                "dynamics" => layer.miners = 0,
                "sim" => layer.miners = MAX_GATE_MINERS + 1,
                "churn" => layer.work = 0,
                "ensemble" => layer.work = MAX_GATE_REPLICAS + 1,
                "server" => layer.work = MAX_GATE_REQUESTS + 1,
                "telemetry" => layer.wall_secs = f64::NAN,
                "tracing" => layer.per_sec = f64::INFINITY,
                _ => {}
            }
        }
        let errors = refusals(&baseline);
        assert_eq!(errors.len(), 7, "{errors:?}");
        for name in [
            "dynamics",
            "sim",
            "churn",
            "ensemble",
            "server",
            "telemetry",
            "tracing",
        ] {
            let quoted = format!("`{name}`");
            assert!(errors.iter().any(|e| e.contains(&quoted)), "{errors:?}");
        }
    }

    #[test]
    fn a_missing_or_unknown_layer_is_refused_by_name() {
        let mut baseline = committed();
        baseline.layers.retain(|l| l.name != "tracing");
        let errors = refusals(&baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("`tracing` is missing"), "{errors:?}");

        let mut baseline = committed();
        let mut extra = baseline.layers[2].clone();
        extra.name = "scheduler/nope".into();
        baseline.layers.push(extra);
        let errors = refusals(&baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("`scheduler/nope` is unknown"),
            "{errors:?}"
        );

        let mut baseline = committed();
        let twice = baseline.layers[0].clone();
        baseline.layers.push(twice);
        let errors = refusals(&baseline);
        assert!(
            errors[0].contains("`dynamics` is recorded 2 times"),
            "{errors:?}"
        );
    }
}
