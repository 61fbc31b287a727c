//! `baseline` — records and checks the repo's perf baseline.
//!
//! **Record mode** (default) measures the headline throughput numbers of
//! the large-population engine and writes them as machine-readable JSON
//! (`BENCH_10.json`):
//!
//! * **dynamics steps/sec** — a scheduler-free `goc_learning::Dynamics`
//!   run converging
//!   a 100k-miner, 8-hashrate-class, 3-coin game from the all-on-c0
//!   start (best of three runs);
//! * **sim events/sec** — a 100k-rig population aggregated into 8
//!   behaviour cohorts over a two-chain market for 1000 simulated days
//!   (long enough that the timed window is ~100 ms, not timer noise);
//! * **per-scheduler steps/sec** — every `SchedulerKind` converging the
//!   same 100k-miner game through the incremental scheduler protocol
//!   (`Dynamics` with a scheduler, over a `MoveSource`; best of two
//!   runs);
//! * **churn (steps+deltas)/sec** — a scheduler-free `Dynamics` run
//!   absorbing the shared churn fixture (10% population turnover, one
//!   coin launch, one retirement) on the 100k-miner universe (best of
//!   two runs);
//! * **ensemble replicas/sec** — `goc_analysis::ensemble::run` driving
//!   an 8-replica Monte-Carlo ensemble over the 100k-miner fixture on
//!   the work-stealing executor at a **fixed 2 worker threads** (so the
//!   number is comparable between the recording box and CI runners
//!   regardless of their core counts; best of two runs);
//! * **server requests/sec** — a live `goc-server` on an ephemeral
//!   loopback port answering a stream of `RunEnsemble` requests from
//!   one blocking client (wire framing + admission control + dispatch
//!   onto the shared executor, end to end; best of two runs);
//! * **snapshot encode/decode/fork ops/sec** — the binary snapshot
//!   codec over the 100k-miner tracker: `Snapshot::of` + `encode`,
//!   `TryFrom<&[u8]>` (full frame + semantic revalidation), and
//!   `fork_at` (the population fork the ensemble engine performs per
//!   replica; best of two batches each);
//! * **telemetry steps/sec** — the dynamics workload again, but run
//!   through the run-level `DynamicsObserver` on an enabled registry,
//!   gating the cost of its per-run counter adds;
//! * **tracing steps/sec** — the dynamics workload once more, through
//!   the same observer on an *enabled* flight recorder (one
//!   `dynamics_run` span per run), gating the recorder's cheap-when-on
//!   contract the same way `telemetry` gates the metrics layer.
//!
//! **Check mode** (`--check FILE [--tolerance T]`) is the CI perf gate:
//! it re-measures the *same* workloads at the miner counts recorded in
//! `FILE` and fails (exit 1) if any measured throughput drops below
//! `T × recorded` (default `T = 0.5`, i.e. a >50% regression). The
//! failure message names **which** metrics regressed, and a recorded
//! miner count the gate machine cannot allocate (or a degenerate zero)
//! is a named error up front — never a panic or a silent pass. A
//! baseline file that **lacks a layer this binary records** (e.g.
//! gating a pre-5 file without the `ensemble` section) produces a loud
//! warning naming the uncovered layer, so a new layer cannot dodge the
//! gate by pointing it at an old recording.
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
const ENSEMBLE_REPLICAS: usize = 8;

/// Largest recorded ensemble replica count the gate will re-measure —
/// the same defense as [`MAX_GATE_MINERS`]: a corrupt or hand-edited
/// recording must become a named error, not an hours-long re-measure.
const MAX_GATE_REPLICAS: u64 = 1024;

/// Replicas each benchmarked server request asks for — small, so the
/// recorded number is dominated by the wire/admission/dispatch path,
/// not by replica compute.
const SERVER_REPLICAS: usize = 2;

/// Requests of the recorded server workload (full mode).
const SERVER_REQUESTS: usize = 32;

/// Population of the recorded server workload (full mode). Deliberately
/// modest: the ensemble layer already gates 100k-miner compute; this
/// layer gates the service round-trip.
const SERVER_MINERS: usize = 1000;

/// Largest recorded server request count the gate will re-measure.
const MAX_GATE_REQUESTS: u64 = 1024;

/// One measured layer of the baseline.
#[derive(Debug, Serialize, Deserialize)]
struct LayerBaseline {
    /// Population head-count.
    miners: usize,
    /// Work units completed (dynamics steps / sim events).
    work: u64,
    /// Best-of-N wall time in seconds.
    wall_secs: f64,
    /// `work / wall_secs`.
    per_sec: f64,
}

/// Per-scheduler throughput through the incremental protocol.
#[derive(Debug, Serialize, Deserialize)]
struct SchedulerBaseline {
    /// `SchedulerKind` display name.
    scheduler: String,
    /// The measured convergence, as a [`LayerBaseline`].
    layer: LayerBaseline,
}

/// Snapshot-codec throughput: one [`LayerBaseline`] per operation
/// (`work` = codec operations, so `per_sec` is ops/sec).
#[derive(Debug, Serialize, Deserialize)]
struct SnapshotBaseline {
    /// `Snapshot::of` + `Snapshot::encode` over the full tracker.
    encode: LayerBaseline,
    /// `Snapshot::try_from(&[u8])` — frame checks plus the full
    /// semantic revalidation (masses, groups, cursor).
    decode: LayerBaseline,
    /// `Snapshot::fork_at` — the per-replica population fork the
    /// ensemble engine performs instead of rebuilding from scratch.
    fork: LayerBaseline,
}

/// The `BENCH_10.json` schema (a superset of `BENCH_9.json`: the
/// `tracing` section is new and optional on read, so `--check` also
/// accepts the older files — with a loud warning for every layer the
/// file is missing).
#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    /// Baseline generation.
    baseline: u32,
    /// Whether the quick (CI smoke) population was used.
    quick: bool,
    /// How to regenerate this file.
    recorded_by: String,
    /// Incremental best-response dynamics (steps/sec).
    dynamics: LayerBaseline,
    /// Cohort discrete-event simulation (events/sec).
    sim: LayerBaseline,
    /// Incremental scheduler protocol, one entry per `SchedulerKind`
    /// (steps/sec; absent in pre-3 baselines).
    schedulers: Option<Vec<SchedulerBaseline>>,
    /// Churny incremental dynamics: 10% turnover + coin lifecycle
    /// ((steps+deltas)/sec; absent in pre-4 baselines).
    churn: Option<LayerBaseline>,
    /// Monte-Carlo ensemble throughput (replicas/sec at
    /// [`ENSEMBLE_THREADS`] workers; `work` = replicas; absent in
    /// pre-5 baselines).
    ensemble: Option<LayerBaseline>,
    /// Service-layer round-trip throughput over loopback TCP
    /// (requests/sec; `work` = requests; absent in pre-6 baselines).
    server: Option<LayerBaseline>,
    /// Binary snapshot codec throughput (encode/decode/fork ops/sec;
    /// absent in pre-7 baselines).
    snapshot: Option<SnapshotBaseline>,
    /// Observed dynamics: the `dynamics` workload run through a
    /// `DynamicsObserver` on an enabled registry, which adds each run's
    /// numbers to the `goc_dynamics_*` counters (steps/sec; absent in
    /// pre-9 baselines; through `BENCH_10.json` this layer ticked a
    /// counter per step). Gating it alongside `dynamics` keeps telemetry overhead
    /// inside the same regression envelope as the bare engine.
    telemetry: Option<LayerBaseline>,
    /// Flight-recorded dynamics: the `dynamics` workload run through a
    /// `DynamicsObserver` on an *enabled* recorder, which writes one
    /// `dynamics_run` span per run (steps/sec; absent in pre-10
    /// baselines; through `BENCH_10.json` this layer wrote a ring
    /// record per step).
    tracing: Option<LayerBaseline>,
}

fn dynamics_baseline(n: usize, repeats: usize) -> LayerBaseline {
    // The shared scale fixture (`goc_sim::fixtures`): the recorder must
    // measure exactly the workload the `scale`/`schedulers` experiments
    // and the large-population benches run.
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
    LayerBaseline {
        miners: n,
        work: steps as u64,
        wall_secs: best,
        per_sec: steps as f64 / best.max(1e-9),
    }
}

fn sim_baseline(n: usize, repeats: usize) -> LayerBaseline {
    // 1000 simulated days (vs BENCH_2's 10): cohorts compress a 100k-rig
    // population into ~3.5k events per 10 days, and a sub-millisecond
    // timed window would gate on scheduler noise, not throughput. The
    // longer horizon keeps the measured region around 100 ms.
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
    LayerBaseline {
        miners: n,
        work: events,
        wall_secs: best,
        per_sec: events as f64 / best.max(1e-9),
    }
}

fn scheduler_baseline(kind: SchedulerKind, n: usize, repeats: usize) -> SchedulerBaseline {
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
    SchedulerBaseline {
        scheduler: kind.name().to_string(),
        layer: LayerBaseline {
            miners: n,
            work: steps as u64,
            wall_secs: best,
            per_sec: steps as f64 / best.max(1e-9),
        },
    }
}

/// The shared churn workload: the fixture scenario lowered to a game
/// universe plus a step-keyed delta plan (exactly what the `churn`
/// experiment and the churn benches drive; the stride policy lives on
/// `ChurnUniverse::step_deltas`).
fn churn_workload(n: usize) -> (goc_sim::ChurnUniverse, ChurnPlan) {
    let spec = scale_churn_scenario(n, 30.0, 9, 10);
    let universe = goc_sim::churn_universe(&spec, 1e-4).expect("fixture lowers to a universe");
    let plan = ChurnPlan::with_events(
        Some(universe.miner_active.clone()),
        Some(universe.coin_active.clone()),
        universe.step_deltas(n),
    );
    (universe, plan)
}

fn churn_baseline(n: usize, repeats: usize) -> LayerBaseline {
    let (universe, plan) = churn_workload(n);
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
    LayerBaseline {
        miners: n,
        work: work as u64,
        wall_secs: best,
        per_sec: work as f64 / best.max(1e-9),
    }
}

fn ensemble_baseline(n: usize, replicas: usize, repeats: usize) -> LayerBaseline {
    // The ensemble engine's own workload: `replicas` deterministic
    // Monte-Carlo replicas of the scheduler-free dynamics over the scale fixture,
    // random start each, on the work-stealing executor at a fixed
    // thread count (`work` = replicas, so `per_sec` is replicas/sec).
    let spec = EnsembleSpec::new(n, replicas, 9);
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let report = run_ensemble(&spec, ENSEMBLE_THREADS).expect("fixture ensembles run");
        assert_eq!(
            report.aggregate.converged, replicas,
            "ensemble replicas did not all converge"
        );
        best = best.min(report.timing.total_wall_secs);
    }
    LayerBaseline {
        miners: n,
        work: replicas as u64,
        wall_secs: best,
        per_sec: replicas as f64 / best.max(1e-9),
    }
}

/// Codec operations per timed batch — enough that the timed window is
/// milliseconds, not timer noise, at 100k miners.
const SNAPSHOT_OPS: usize = 8;

fn snapshot_baseline(n: usize, repeats: usize) -> SnapshotBaseline {
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

    let layer = |wall_secs: f64| LayerBaseline {
        miners: n,
        work: SNAPSHOT_OPS as u64,
        wall_secs,
        per_sec: SNAPSHOT_OPS as f64 / wall_secs.max(1e-9),
    };
    SnapshotBaseline {
        encode: layer(encode_best),
        decode: layer(decode_best),
        fork: layer(fork_best),
    }
}

/// The exact `dynamics` workload, but run through a [`DynamicsObserver`]
/// on `observe`: one `dynamics_run` span and the `goc_dynamics_*`
/// counter adds per run. The recorded steps/sec is gated like any other
/// layer, so run-level observation cannot silently grow per-step work.
fn observed_baseline(n: usize, repeats: usize, observe: &Observe) -> LayerBaseline {
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
    LayerBaseline {
        miners: n,
        work: steps as u64,
        wall_secs: best,
        per_sec: steps as f64 / best.max(1e-9),
    }
}

fn telemetry_baseline(n: usize, repeats: usize) -> LayerBaseline {
    // The metrics half of the observer, on an *enabled* registry.
    let observe = Observe {
        registry: Registry::new(),
        ..Observe::off()
    };
    let layer = observed_baseline(n, repeats, &observe);
    // Deterministic dynamics: every repeat walks the same steps, and
    // the registry (shared across repeats by metric name) must have
    // counted all of them.
    assert_eq!(
        observe
            .registry
            .snapshot()
            .counter("goc_dynamics_steps_total"),
        Some(layer.work * repeats as u64),
        "telemetry missed steps"
    );
    layer
}

fn tracing_baseline(n: usize, repeats: usize) -> LayerBaseline {
    // The trace half of the observer, on an *enabled* recorder at the
    // default lane capacity.
    let observe = Observe {
        tracer: TraceRecorder::new(DEFAULT_LANE_CAPACITY),
        ..Observe::off()
    };
    let layer = observed_baseline(n, repeats, &observe);
    // One span (begin + end) per run, each retained or counted as
    // dropped.
    let snapshot = observe.tracer.snapshot();
    assert_eq!(
        snapshot.events.len() as u64 + snapshot.dropped,
        2 * repeats as u64,
        "the recorder lost records"
    );
    layer
}

fn server_baseline(n: usize, requests: usize, repeats: usize) -> LayerBaseline {
    // End to end over real loopback TCP: framing, admission control,
    // and the dispatch of each `RunEnsemble` onto the shared executor.
    // One blocking client, so the number is a round-trip latency
    // reciprocal, not a concurrency measure (the `serve` experiment
    // covers concurrency; this gates the per-request path).
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let config = ServerConfig {
            threads: ENSEMBLE_THREADS,
            session_budget: requests as u64 + 1,
            ..ServerConfig::default()
        };
        let server =
            Server::bind(config, Box::new(EnsembleOnlyBackend)).expect("server binds on loopback");
        let addr = server.local_addr().expect("bound servers have an address");
        let handle = std::thread::spawn(move || server.run().expect("server drains cleanly"));
        let mut client = Client::connect(addr).expect("client connects");
        let clock = Instant::now();
        for i in 0..requests {
            let spec = EnsembleSpec::new(n, SERVER_REPLICAS, 9 + i as u64);
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
    LayerBaseline {
        miners: n,
        work: requests as u64,
        wall_secs: best,
        per_sec: requests as f64 / best.max(1e-9),
    }
}

fn record(quick: bool, out: &Path) -> ExitCode {
    let n = if quick { 10_000 } else { 100_000 };
    let server_requests = if quick {
        SERVER_REQUESTS / 2
    } else {
        SERVER_REQUESTS
    };
    let baseline = Baseline {
        baseline: 10,
        quick,
        recorded_by: "cargo run --release -p goc-bench --bin baseline".into(),
        dynamics: dynamics_baseline(n, 3),
        sim: sim_baseline(n, 3),
        schedulers: Some(
            SchedulerKind::ALL
                .into_iter()
                .map(|kind| scheduler_baseline(kind, n, 2))
                .collect(),
        ),
        churn: Some(churn_baseline(n, 2)),
        ensemble: Some(ensemble_baseline(n, ENSEMBLE_REPLICAS, 2)),
        server: Some(server_baseline(SERVER_MINERS, server_requests, 2)),
        snapshot: Some(snapshot_baseline(n, 2)),
        telemetry: Some(telemetry_baseline(n, 2)),
        tracing: Some(tracing_baseline(n, 2)),
    };
    println!(
        "dynamics: {} miners, {} steps in {:.3} s -> {:.0} steps/sec",
        baseline.dynamics.miners,
        baseline.dynamics.work,
        baseline.dynamics.wall_secs,
        baseline.dynamics.per_sec
    );
    println!(
        "sim:      {} miners, {} events in {:.3} s -> {:.0} events/sec",
        baseline.sim.miners, baseline.sim.work, baseline.sim.wall_secs, baseline.sim.per_sec
    );
    for entry in baseline.schedulers.as_deref().unwrap_or(&[]) {
        println!(
            "sched:    {:<22} {} steps in {:.3} s -> {:.0} steps/sec",
            entry.scheduler, entry.layer.work, entry.layer.wall_secs, entry.layer.per_sec
        );
    }
    if let Some(churn) = &baseline.churn {
        println!(
            "churn:    {} miners, {} steps+deltas in {:.3} s -> {:.0} /sec",
            churn.miners, churn.work, churn.wall_secs, churn.per_sec
        );
    }
    if let Some(ensemble) = &baseline.ensemble {
        println!(
            "ensemble: {} miners, {} replicas in {:.3} s -> {:.2} replicas/sec \
             ({ENSEMBLE_THREADS} threads)",
            ensemble.miners, ensemble.work, ensemble.wall_secs, ensemble.per_sec
        );
    }
    if let Some(server) = &baseline.server {
        println!(
            "server:   {} miners/request, {} requests in {:.3} s -> {:.1} requests/sec",
            server.miners, server.work, server.wall_secs, server.per_sec
        );
    }
    if let Some(snapshot) = &baseline.snapshot {
        for (label, layer) in [
            ("encode", &snapshot.encode),
            ("decode", &snapshot.decode),
            ("fork", &snapshot.fork),
        ] {
            println!(
                "snapshot: {:<6} {} miners, {} ops in {:.3} s -> {:.1} ops/sec",
                label, layer.miners, layer.work, layer.wall_secs, layer.per_sec
            );
        }
    }
    if let Some(telemetry) = &baseline.telemetry {
        println!(
            "telemetry: {} miners, {} steps in {:.3} s -> {:.0} steps/sec instrumented \
             ({:.0}% of bare dynamics)",
            telemetry.miners,
            telemetry.work,
            telemetry.wall_secs,
            telemetry.per_sec,
            100.0 * telemetry.per_sec / baseline.dynamics.per_sec.max(1e-9)
        );
    }
    if let Some(tracing) = &baseline.tracing {
        println!(
            "tracing:  {} miners, {} steps in {:.3} s -> {:.0} steps/sec flight-recorded \
             ({:.0}% of bare dynamics)",
            tracing.miners,
            tracing.work,
            tracing.wall_secs,
            tracing.per_sec,
            100.0 * tracing.per_sec / baseline.dynamics.per_sec.max(1e-9)
        );
    }
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

/// Validates that a recorded layer is something this machine can
/// honestly re-measure: a zero or absurd miner count means the file is
/// corrupt or was recorded on hardware this gate cannot emulate — a
/// named error, never a panic mid-allocation or a silent pass.
fn checkable(label: &str, recorded: &LayerBaseline) -> Result<(), String> {
    if recorded.miners == 0 {
        return Err(format!(
            "baseline metric `{label}` records a zero miner count — the file is corrupt"
        ));
    }
    if recorded.miners > MAX_GATE_MINERS {
        return Err(format!(
            "baseline metric `{label}` records {} miners, beyond the {MAX_GATE_MINERS} this \
             machine can allocate for the gate — re-record the baseline on gate-class hardware",
            recorded.miners
        ));
    }
    Ok(())
}

/// One gate comparison; pushes the label onto `regressed` on failure.
fn gate(
    label: &str,
    measured: &LayerBaseline,
    recorded: &LayerBaseline,
    tolerance: f64,
    regressed: &mut Vec<String>,
) {
    let floor = recorded.per_sec * tolerance;
    let ok = measured.per_sec >= floor;
    println!(
        "{} {label:<28} measured {:>12.0}/s vs recorded {:>12.0}/s (floor {:>12.0}/s)",
        if ok { "[PASS]" } else { "[FAIL]" },
        measured.per_sec,
        recorded.per_sec,
        floor
    );
    if !ok {
        regressed.push(label.to_string());
    }
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
    println!(
        "perf gate: re-measuring {} (baseline {}) at tolerance {tolerance}",
        file.display(),
        recorded.baseline
    );
    // A missing layer means the gate is NOT covering a workload this
    // binary records — warn loudly instead of silently passing, so a
    // newly added layer cannot dodge the gate by pointing it at an
    // older BENCH_*.json.
    let missing: Vec<&str> = [
        ("schedulers", recorded.schedulers.is_none()),
        ("churn", recorded.churn.is_none()),
        ("ensemble", recorded.ensemble.is_none()),
        ("server", recorded.server.is_none()),
        ("snapshot", recorded.snapshot.is_none()),
        ("telemetry", recorded.telemetry.is_none()),
        ("tracing", recorded.tracing.is_none()),
    ]
    .into_iter()
    .filter_map(|(layer, absent)| absent.then_some(layer))
    .collect();
    if !missing.is_empty() {
        eprintln!(
            "warning: {} lacks the {} layer(s) this binary records — those workloads are \
             UNGATED; re-record with `cargo run --release -p goc-bench --bin baseline`",
            file.display(),
            missing.join(", ")
        );
    }
    // Refuse unallocatable or corrupt recordings up front, by name.
    let mut layers: Vec<(&str, &LayerBaseline)> =
        vec![("dynamics", &recorded.dynamics), ("sim", &recorded.sim)];
    for entry in recorded.schedulers.as_deref().unwrap_or(&[]) {
        layers.push(("scheduler", &entry.layer));
    }
    if let Some(churn) = &recorded.churn {
        layers.push(("churn", churn));
    }
    if let Some(ensemble) = &recorded.ensemble {
        layers.push(("ensemble", ensemble));
    }
    if let Some(server) = &recorded.server {
        layers.push(("server", server));
    }
    if let Some(snapshot) = &recorded.snapshot {
        layers.push(("snapshot/encode", &snapshot.encode));
        layers.push(("snapshot/decode", &snapshot.decode));
        layers.push(("snapshot/fork", &snapshot.fork));
    }
    if let Some(telemetry) = &recorded.telemetry {
        layers.push(("telemetry", telemetry));
    }
    if let Some(tracing) = &recorded.tracing {
        layers.push(("tracing", tracing));
    }
    for (label, layer) in &layers {
        if let Err(e) = checkable(label, layer) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut regressed: Vec<String> = Vec::new();
    let mut ok = true;
    // Re-measure at the *recorded* miner counts so the comparison is
    // apples-to-apples, with fewer repeats than a recording run.
    gate(
        "dynamics",
        &dynamics_baseline(recorded.dynamics.miners, 2),
        &recorded.dynamics,
        tolerance,
        &mut regressed,
    );
    gate(
        "sim",
        &sim_baseline(recorded.sim.miners, 2),
        &recorded.sim,
        tolerance,
        &mut regressed,
    );
    for entry in recorded.schedulers.as_deref().unwrap_or(&[]) {
        let Some(kind) = SchedulerKind::ALL
            .into_iter()
            .find(|k| k.name() == entry.scheduler)
        else {
            eprintln!("error: unknown recorded scheduler `{}`", entry.scheduler);
            ok = false;
            continue;
        };
        gate(
            &format!("scheduler/{}", entry.scheduler),
            &scheduler_baseline(kind, entry.layer.miners, 2).layer,
            &entry.layer,
            tolerance,
            &mut regressed,
        );
    }
    if let Some(churn) = &recorded.churn {
        gate(
            "churn",
            &churn_baseline(churn.miners, 2),
            churn,
            tolerance,
            &mut regressed,
        );
    }
    if let Some(ensemble) = &recorded.ensemble {
        if ensemble.work == 0 || ensemble.work > MAX_GATE_REPLICAS {
            eprintln!(
                "error: baseline metric `ensemble` records {} replicas, outside the gate's \
                 1..={MAX_GATE_REPLICAS} envelope — the file is corrupt or was recorded for a \
                 workload this gate will not re-measure",
                ensemble.work
            );
            ok = false;
        } else {
            gate(
                "ensemble",
                &ensemble_baseline(ensemble.miners, ensemble.work as usize, 2),
                ensemble,
                tolerance,
                &mut regressed,
            );
        }
    }
    if let Some(server) = &recorded.server {
        if server.work == 0 || server.work > MAX_GATE_REQUESTS {
            eprintln!(
                "error: baseline metric `server` records {} requests, outside the gate's \
                 1..={MAX_GATE_REQUESTS} envelope — the file is corrupt or was recorded for a \
                 workload this gate will not re-measure",
                server.work
            );
            ok = false;
        } else {
            gate(
                "server",
                &server_baseline(server.miners, server.work as usize, 2),
                server,
                tolerance,
                &mut regressed,
            );
        }
    }
    if let Some(snapshot) = &recorded.snapshot {
        // All three codec ops are re-measured at the recorded miner
        // count in one pass (they share the tracker build).
        let measured = snapshot_baseline(snapshot.encode.miners, 2);
        for (label, measured, recorded) in [
            ("snapshot/encode", &measured.encode, &snapshot.encode),
            ("snapshot/decode", &measured.decode, &snapshot.decode),
            ("snapshot/fork", &measured.fork, &snapshot.fork),
        ] {
            gate(label, measured, recorded, tolerance, &mut regressed);
        }
    }
    if let Some(telemetry) = &recorded.telemetry {
        gate(
            "telemetry",
            &telemetry_baseline(telemetry.miners, 2),
            telemetry,
            tolerance,
            &mut regressed,
        );
    }
    if let Some(tracing) = &recorded.tracing {
        gate(
            "tracing",
            &tracing_baseline(tracing.miners, 2),
            tracing,
            tolerance,
            &mut regressed,
        );
    }
    if ok && regressed.is_empty() {
        println!("perf gate passed");
        ExitCode::SUCCESS
    } else {
        if !regressed.is_empty() {
            eprintln!(
                "error: throughput regressed below tolerance × recorded baseline for: {}",
                regressed.join(", ")
            );
        }
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
