//! The traced run: serve a seed-chosen sample of a workload's requests,
//! then replay each one on one thread through the layers' public calls,
//! in the order `ensemble::run` makes them, timing every call.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use goc_analysis::ensemble::aggregate::{
    EquilibriumKey, FingerprintIndex, QuantileSketch, Welford,
};
use goc_analysis::ensemble::executor::{replica_seed, run_indexed};
use goc_analysis::ensemble::{self, EnsembleReport, EnsembleSpec};
use goc_game::gen::random_config;
use goc_game::{CoinId, Configuration, Game, MassTracker, Snapshot};
use goc_learning::{
    run_incremental_from, run_with_churn, ChurnPlan, LearningOptions, LearningOutcome,
    SchedulerKind,
};
use goc_proto::{Connection, ReportPayload, Request, RequestEnvelope, Response, ResponseEnvelope};
use goc_sim::churn_universe;
use goc_sim::fixtures::{scale_churn_base, scale_class_game};

use crate::measure::{median, Metrics};
use crate::service::{check_report, exchange, scrape, Live};
use crate::workload::{Requests, Workload};

/// `ensemble::run`'s churn-universe time resolution.
const CHURN_RESOLUTION: f64 = 1e-4;
/// Rows `ensemble::run` keeps in its equilibrium census.
const CENSUS_ROWS: usize = 12;
/// Executor calls timed per request for `analysis.spawn_us`.
const SPAWN_PROBES: usize = 16;

/// What the replay measured: seconds per call (one entry per call), the
/// snapshot sizes, and exact step and churn-delta totals.
#[derive(Default)]
struct Stages {
    class_game: Vec<f64>,
    tracker_build: Vec<f64>,
    snapshot_encode: Vec<f64>,
    snapshot_decode: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    start_config: Vec<f64>,
    fork: Vec<f64>,
    churn_universe: Vec<f64>,
    churn_plan: Vec<f64>,
    dynamics: Vec<f64>,
    reduce: Vec<f64>,
    fold: Vec<f64>,
    per_kind: BTreeMap<&'static str, Vec<f64>>,
    steps: u64,
    churn_deltas: u64,
}

impl Stages {
    /// Every replayed second, for `trace.coverage`.
    fn total(&self) -> f64 {
        [
            &self.class_game,
            &self.tracker_build,
            &self.snapshot_encode,
            &self.snapshot_decode,
            &self.start_config,
            &self.fork,
            &self.churn_universe,
            &self.churn_plan,
            &self.dynamics,
            &self.reduce,
            &self.fold,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum()
    }
}

/// Runs `f`, appending its wall time in seconds to `into`.
fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let clock = Instant::now();
    let out = f();
    into.push(clock.elapsed().as_secs_f64());
    out
}

/// What one replica leaves for the fold.
struct Record {
    steps: usize,
    converged: bool,
    churn_applied: usize,
    key: EquilibriumKey,
    potential: f64,
    welfare: f64,
}

/// The equilibrium key, potential and welfare of a final state, as the
/// ensemble reduces it.
fn reduce(
    game: &Game,
    config: &Configuration,
    activity: Option<(&[bool], &[bool])>,
) -> (EquilibriumKey, f64, f64) {
    let system = game.system();
    let k = system.num_coins();
    let mut masses = vec![0u128; k];
    let live = match activity {
        None => {
            let table = config.masses(system);
            for (c, mass) in masses.iter_mut().enumerate() {
                *mass = table.mass_of(CoinId(c));
            }
            vec![true; k]
        }
        Some((miners, coins)) => {
            for p in system.miner_ids() {
                if miners[p.index()] {
                    masses[config.coin_of(p).index()] += u128::from(system.power_of(p));
                }
            }
            coins.to_vec()
        }
    };
    let (mut potential, mut welfare) = (0.0f64, 0.0f64);
    for c in (0..k).filter(|&c| live[c]) {
        if masses[c] == 0 {
            potential = f64::INFINITY;
        } else {
            potential += 1.0 / masses[c] as f64;
            welfare += game.rewards().of(CoinId(c)).to_f64();
        }
    }
    (EquilibriumKey { masses, live }, potential, welfare)
}

fn record(outcome: LearningOutcome, reduced: (EquilibriumKey, f64, f64)) -> Record {
    let (key, potential, welfare) = reduced;
    Record {
        steps: outcome.steps,
        converged: outcome.converged,
        churn_applied: outcome.churn_applied,
        key,
        potential,
        welfare,
    }
}

/// `scale_class_game` → `MassTracker::new` → `Snapshot::of(..).encode()`
/// → `Snapshot::try_from`, then per replica `replica_seed` →
/// `random_config` → `fork_at` → `run_incremental_from`.
fn replay_shared(spec: &EnsembleSpec, s: &mut Stages) -> Result<Vec<Record>, String> {
    let game = timed(&mut s.class_game, || scale_class_game(spec.miners));
    let tracker = timed(&mut s.tracker_build, || {
        let start = Configuration::uniform(CoinId(0), game.system()).map_err(|e| e.to_string())?;
        MassTracker::new(&game, &start).map_err(|e| e.to_string())
    })?;
    let bytes = timed(&mut s.snapshot_encode, || Snapshot::of(&tracker).encode());
    s.snapshot_bytes.push(bytes.len() as f64);
    let snapshot = timed(&mut s.snapshot_decode, || {
        Snapshot::try_from(bytes.as_slice()).map_err(|e| e.to_string())
    })?;
    drop(tracker);
    let mut records = Vec::with_capacity(spec.replicas);
    for index in 0..spec.replicas {
        let start = timed(&mut s.start_config, || {
            let mut rng = SmallRng::seed_from_u64(replica_seed(spec.seed, index));
            random_config(&mut rng, snapshot.game().system())
        });
        let tracker = timed(&mut s.fork, || snapshot.fork_at(&start)).map_err(|e| e.to_string())?;
        let outcome = timed(&mut s.dynamics, || {
            run_incremental_from(
                tracker,
                LearningOptions::default(),
                &ChurnPlan::default(),
                None,
            )
        })
        .map_err(|e| e.to_string())?;
        let reduced = timed(&mut s.reduce, || {
            reduce(snapshot.game(), &outcome.final_config, None)
        });
        records.push(record(outcome, reduced));
    }
    Ok(records)
}

/// Per replica: `scale_churn_base` + the spec's churn → `churn_universe`
/// → `ChurnPlan::with_events` → `kind.build(seed)` → `run_with_churn`.
fn replay_churn(
    spec: &EnsembleSpec,
    kind: SchedulerKind,
    s: &mut Stages,
) -> Result<Vec<Record>, String> {
    let mut records = Vec::with_capacity(spec.replicas);
    for index in 0..spec.replicas {
        let seed = replica_seed(spec.seed, index);
        let universe = timed(&mut s.churn_universe, || {
            let mut scenario = scale_churn_base(spec.miners, spec.horizon_days, seed);
            scenario.name = format!("{}_r{seed:x}", spec.name);
            scenario.churn = spec.churn.clone();
            churn_universe(&scenario, CHURN_RESOLUTION)
        })
        .map_err(|e| e.to_string())?;
        let (plan, mut scheduler) = timed(&mut s.churn_plan, || {
            let plan = ChurnPlan::with_events(
                Some(universe.miner_active.clone()),
                Some(universe.coin_active.clone()),
                universe.step_deltas(spec.miners),
            );
            (plan, kind.build(seed))
        });
        let clock = Instant::now();
        let outcome = run_with_churn(
            &universe.game,
            &universe.start,
            scheduler.as_mut(),
            LearningOptions::default(),
            &plan,
        )
        .map_err(|e| e.to_string())?;
        let wall = clock.elapsed().as_secs_f64();
        s.dynamics.push(wall);
        s.per_kind.entry(kind.name()).or_default().push(wall);
        let reduced = timed(&mut s.reduce, || {
            let (miners, coins) = outcome
                .final_activity
                .as_ref()
                .ok_or("churn runs report activity")?;
            Ok::<_, String>(reduce(
                &universe.game,
                &outcome.final_config,
                Some((miners, coins)),
            ))
        })?;
        records.push(record(outcome, reduced));
    }
    Ok(records)
}

/// Replays one request and checks the replay against the served
/// aggregate: if the step and churn-delta counts differ, the replay
/// measured a different program.
fn replay(spec: &EnsembleSpec, served: &EnsembleReport, s: &mut Stages) -> Result<(), String> {
    let records = match (spec.scheduler, &spec.churn) {
        (None, None) => replay_shared(spec, s)?,
        (Some(kind), Some(_)) => replay_churn(spec, kind, s)?,
        _ => return Err(format!("no replay for the shape of `{}`", spec.name)),
    };
    let (steps, converged, churn_deltas, census) = timed(&mut s.fold, || {
        let mut steps = Welford::new();
        let mut sketch = QuantileSketch::new();
        let mut index = FingerprintIndex::new();
        let (mut converged, mut churn_deltas) = (0usize, 0u64);
        for r in &records {
            steps.push(r.steps as f64);
            sketch.push(r.steps as f64);
            churn_deltas += r.churn_applied as u64;
            if r.converged {
                converged += 1;
                index.record(r.key.clone(), r.potential, r.welfare);
            }
        }
        std::hint::black_box(sketch.quantile(0.9));
        (
            steps.summary(),
            converged,
            churn_deltas,
            index.census(CENSUS_ROWS),
        )
    });
    s.steps += records.iter().map(|r| r.steps as u64).sum::<u64>();
    s.churn_deltas += churn_deltas;
    let agg = &served.aggregate;
    if steps.n != agg.steps.n
        || steps.mean != agg.steps.mean
        || churn_deltas != agg.churn_deltas
        || converged != agg.converged
        || census != agg.equilibria
    {
        return Err(format!(
            "replay of `{}` seed {} is unfaithful: steps n {} mean {} churn {} converged {} \
             vs served n {} mean {} churn {} converged {}",
            spec.name,
            spec.seed,
            steps.n,
            steps.mean,
            churn_deltas,
            converged,
            agg.steps.n,
            agg.steps.mean,
            agg.churn_deltas,
            agg.converged
        ));
    }
    Ok(())
}

/// Times the wire format on one request's real envelopes, over an
/// in-memory buffer: request encode, request decode, report encode and
/// report decode, in that order. Returns the report frame's bytes.
fn proto_costs(
    id: u64,
    spec: &EnsembleSpec,
    report: &EnsembleReport,
    into: &mut [Vec<f64>; 4],
) -> Result<usize, String> {
    let request = RequestEnvelope::new(id, Request::RunEnsemble { spec: spec.clone() });
    let response = ResponseEnvelope::new(
        id,
        Response::Report(ReportPayload::Ensemble(report.clone())),
    );
    let [req_enc, req_dec, rep_enc, rep_dec] = into;
    let mut out = Connection::new(Vec::new());
    timed(req_enc, || out.send_request(&request)).map_err(|e| e.to_string())?;
    let mut back = Connection::new(Cursor::new(out.into_inner()));
    let decoded = timed(req_dec, || back.recv_request()).map_err(|e| e.to_string())?;
    let mut out = Connection::new(Vec::new());
    timed(rep_enc, || out.send_response(&response)).map_err(|e| e.to_string())?;
    let bytes = out.into_inner();
    let frame_bytes = bytes.len();
    let mut back = Connection::new(Cursor::new(bytes));
    let decoded_report = timed(rep_dec, || back.recv_response()).map_err(|e| e.to_string())?;
    if decoded != request || decoded_report != response {
        return Err(format!("envelopes of `{}` do not round-trip", spec.name));
    }
    Ok(frame_bytes)
}

/// Runs the traced measurement and returns the result line.
pub fn run(workload: Workload, seed: u64) -> Result<(bool, String), String> {
    let requests = Requests::new(workload, seed);
    let mut live = Live::boot(workload)?;
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let client = &mut live.clients[0];
    // Warm both sides the same way, so that the paired wire-minus-local
    // gap compares two warmed allocators.
    for j in 0..workload.warmup_requests() {
        let spec = requests.warmup(j);
        exchange(client, &spec)?;
        ensemble::run(&spec, 2).map_err(|e| e.to_string())?;
    }
    let mut scraper = match live.scraper.take() {
        Some(scraper) => scraper,
        None => goc_proto::Client::connect(live.addr).map_err(|e| e.to_string())?,
    };

    let (mut wire, mut local2, mut local1, mut spawn, mut efficiency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut scrapes, mut exposition) = (Vec::new(), Vec::new());
    let mut proto: [Vec<f64>; 4] = Default::default();
    let mut report_bytes = Vec::new();
    let mut stages = Stages::default();
    let first = requests.replay_start();
    // Every request sent counts: the warm-up batch, the replayed
    // requests and the scrapes beside them.
    let mut attempted = workload.warmup_requests();
    for i in first..first + workload.replay_requests() {
        let spec = requests.timed(i);
        // One failure at most per request sent: the ensemble request
        // fails on the first check it fails, the scrape on its own.
        let mut fail = |why: String| {
            failed += 1;
            if problems.len() < 8 {
                problems.push(why);
            }
        };
        attempted += 1;
        let clock = Instant::now();
        let served = exchange(&mut live.clients[0], &spec);
        let latency = clock.elapsed().as_secs_f64();
        let served = match served.and_then(|r| check_report(&spec, &r).map(|()| r)) {
            Ok(report) => {
                wire.push(latency);
                report
            }
            Err(why) => {
                fail(why);
                continue;
            }
        };
        attempted += 1;
        let clock = Instant::now();
        match scrape(&mut scraper) {
            Ok(len) => {
                scrapes.push(clock.elapsed().as_secs_f64());
                exposition.push(len as f64);
            }
            Err(why) => fail(why),
        }
        let proto_check =
            proto_costs(i, &spec, &served, &mut proto).map(|bytes| report_bytes.push(bytes as f64));
        for _ in 0..SPAWN_PROBES {
            timed(&mut spawn, || run_indexed(spec.replicas, 2, |_| ()))
                .map_err(|e| e.to_string())?;
        }
        let parallel = ensemble::run(&spec, 2).map_err(|e| e.to_string())?;
        local2.push(parallel.timing.total_wall_secs);
        let t = &parallel.timing;
        efficiency.push(
            t.replica_wall_secs.mean * t.replica_wall_secs.n as f64 / (2.0 * t.total_wall_secs),
        );
        let clock = Instant::now();
        let single = ensemble::run(&spec, 1).map_err(|e| e.to_string())?;
        local1.push(clock.elapsed().as_secs_f64());
        let checked = proto_check
            .and_then(|()| {
                (single.deterministic_json() == served.deterministic_json())
                    .then_some(())
                    .ok_or(format!(
                        "local run of `{}` differs from the served report",
                        spec.name
                    ))
            })
            .and_then(|()| replay(&spec, &served, &mut stages));
        if let Err(why) = checked {
            fail(why);
        }
    }
    drop(scraper);
    live.shutdown()?;

    let ms = |v: &[f64]| median(v) * 1e3;
    let us = |v: &[f64]| median(v) * 1e6;
    // Paired per request, so the spread of request sizes cancels.
    let gaps: Vec<f64> = wire.iter().zip(&local2).map(|(w, l)| w - l).collect();
    let overhead_us = median(&gaps) * 1e6;
    let dynamics_s: f64 = stages.dynamics.iter().sum();
    let mut m = Metrics::default();
    m.push("proto.request_encode_us", us(&proto[0]), "us");
    m.push("proto.request_decode_us", us(&proto[1]), "us");
    m.push("proto.report_encode_us", us(&proto[2]), "us");
    m.push("proto.report_decode_us", us(&proto[3]), "us");
    m.push("proto.report_bytes", median(&report_bytes), "bytes");
    m.push("server.overhead_us", overhead_us, "us");
    m.push("telemetry.scrape_ms", ms(&scrapes), "ms");
    m.push("telemetry.exposition_bytes", median(&exposition), "bytes");
    m.push("analysis.spawn_us", us(&spawn), "us");
    m.push("analysis.ensemble_ms", ms(&local2), "ms");
    m.push("analysis.parallel_efficiency", median(&efficiency), "ratio");
    m.push("analysis.fold_us", us(&stages.fold), "us");
    m.push("analysis.reduce_us", us(&stages.reduce), "us");
    m.push("sim.class_game_ms", ms(&stages.class_game), "ms");
    m.push("game.tracker_build_ms", ms(&stages.tracker_build), "ms");
    m.push("sim.churn_universe_ms", ms(&stages.churn_universe), "ms");
    m.push("game.snapshot_encode_ms", ms(&stages.snapshot_encode), "ms");
    m.push("game.snapshot_decode_ms", ms(&stages.snapshot_decode), "ms");
    m.push(
        "game.snapshot_bytes",
        median(&stages.snapshot_bytes),
        "bytes",
    );
    m.push("game.start_config_us", us(&stages.start_config), "us");
    m.push("game.fork_ms", ms(&stages.fork), "ms");
    m.push("learning.churn_plan_ms", ms(&stages.churn_plan), "ms");
    m.push("learning.dynamics_ms", ms(&stages.dynamics), "ms");
    m.push("learning.steps", stages.steps as f64, "count");
    m.push(
        "learning.steps_per_s",
        stages.steps as f64 / dynamics_s,
        "1/s",
    );
    m.push("learning.churn_deltas", stages.churn_deltas as f64, "count");
    for kind in SchedulerKind::ALL {
        let wall = stages.per_kind.get(kind.name()).map_or(0.0, |v| ms(v));
        m.push(format!("learning.{}.dynamics_ms", kind.name()), wall, "ms");
    }
    let local1_s: f64 = local1.iter().sum();
    m.push("trace.coverage", stages.total() / local1_s, "ratio");
    m.push(
        "trace.wire_share",
        overhead_us / 1e6 / median(&wire),
        "ratio",
    );

    let correct = failed == 0;
    eprintln!(
        "perfbench: {{\"replayed\": {}, \"problems\": {}}}",
        wire.len(),
        serde_json::to_string(&problems).expect("strings serialize")
    );
    Ok((correct, m.result_line(correct, attempted, failed)))
}
