//! # The parallel ensemble engine
//!
//! The paper's central claims are **distributional**: better-response
//! dynamics converge to *some* pure Nash equilibrium (Theorem 1), and
//! which one — and how fast — depends on the schedule and the seed.
//! A single trajectory samples that distribution once; this module is
//! the instrument that maps it. An [`EnsembleSpec`] names a replica
//! count, a population, an optional scheduler and churn plan, and a
//! **root seed**; [`run`] executes the replicas on the work-stealing
//! [`executor`] (each replica's RNG stream derived from the root seed by
//! [`executor::replica_seed`]) and folds the outcomes through the
//! streaming [`aggregate`] layer: Welford moments of convergence steps,
//! bounded-memory step percentiles, and the equilibrium fingerprint
//! index behind distinct-equilibria counts, hit frequencies, and the
//! empirical price-of-anarchy/stability ratios.
//!
//! **One universe per key:** replicas never build their population
//! themselves. The ensemble builds the universe tracker once, captures
//! it with [`Snapshot::of`], and every replica forks that image. A
//! [`Universes`] slot keeps the last universe built, so a caller that
//! runs many ensembles over one population (the server) builds it once.
//! The binary codec is not on this path; its faithfulness is pinned by
//! the snapshot round-trip suite and the determinism suite.
//!
//! **Determinism:** the same root seed produces a bit-identical
//! [`EnsembleAggregate`] regardless of the worker-thread count — replica
//! seeds are a pure function of `(root, index)` and the fold runs in
//! replica order over input-ordered executor output. Wall-clock numbers
//! live apart in [`EnsembleTiming`] (field names follow the repo's
//! `secs`/`per_sec` timing conventions, so the golden comparator strips
//! them); [`EnsembleReport::deterministic_json`] serializes exactly the
//! thread-invariant part, which
//! `crates/analysis/tests/ensemble_determinism.rs` pins across
//! `threads ∈ {1, 2, 8}`, unobserved and with observation fully on.
//! [`run_observed`] records on the caller's [`Observe`] handle and reuses
//! the caller's [`Universes`]; [`run`] is the same call over
//! [`Observe::off`] and a fresh slot.

pub mod aggregate;
pub mod executor;

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use goc_game::{gen::random_config, CoinId, Configuration, Game, MassTracker, Snapshot};
use goc_learning::{ChurnPlan, Dynamics, DynamicsObserver, SchedulerKind};
use goc_sim::fixtures::{scale_churn_base, scale_class_game};
use goc_sim::{churn_timeline, churn_universe, stride_deltas, ChurnSpec, ScenarioSpec};

use goc_telemetry::trace::{TraceEventKind, TraceLane};
use goc_telemetry::Observe;

use aggregate::{
    EquilibriumCensus, EquilibriumKey, FingerprintIndex, QuantileSketch, Welford, WelfordSummary,
};
use executor::{replica_seed, run_indexed};

/// Resolution (fraction of a rig's hashrate) used when quantizing churn
/// scenarios to integer game powers — the same constant the `churn`
/// experiment and the `BENCH_*.json` recorder pass to
/// [`goc_sim::churn_universe`].
const CHURN_RESOLUTION: f64 = 1e-4;

/// Census rows listed in reports (aggregate statistics always cover
/// every distinct equilibrium; only the listing is capped).
const CENSUS_ROWS: usize = 12;

/// A declarative Monte-Carlo ensemble: `replicas` independent runs of
/// the better-response dynamics over the shared scale fixture
/// population, each replica seeded from `seed` by
/// [`executor::replica_seed`].
///
/// * Every replica is one [`goc_learning::Dynamics`] run.
///   `scheduler: None` lets the tracker's own group round-robin pick
///   (the fast path for large populations); `Some(kind)` lets that
///   kind pick through the incremental protocol, seeded per replica.
/// * `churn: Some(spec)` lowers the fixture cohort scenario plus this
///   churn plan to a per-replica delta stream
///   ([`goc_sim::churn_universe`]) that the replica's run interleaves
///   with its better-response steps. The plan follows the fixture
///   shape: coin 2 is the launchable `upstart` chain
///   (see [`goc_sim::fixtures::scale_churn_base`]).
/// * Without churn, replicas start from an independent uniformly random
///   configuration; with churn they start from the universe's cohort
///   start and the randomness enters through the churn timeline and the
///   scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSpec {
    /// Display name (reports and artifacts).
    pub name: String,
    /// Number of Monte-Carlo replicas (≥ 1).
    pub replicas: usize,
    /// Population head-count of the scale fixture game.
    pub miners: usize,
    /// Scheduler kind, or `None` for the scheduler-free incremental
    /// loop.
    pub scheduler: Option<SchedulerKind>,
    /// Optional churn plan applied to the fixture cohort scenario.
    pub churn: Option<ChurnSpec>,
    /// Horizon (days) used when lowering a churn plan.
    pub horizon_days: f64,
    /// Root seed; replica `i` uses `replica_seed(seed, i)`.
    pub seed: u64,
}

impl EnsembleSpec {
    /// A churn-free ensemble over `miners` with the incremental loop.
    pub fn new(miners: usize, replicas: usize, seed: u64) -> Self {
        EnsembleSpec {
            name: format!("ensemble_{miners}x{replicas}"),
            replicas,
            miners,
            scheduler: None,
            churn: None,
            horizon_days: 30.0,
            seed,
        }
    }

    /// Pins the scheduler kind (replica-seeded).
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = Some(kind);
        self
    }

    /// Attaches the shared churn fixture's plan at the given population
    /// turnover target (percent) — the same arrival/departure processes
    /// plus one coin launch and one retirement that the `churn`
    /// experiment and `BENCH_*.json` drive.
    pub fn with_churn(mut self, turnover_pct: u32) -> Self {
        self.churn = goc_sim::fixtures::scale_churn_scenario(
            self.miners,
            self.horizon_days,
            0,
            turnover_pct,
        )
        .churn;
        self
    }

    /// The scheduler's display name (`incremental` for the
    /// scheduler-free loop).
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.map_or("incremental", SchedulerKind::name)
    }

    /// Validates the numeric envelope.
    ///
    /// # Errors
    ///
    /// [`EnsembleError::InvalidSpec`] when the ensemble is degenerate
    /// (no replicas, no miners, or a non-positive horizon).
    pub fn validate(&self) -> Result<(), EnsembleError> {
        if self.replicas == 0 {
            return Err(EnsembleError::InvalidSpec("replicas must be ≥ 1".into()));
        }
        if self.miners == 0 {
            return Err(EnsembleError::InvalidSpec("miners must be ≥ 1".into()));
        }
        if !self.horizon_days.is_finite() || self.horizon_days <= 0.0 {
            return Err(EnsembleError::InvalidSpec(
                "horizon_days must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Errors of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EnsembleError {
    /// The spec fails its numeric envelope (see
    /// [`EnsembleSpec::validate`]).
    InvalidSpec(String),
    /// A replica failed (learning error or churn-lowering error); the
    /// smallest failing replica index is reported.
    Replica {
        /// Replica index.
        replica: usize,
        /// Stringified underlying error.
        error: String,
    },
    /// A replica panicked inside the executor.
    Panicked(executor::WorkerPanic),
}

impl fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsembleError::InvalidSpec(why) => write!(f, "invalid ensemble spec: {why}"),
            EnsembleError::Replica { replica, error } => {
                write!(f, "replica {replica} failed: {error}")
            }
            EnsembleError::Panicked(panic) => write!(f, "ensemble {panic}"),
        }
    }
}

impl std::error::Error for EnsembleError {}

/// One replica's reduced outcome — everything the aggregators consume.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRecord {
    /// Replica index within the ensemble.
    pub replica: usize,
    /// The derived replica seed (`replica_seed(spec.seed, replica)`).
    pub seed: u64,
    /// Better-response steps taken.
    pub steps: usize,
    /// Whether the replica converged within the step cap.
    pub converged: bool,
    /// Churn deltas absorbed (0 without a churn plan).
    pub churn_applied: usize,
    /// Canonical equilibrium identity of the final state.
    pub key: EquilibriumKey,
    /// Symmetric potential `H = Σ_c 1/M_c` of the final state (f64;
    /// infinite when a live coin is unoccupied, which cannot happen at
    /// an equilibrium of an unrestricted game).
    pub potential: f64,
    /// Welfare (total payoff) of the final active population.
    pub welfare: f64,
    /// This replica's wall time (timing only — never aggregated into
    /// the deterministic part).
    pub wall_secs: f64,
}

/// Convergence-step percentiles from the bounded-memory sketch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepPercentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// The thread-invariant aggregate of an ensemble: same spec + same root
/// seed ⇒ bit-identical value at any worker-thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleAggregate {
    /// Replicas executed.
    pub replicas: usize,
    /// Replicas that converged within the step cap.
    pub converged: usize,
    /// Total churn deltas absorbed across all replicas.
    pub churn_deltas: u64,
    /// Welford moments of convergence steps.
    pub steps: WelfordSummary,
    /// Step percentiles from the geometric sketch.
    pub step_percentiles: StepPercentiles,
    /// The equilibrium census (distinct equilibria, hit frequencies,
    /// empirical price-of-anarchy/stability ratios).
    pub equilibria: EquilibriumCensus,
}

/// Wall-clock statistics of an ensemble run (machine- and load-
/// dependent; the field names follow the repo's timing conventions so
/// golden comparisons strip them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleTiming {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the ensemble, seconds.
    pub total_wall_secs: f64,
    /// `replicas / total_wall_secs`.
    pub replicas_per_sec: f64,
    /// Welford moments of per-replica wall times.
    pub replica_wall_secs: WelfordSummary,
}

/// The full result of [`run`]: spec echo + deterministic aggregate +
/// timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleReport {
    /// The spec that produced this report.
    pub spec: EnsembleSpec,
    /// The thread-invariant aggregate.
    pub aggregate: EnsembleAggregate,
    /// Wall-clock statistics (thread- and machine-dependent).
    pub timing: EnsembleTiming,
}

impl EnsembleReport {
    /// Serializes exactly the thread-invariant part (spec + aggregate):
    /// two runs of the same spec agree on this string regardless of
    /// `threads`.
    pub fn deterministic_json(&self) -> String {
        // Hand-assembled (the vendored serde_derive does not support
        // lifetime-generic helper structs): both halves already derive
        // `Serialize`.
        format!(
            "{{\"spec\":{},\"aggregate\":{}}}",
            serde_json::to_string(&self.spec).expect("ensemble specs serialize"),
            serde_json::to_string(&self.aggregate).expect("ensemble aggregates serialize"),
        )
    }
}

/// Reduces a final state to its equilibrium identity, potential, and
/// welfare. `miner_active`/`coin_active` default to all-active.
fn reduce_state(
    game: &Game,
    config: &Configuration,
    miner_active: Option<&[bool]>,
    coin_active: Option<&[bool]>,
) -> (EquilibriumKey, f64, f64) {
    let system = game.system();
    let k = system.num_coins();
    let live: Vec<bool> = match coin_active {
        Some(mask) => mask.to_vec(),
        None => vec![true; k],
    };
    let mut masses = vec![0u128; k];
    match miner_active {
        None => {
            let table = config.masses(system);
            for (c, mass) in masses.iter_mut().enumerate() {
                *mass = table.mass_of(goc_game::CoinId(c));
            }
        }
        Some(mask) => {
            for p in system.miner_ids() {
                if mask[p.index()] {
                    masses[config.coin_of(p).index()] += u128::from(system.power_of(p));
                }
            }
        }
    }
    // Potential H = Σ_{live c} 1/M_c (coin-order summation keeps the
    // f64 bit-identical across runs); welfare = Σ rewards of occupied
    // live coins (payoffs on a coin sum to its reward).
    let mut potential = 0.0f64;
    let mut welfare = 0.0f64;
    for c in 0..k {
        if !live[c] {
            continue;
        }
        if masses[c] == 0 {
            potential = f64::INFINITY;
        } else {
            potential += 1.0 / masses[c] as f64;
            welfare += game.rewards().of(goc_game::CoinId(c)).to_f64();
        }
    }
    (EquilibriumKey { masses, live }, potential, welfare)
}

/// The per-replica churn scenario: the shared churn base (cohort
/// population + dormant `upstart` chain) with the spec's plan attached,
/// seeded for this replica — the timeline, and therefore the delta
/// stream, varies per replica.
fn churn_scenario(spec: &EnsembleSpec, churn: &ChurnSpec, seed: u64) -> ScenarioSpec {
    let mut scenario = scale_churn_base(spec.miners, spec.horizon_days, seed);
    scenario.name = format!("{}_r{seed:x}", spec.name);
    scenario.churn = Some(churn.clone());
    scenario
}

/// Runs one replica. `shared` short-circuits per-replica setup with the
/// ensemble's shared universe [`Snapshot`] — churn-free replicas fork the
/// shared universe at their own random start
/// ([`Snapshot::fork_at`]), churny scheduler-free replicas fork the
/// time-zero tracker exactly and replay only their own timeline. The
/// result is identical either way: a fork reproduces precisely the
/// state a from-scratch rebuild constructs (the determinism proptests
/// replay `None` against `Some` to pin this). `observed` carries the
/// replica's trace lane and the ensemble's dynamics observer; `None`
/// runs the replica unobserved.
fn replica_with(
    spec: &EnsembleSpec,
    shared: Option<&Snapshot>,
    index: usize,
    observed: Option<(&TraceLane, &DynamicsObserver)>,
) -> Result<ReplicaRecord, EnsembleError> {
    let lane = observed.map(|(lane, _)| lane);
    let seed = replica_seed(spec.seed, index);
    let fail = |error: String| EnsembleError::Replica {
        replica: index,
        error,
    };
    let clock = Instant::now();
    // Every replica is one `Dynamics` run; the cases differ only in the
    // game, the starting state and the churn plan they hand it.
    let (built_game, built_universe, random_start);
    let (mut tracker, mut start, mut plan) = (None, None, None);
    let game: &Game = match &spec.churn {
        None => {
            let game = match shared {
                Some(snapshot) => snapshot.game(),
                None => {
                    built_game = scale_class_game(spec.miners);
                    &built_game
                }
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            random_start = random_config(&mut rng, game.system());
            match (spec.scheduler, shared) {
                (None, Some(snapshot)) => {
                    let _fork = lane.map(|l| l.span(TraceEventKind::SnapshotFork, index as u64));
                    let forked = snapshot.fork_at(&random_start);
                    tracker = Some(forked.map_err(|e| fail(e.to_string()))?);
                }
                _ => start = Some(&random_start),
            }
            game
        }
        Some(churn) => {
            let scenario = churn_scenario(spec, churn, seed);
            match (spec.scheduler, shared) {
                (None, Some(snapshot)) => {
                    // The universe is seed-invariant; only the timeline
                    // varies per replica. Re-lower it and replay against
                    // an exact fork of the shared time-zero tracker.
                    let deltas = churn_timeline(&scenario).map_err(|e| fail(e.to_string()))?;
                    plan = Some(ChurnPlan::with_events(
                        Some(snapshot.miner_activity().to_vec()),
                        Some(snapshot.coin_activity().to_vec()),
                        stride_deltas(&deltas, spec.miners),
                    ));
                    let _fork = lane.map(|l| l.span(TraceEventKind::SnapshotFork, index as u64));
                    tracker = Some(snapshot.fork());
                    snapshot.game()
                }
                _ => {
                    built_universe = churn_universe(&scenario, CHURN_RESOLUTION)
                        .map_err(|e| fail(e.to_string()))?;
                    plan = Some(ChurnPlan::with_events(
                        Some(built_universe.miner_active.clone()),
                        Some(built_universe.coin_active.clone()),
                        built_universe.step_deltas(spec.miners),
                    ));
                    start = Some(&built_universe.start);
                    &built_universe.game
                }
            }
        }
    };
    let mut sched = spec.scheduler.map(|kind| kind.build(seed));
    let mut dynamics = Dynamics::new(game);
    if let Some(tracker) = tracker {
        dynamics = dynamics.from_tracker(tracker);
    }
    if let Some(start) = start {
        dynamics = dynamics.start(start);
    }
    if let Some(plan) = &plan {
        dynamics = dynamics.churn(plan);
    }
    if let Some(sched) = sched.as_mut() {
        dynamics = dynamics.scheduler(sched.as_mut());
    }
    let outcome = match observed {
        Some((lane, observer)) => observer.run(dynamics, lane, index as u64),
        None => dynamics.run(),
    }
    .map_err(|e| fail(e.to_string()))?;
    let activity = outcome.final_activity.as_ref();
    let (key, potential, welfare) = reduce_state(
        game,
        &outcome.final_config,
        activity.map(|(miners, _)| miners.as_slice()),
        activity.map(|(_, coins)| coins.as_slice()),
    );
    Ok(ReplicaRecord {
        replica: index,
        seed,
        steps: outcome.steps,
        converged: outcome.converged,
        churn_applied: outcome.churn_applied,
        key,
        potential,
        welfare,
        wall_secs: clock.elapsed().as_secs_f64(),
    })
}

/// Runs a single replica standalone and unobserved — the naive
/// per-trajectory path the determinism proptest replays against
/// [`run`]'s aggregate.
///
/// # Errors
///
/// As [`run_observed`], for this replica only.
pub fn replica(spec: &EnsembleSpec, index: usize) -> Result<ReplicaRecord, EnsembleError> {
    spec.validate()?;
    replica_with(spec, None, index, None)
}

/// What a shared universe is built from, and nothing else: the
/// population for churn-free specs; population, horizon and churn plan
/// for scheduler-free churny ones (the universe is seed-invariant and
/// never sees `spec.name` — the determinism suite pins both).
#[derive(Debug, PartialEq)]
enum UniverseKey {
    Classes(usize),
    Churn(usize, f64, ChurnSpec),
}

impl UniverseKey {
    /// `None` for scheduled churny ensembles, whose replicas need their
    /// own full universe (the scheduler consumes the per-replica
    /// scenario), so they never share one.
    fn of(spec: &EnsembleSpec) -> Option<UniverseKey> {
        match &spec.churn {
            None => Some(UniverseKey::Classes(spec.miners)),
            Some(_) if spec.scheduler.is_some() => None,
            Some(churn) => Some(UniverseKey::Churn(
                spec.miners,
                spec.horizon_days,
                churn.clone(),
            )),
        }
    }
}

/// The last shared universe an ensemble built: one slot, keyed by
/// exactly what the universe is a pure function of (population, and
/// horizon plus churn plan for churny specs). A universe is immutable
/// once built, so handing a later ensemble the same image cannot change
/// its report — it only skips the serial build every replica waits on.
///
/// One slot is the whole memory bound: at most one universe beyond
/// those held by ensembles in flight. A long-lived caller (the server)
/// owns one and passes it to every [`run_observed`]; [`run`] passes a
/// fresh one, so each call builds its own.
#[derive(Debug, Default)]
pub struct Universes {
    last: Mutex<Option<(UniverseKey, Arc<Snapshot>)>>,
}

impl Universes {
    /// An empty slot.
    pub const fn new() -> Universes {
        Universes {
            last: Mutex::new(None),
        }
    }

    fn slot(&self) -> MutexGuard<'_, Option<(UniverseKey, Arc<Snapshot>)>> {
        // The slot is only ever swapped whole, so a poisoned lock still
        // guards a consistent value.
        self.last.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The ensemble's shared time-zero image, read from `universes` when
/// the last universe built there has the same key, and otherwise built
/// outside the lock and stored. A build runs under a `universe_build`
/// span on a coordinator lane and ticks
/// `goc_ensemble_universe_builds_total`.
///
/// `None` for scheduled churny ensembles, which neither read nor write
/// the slot.
fn shared_snapshot(
    spec: &EnsembleSpec,
    universes: &Universes,
    observe: &Observe,
) -> Result<Option<Arc<Snapshot>>, String> {
    let builds = observe
        .registry
        .counter("goc_ensemble_universe_builds_total");
    let Some(key) = UniverseKey::of(spec) else {
        return Ok(None);
    };
    if let Some((_, snapshot)) = universes.slot().as_ref().filter(|(last, _)| *last == key) {
        return Ok(Some(Arc::clone(snapshot)));
    }
    let snapshot = {
        let coordinator = observe.tracer.lane();
        let _build = coordinator.span(TraceEventKind::UniverseBuild, spec.miners as u64);
        Arc::new(build_universe(spec)?)
    };
    builds.inc();
    *universes.slot() = Some((key, Arc::clone(&snapshot)));
    Ok(Some(snapshot))
}

/// Builds the universe tracker a churn-free or scheduler-free churny
/// spec shares, captured with [`Snapshot::of`].
fn build_universe(spec: &EnsembleSpec) -> Result<Snapshot, String> {
    match &spec.churn {
        None => {
            // The snapshot's own configuration is immaterial here:
            // churn-free replicas fork *at* their private random start
            // (`Snapshot::fork_at`), scheduled ones only borrow the game.
            let game = scale_class_game(spec.miners);
            let start =
                Configuration::uniform(CoinId(0), game.system()).map_err(|e| e.to_string())?;
            let tracker = MassTracker::new(&game, &start).map_err(|e| e.to_string())?;
            Ok(Snapshot::of(&tracker))
        }
        Some(churn) => {
            // The churn universe is seed-invariant (only the timeline
            // varies per replica — pinned by the bridge tests), so any
            // seed describes the shared time-zero state.
            let scenario = churn_scenario(spec, churn, 0);
            let universe =
                churn_universe(&scenario, CHURN_RESOLUTION).map_err(|e| e.to_string())?;
            let tracker = MassTracker::with_activity(
                &universe.game,
                &universe.start,
                &universe.miner_active,
                &universe.coin_active,
            )
            .map_err(|e| e.to_string())?;
            Ok(Snapshot::of(&tracker))
        }
    }
}

/// [`run_observed`] over [`Observe::off`] and a fresh [`Universes`]:
/// the ensemble with nothing watching and nothing reused.
///
/// # Errors
///
/// As [`run_observed`].
///
/// # Examples
///
/// ```
/// use goc_analysis::ensemble::{run, EnsembleSpec};
///
/// let report = run(&EnsembleSpec::new(16, 8, 7), 2)?;
/// assert_eq!(report.aggregate.replicas, 8);
/// assert_eq!(report.aggregate.converged, 8);
/// assert!(report.aggregate.equilibria.distinct >= 1);
/// # Ok::<(), goc_analysis::ensemble::EnsembleError>(())
/// ```
pub fn run(spec: &EnsembleSpec, threads: usize) -> Result<EnsembleReport, EnsembleError> {
    run_observed(spec, threads, &Observe::off(), &Universes::new())
}

/// Executes the ensemble on `threads` work-stealing workers and folds
/// the replica records into an [`EnsembleReport`]. Every replica forks
/// one shared universe, taken from `universes` when the last one built
/// there matches this spec, and otherwise built here and left there for
/// the next call (see [`Universes`]). Records on `observe`:
///
/// * metrics — replicas started and finished
///   (`goc_ensemble_replicas_started_total`,
///   `goc_ensemble_replicas_finished_total`; a panicked replica starts
///   but never finishes), the `goc_ensemble_replica_wall_secs` histogram,
///   `goc_ensemble_universe_builds_total` (one per universe built, none
///   on reuse), and one [`DynamicsObserver`] shared by every replica
///   (`goc_dynamics_*`);
/// * trace — a coordinator lane spans a universe build
///   (`universe_build`, correlation = miners; absent on reuse); each
///   replica gets `replica_start`/`replica_finish` instants, a
///   `snapshot_fork` span and a `dynamics_run` span (correlation =
///   replica index) on a per-worker lane.
///
/// Observation only ever sees wall-clock and scheduling facts: the
/// [`EnsembleAggregate`] fold is untouched, so
/// [`EnsembleReport::deterministic_json`] is bit-identical with any
/// handle (the determinism suite pins this).
///
/// # Errors
///
/// * [`EnsembleError::InvalidSpec`] for a degenerate spec;
/// * [`EnsembleError::Replica`] when a replica's dynamics or churn
///   lowering fail (smallest failing index);
/// * [`EnsembleError::Panicked`] when a replica panicked.
pub fn run_observed(
    spec: &EnsembleSpec,
    threads: usize,
    observe: &Observe,
    universes: &Universes,
) -> Result<EnsembleReport, EnsembleError> {
    spec.validate()?;
    let started = observe
        .registry
        .counter("goc_ensemble_replicas_started_total");
    let finished = observe
        .registry
        .counter("goc_ensemble_replicas_finished_total");
    let wall_hist = observe.registry.histogram("goc_ensemble_replica_wall_secs");
    let observer = DynamicsObserver::new(observe);
    let clock = Instant::now();
    // One universe per key; every replica forks it instead of
    // rebuilding its own (see `replica_with`).
    let shared = shared_snapshot(spec, universes, observe)
        .map_err(|error| EnsembleError::Replica { replica: 0, error })?;
    let results = run_indexed(spec.replicas, threads, |index| {
        started.inc();
        // One lane per replica invocation; the recorder's free list
        // recycles them, so live lanes stay bounded by concurrency.
        let lane = observe.tracer.lane();
        lane.instant(TraceEventKind::ReplicaStart, index as u64);
        let result = replica_with(spec, shared.as_deref(), index, Some((&lane, &observer)));
        lane.instant(TraceEventKind::ReplicaFinish, index as u64);
        finished.inc();
        result
    })
    .map_err(EnsembleError::Panicked)?;
    // First failing replica (results are index-ordered) wins.
    let mut records = Vec::with_capacity(results.len());
    for result in results {
        records.push(result?);
    }
    let total_wall = clock.elapsed().as_secs_f64();

    // The fold: replica order, streaming accumulators only.
    let mut steps = Welford::new();
    let mut steps_sketch = QuantileSketch::new();
    let mut replica_wall = Welford::new();
    let mut index = FingerprintIndex::new();
    let mut converged = 0usize;
    let mut churn_deltas = 0u64;
    for record in &records {
        steps.push(record.steps as f64);
        steps_sketch.push(record.steps as f64);
        replica_wall.push(record.wall_secs);
        wall_hist.observe(record.wall_secs);
        churn_deltas += record.churn_applied as u64;
        if record.converged {
            converged += 1;
            index.record(record.key.clone(), record.potential, record.welfare);
        }
    }
    Ok(EnsembleReport {
        spec: spec.clone(),
        aggregate: EnsembleAggregate {
            replicas: spec.replicas,
            converged,
            churn_deltas,
            steps: steps.summary(),
            step_percentiles: StepPercentiles {
                p50: steps_sketch.quantile(0.5),
                p90: steps_sketch.quantile(0.9),
                p99: steps_sketch.quantile(0.99),
            },
            equilibria: index.census(CENSUS_ROWS),
        },
        timing: EnsembleTiming {
            threads: threads.max(1),
            total_wall_secs: total_wall,
            replicas_per_sec: spec.replicas as f64 / total_wall.max(1e-9),
            replica_wall_secs: replica_wall.summary(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_telemetry::trace::TraceRecorder;
    use goc_telemetry::Registry;

    #[test]
    fn spec_validation_names_the_problem() {
        assert!(EnsembleSpec::new(16, 4, 0).validate().is_ok());
        let err = EnsembleSpec::new(16, 0, 0).validate().unwrap_err();
        assert!(err.to_string().contains("replicas"));
        let err = EnsembleSpec::new(0, 4, 0).validate().unwrap_err();
        assert!(err.to_string().contains("miners"));
        let mut spec = EnsembleSpec::new(16, 4, 0);
        spec.horizon_days = 0.0;
        assert!(spec.validate().is_err());
        assert!(run(&EnsembleSpec::new(16, 0, 0), 2).is_err());
    }

    #[test]
    fn aggregates_are_thread_invariant() {
        let spec = EnsembleSpec::new(24, 12, 99);
        let a = run(&spec, 1).unwrap();
        let b = run(&spec, 4).unwrap();
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert_eq!(a.aggregate.replicas, 12);
        assert_eq!(a.aggregate.converged, 12);
        assert_eq!(
            a.aggregate.equilibria.entries.len(),
            a.aggregate.equilibria.distinct.min(12)
        );
    }

    #[test]
    fn scheduled_ensembles_converge_and_census_covers_replicas() {
        let spec = EnsembleSpec::new(16, 10, 3).with_scheduler(SchedulerKind::UniformRandom);
        let report = run(&spec, 2).unwrap();
        assert_eq!(report.aggregate.converged, 10);
        let hits: u64 = report
            .aggregate
            .equilibria
            .entries
            .iter()
            .map(|e| e.hits)
            .sum();
        assert_eq!(hits, 10, "every converged replica is in the census");
        assert!(report.aggregate.equilibria.poa_ratio >= 1.0);
        assert!(report.aggregate.equilibria.pos_ratio >= 1.0);
        assert_eq!(report.spec.scheduler_name(), "uniform-random");
    }

    #[test]
    fn churn_ensembles_absorb_deltas() {
        let spec = EnsembleSpec::new(64, 4, 5).with_churn(20);
        assert!(spec.churn.is_some());
        let report = run(&spec, 2).unwrap();
        assert_eq!(report.aggregate.converged, 4);
        assert!(
            report.aggregate.churn_deltas >= 4,
            "replicas absorbed {} deltas",
            report.aggregate.churn_deltas
        );
        // The census keys carry the coin-lifecycle outcome: the fixture
        // retires coin 1 and launches coin 2.
        for entry in &report.aggregate.equilibria.entries {
            assert_eq!(entry.live, vec![true, false, true]);
        }
        // Thread invariance holds under churn too.
        let again = run(&spec, 5).unwrap();
        assert_eq!(report.aggregate, again.aggregate);
    }

    #[test]
    fn telemetry_never_reaches_the_deterministic_report() {
        // The determinism guard: an enabled registry observes the run
        // (scheduling counters, wall histogram, dynamics counters)
        // without perturbing the aggregate or leaking into
        // `deterministic_json`.
        let spec = EnsembleSpec::new(24, 10, 7);
        let bare = run(&spec, 2).unwrap();
        let observe = Observe {
            registry: Registry::new(),
            ..Observe::off()
        };
        let recorded = run_observed(&spec, 3, &observe, &Universes::new()).unwrap();
        assert_eq!(bare.aggregate, recorded.aggregate);
        assert_eq!(bare.deterministic_json(), recorded.deterministic_json());
        assert!(
            !recorded.deterministic_json().contains("goc_ensemble"),
            "metric names must not appear in the deterministic report"
        );
        let snap = observe.registry.snapshot();
        assert_eq!(
            snap.counter("goc_ensemble_replicas_started_total"),
            Some(10)
        );
        assert_eq!(
            snap.counter("goc_ensemble_replicas_finished_total"),
            Some(10)
        );
        assert_eq!(
            snap.histogram("goc_ensemble_replica_wall_secs")
                .unwrap()
                .count,
            10
        );
        // Every replica's run lands once on the dynamics family.
        assert_eq!(snap.counter("goc_dynamics_runs_total"), Some(10));
        assert_eq!(snap.counter("goc_dynamics_converged_total"), Some(10));
        assert_eq!(
            snap.counter("goc_dynamics_steps_total"),
            Some((recorded.aggregate.steps.mean * 10.0).round() as u64)
        );
    }

    #[test]
    fn tracing_spans_the_snapshot_and_every_replica() {
        let spec = EnsembleSpec::new(24, 6, 13);
        let bare = run(&spec, 2).unwrap();
        let observe = Observe {
            tracer: TraceRecorder::new(4096),
            ..Observe::off()
        };
        let traced = run_observed(&spec, 3, &observe, &Universes::new()).unwrap();
        assert_eq!(bare.aggregate, traced.aggregate, "tracing never perturbs");
        let snap = observe.tracer.snapshot();
        assert_eq!(snap.dropped, 0);
        let count = |kind| snap.events.iter().filter(|e| e.kind == kind).count();
        // One universe-build span (begin + end)...
        assert_eq!(count(TraceEventKind::UniverseBuild), 2);
        // ...and per replica: start/finish instants plus a fork span
        // and a dynamics span.
        assert_eq!(count(TraceEventKind::ReplicaStart), spec.replicas);
        assert_eq!(count(TraceEventKind::ReplicaFinish), spec.replicas);
        assert_eq!(count(TraceEventKind::SnapshotFork), 2 * spec.replicas);
        assert_eq!(count(TraceEventKind::DynamicsRun), 2 * spec.replicas);
        // Every replica index appears as a complete start → fork →
        // dynamics → finish timeline on one lane.
        for index in 0..spec.replicas as u64 {
            let timeline = snap.timeline(index);
            let kinds: Vec<TraceEventKind> = timeline.iter().map(|e| e.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    TraceEventKind::ReplicaStart,
                    TraceEventKind::SnapshotFork,
                    TraceEventKind::SnapshotFork,
                    TraceEventKind::DynamicsRun,
                    TraceEventKind::DynamicsRun,
                    TraceEventKind::ReplicaFinish,
                ],
                "replica {index}"
            );
            assert!(timeline.windows(2).all(|w| w[0].lane == w[1].lane));
        }
    }

    #[test]
    fn replica_records_match_the_run_fold() {
        let spec = EnsembleSpec::new(16, 6, 11).with_scheduler(SchedulerKind::RoundRobin);
        let report = run(&spec, 3).unwrap();
        let mut naive = FingerprintIndex::new();
        for i in 0..spec.replicas {
            let record = replica(&spec, i).unwrap();
            assert_eq!(record.seed, replica_seed(spec.seed, i));
            assert!(record.converged);
            naive.record(record.key, record.potential, record.welfare);
        }
        assert_eq!(
            naive.census(CENSUS_ROWS),
            report.aggregate.equilibria,
            "standalone replicas reproduce the parallel census"
        );
    }

    #[test]
    fn degenerate_aggregates_round_trip_through_json() {
        // Regression: empty accumulators and infinite potentials used
        // to reach the report as non-finite floats, which the vendored
        // serde renders as `null` — and `null` fails to deserialize
        // back into `f64`. Both degenerate shapes must round-trip.
        let empty = EnsembleAggregate {
            replicas: 0,
            converged: 0,
            churn_deltas: 0,
            steps: Welford::new().summary(),
            step_percentiles: StepPercentiles {
                p50: QuantileSketch::new().quantile(0.5),
                p90: QuantileSketch::new().quantile(0.9),
                p99: QuantileSketch::new().quantile(0.99),
            },
            equilibria: FingerprintIndex::new().census(CENSUS_ROWS),
        };
        let json = serde_json::to_string(&empty).unwrap();
        assert!(!json.contains("null"), "empty aggregate leaks null: {json}");
        let back: EnsembleAggregate = serde_json::from_str(&json).unwrap();
        assert_eq!(empty, back);

        // A census that recorded an unoccupied live coin (potential ∞)
        // and a sketch fed junk: still finite, still round-trips.
        let mut index = FingerprintIndex::new();
        index.record(
            aggregate::EquilibriumKey {
                masses: vec![7, 0],
                live: vec![true, true],
            },
            f64::INFINITY,
            f64::NAN,
        );
        let mut sketch = QuantileSketch::new();
        sketch.push(f64::NAN);
        sketch.push(f64::INFINITY);
        let degenerate = EnsembleAggregate {
            replicas: 1,
            converged: 1,
            churn_deltas: 0,
            steps: Welford::new().summary(),
            step_percentiles: StepPercentiles {
                p50: sketch.quantile(0.5),
                p90: sketch.quantile(0.9),
                p99: sketch.quantile(0.99),
            },
            equilibria: index.census(CENSUS_ROWS),
        };
        let json = serde_json::to_string(&degenerate).unwrap();
        assert!(
            !json.contains("null"),
            "degenerate aggregate leaks null: {json}"
        );
        let back: EnsembleAggregate = serde_json::from_str(&json).unwrap();
        assert_eq!(degenerate, back);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = EnsembleSpec::new(128, 32, 42)
            .with_scheduler(SchedulerKind::MinGain)
            .with_churn(10);
        let json = serde_json::to_string(&spec).unwrap();
        let back: EnsembleSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
