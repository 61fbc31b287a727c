//! [`Instrument`]: the one observation API of the learning engine.
//!
//! Watching a run means implementing one trait with default no-ops:
//!
//! * [`Instrument::on_step`] — after every applied better-response
//!   move, with the new configuration;
//! * [`Instrument::on_delta`] — after every applied churn delta;
//! * [`Instrument::on_checkpoint`] — every
//!   [`Instrument::checkpoint_every`] steps, with a [`Snapshot`] of the
//!   tracker.
//!
//! A blanket impl makes every `FnMut(&Configuration, Move)` closure an
//! `Instrument`, so a step observer is just a closure passed to
//! [`Dynamics::instrument`]; [`CheckpointHook`] implements the trait
//! too. [`DynamicsTelemetry`] is the `goc-telemetry` binding — counters
//! and a convergence-wall histogram registered on a shared
//! [`Registry`] — and is *just another instrument*: the engine has
//! exactly one watching seam.
//!
//! [`CheckpointHook`]: crate::dynamics::CheckpointHook
//! [`Dynamics::instrument`]: crate::dynamics::Dynamics::instrument

use goc_game::{Configuration, Delta, Move, Snapshot};
use goc_telemetry::trace::{TraceEventKind, TraceLane, TraceRecorder};
use goc_telemetry::{Counter, LatencyHistogram, Registry};

use crate::dynamics::LearningOutcome;

/// A watcher threaded through a learning run. All methods default to
/// no-ops, so an instrument implements only what it cares about; the
/// engine pays one virtual call per event either way.
pub trait Instrument {
    /// Called after every applied better-response move, with the
    /// configuration *after* the move.
    fn on_step(&mut self, config: &Configuration, mv: Move) {
        let _ = (config, mv);
    }

    /// Called after every churn delta the engine applies, with the step
    /// count at which it fired.
    fn on_delta(&mut self, step: usize, delta: Delta) {
        let _ = (step, delta);
    }

    /// Checkpoint cadence in steps; `0` (the default) disables
    /// checkpointing, so the engine never pays for a [`Snapshot`] it
    /// would not deliver.
    fn checkpoint_every(&self) -> usize {
        0
    }

    /// Called every [`Instrument::checkpoint_every`] steps with a
    /// snapshot of the tracker.
    fn on_checkpoint(&mut self, step: usize, snapshot: &Snapshot) {
        let _ = (step, snapshot);
    }
}

/// Every step-observer closure is an instrument.
impl<F: FnMut(&Configuration, Move)> Instrument for F {
    fn on_step(&mut self, config: &Configuration, mv: Move) {
        self(config, mv)
    }
}

/// The do-nothing instrument (what an unobserved run uses).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoInstrument;

impl Instrument for NoInstrument {}

/// The `goc-telemetry` binding of the engine: an [`Instrument`] whose
/// events land in lock-free counters on a shared
/// [`Registry`], plus run-level observations
/// ([`DynamicsTelemetry::observe_run`]) for the numbers only the caller
/// knows — wall time, convergence, and the [`MoveSource`] decision
/// cache's re-probe count carried on the outcome.
///
/// Registration is idempotent per registry (same names share the same
/// atomics), so every replica or request can hold its own handle set
/// and the totals still accumulate process-wide. On a
/// [`Registry::disabled`] registry the handles are detached: the hot
/// path still runs one relaxed atomic increment per event and nothing
/// is retained or reported.
///
/// [`MoveSource`]: goc_game::MoveSource
#[derive(Debug, Clone)]
pub struct DynamicsTelemetry {
    steps: Counter,
    deltas: Counter,
    runs: Counter,
    converged: Counter,
    reprobes: Counter,
    wall: LatencyHistogram,
}

impl DynamicsTelemetry {
    /// Registers the dynamics metric family on `registry`:
    /// `goc_dynamics_steps_total`, `goc_dynamics_churn_deltas_total`,
    /// `goc_dynamics_runs_total`, `goc_dynamics_converged_total`,
    /// `goc_dynamics_cache_reprobes_total`, and the
    /// `goc_dynamics_convergence_secs` histogram.
    pub fn register(registry: &Registry) -> Self {
        DynamicsTelemetry {
            steps: registry.counter("goc_dynamics_steps_total"),
            deltas: registry.counter("goc_dynamics_churn_deltas_total"),
            runs: registry.counter("goc_dynamics_runs_total"),
            converged: registry.counter("goc_dynamics_converged_total"),
            reprobes: registry.counter("goc_dynamics_cache_reprobes_total"),
            wall: registry.histogram("goc_dynamics_convergence_secs"),
        }
    }

    /// Records the run-level numbers of a completed run: the run count,
    /// whether it converged, the decision-cache re-probes its outcome
    /// carries, and its wall time into the convergence histogram.
    pub fn observe_run(&self, outcome: &LearningOutcome, wall_secs: f64) {
        self.runs.inc();
        if outcome.converged {
            self.converged.inc();
        }
        self.reprobes.add(outcome.cache_reprobes);
        self.wall.observe(wall_secs);
    }
}

impl Instrument for DynamicsTelemetry {
    fn on_step(&mut self, _config: &Configuration, _mv: Move) {
        self.steps.inc();
    }

    fn on_delta(&mut self, _step: usize, _delta: Delta) {
        self.deltas.inc();
    }
}

/// The flight-recorder binding of the engine: an [`Instrument`] that
/// writes one [`TraceEventKind::StepPick`] instant per applied move
/// (correlation = the deviating miner) and one
/// [`TraceEventKind::DeltaApply`] per churn delta (correlation = the
/// step it fired at) onto its own single-writer lane, plus a run-level
/// [`TraceEventKind::CacheReprobe`] instant carrying the decision
/// cache's re-probe count ([`DynamicsTracing::observe_run`]).
///
/// Like [`DynamicsTelemetry`] on a disabled registry, tracing on a
/// disabled (or standby) recorder costs one relaxed load per event —
/// cheap enough to leave compiled into the engine.
#[derive(Debug)]
pub struct DynamicsTracing {
    lane: TraceLane,
}

impl DynamicsTracing {
    /// Opens a lane on `recorder` for this instrument (one writer, one
    /// lane — create one `DynamicsTracing` per thread).
    pub fn new(recorder: &TraceRecorder) -> Self {
        DynamicsTracing {
            lane: recorder.lane(),
        }
    }

    /// Records the run-level trace of a completed run: a
    /// [`TraceEventKind::CacheReprobe`] instant whose correlation is
    /// the outcome's re-probe count.
    pub fn observe_run(&self, outcome: &LearningOutcome) {
        self.lane
            .instant(TraceEventKind::CacheReprobe, outcome.cache_reprobes);
    }
}

impl Instrument for DynamicsTracing {
    fn on_step(&mut self, _config: &Configuration, mv: Move) {
        self.lane
            .instant(TraceEventKind::StepPick, mv.miner.0 as u64);
    }

    fn on_delta(&mut self, step: usize, _delta: Delta) {
        self.lane.instant(TraceEventKind::DeltaApply, step as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Dynamics;
    use goc_game::{CoinId, Game};

    fn toy() -> (Game, Configuration) {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        (game, start)
    }

    #[test]
    fn closures_are_instruments_via_the_blanket_impl() {
        let (game, start) = toy();
        let mut seen = 0usize;
        let mut closure = |_: &Configuration, _: Move| seen += 1;
        let outcome = Dynamics::new(&game)
            .start(&start)
            .instrument(&mut closure)
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(seen, outcome.steps);
    }

    #[test]
    fn telemetry_counts_steps_and_run_outcomes() {
        let (game, start) = toy();
        let registry = Registry::new();
        let mut telemetry = DynamicsTelemetry::register(&registry);
        let clock = std::time::Instant::now();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .instrument(&mut telemetry)
            .run()
            .unwrap();
        telemetry.observe_run(&outcome, clock.elapsed().as_secs_f64());
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("goc_dynamics_steps_total"),
            Some(outcome.steps as u64)
        );
        assert_eq!(snap.counter("goc_dynamics_runs_total"), Some(1));
        assert_eq!(snap.counter("goc_dynamics_converged_total"), Some(1));
        assert_eq!(
            snap.histogram("goc_dynamics_convergence_secs")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn disabled_registry_telemetry_still_runs_the_engine_unchanged() {
        let (game, start) = toy();
        let bare = Dynamics::new(&game).start(&start).run().unwrap();
        let registry = Registry::disabled();
        let mut telemetry = DynamicsTelemetry::register(&registry);
        let outcome = Dynamics::new(&game)
            .start(&start)
            .instrument(&mut telemetry)
            .run()
            .unwrap();
        telemetry.observe_run(&outcome, 0.001);
        assert_eq!(outcome.steps, bare.steps);
        assert_eq!(outcome.final_config, bare.final_config);
        assert!(registry.snapshot().counters.is_empty());
    }

    #[test]
    fn tracing_records_a_step_per_move_and_the_run_reprobes() {
        use goc_telemetry::trace::{TraceEventKind, TracePhase, TraceRecorder};
        let (game, start) = toy();
        let recorder = TraceRecorder::new(4096);
        let mut tracing = DynamicsTracing::new(&recorder);
        let outcome = Dynamics::new(&game)
            .start(&start)
            .instrument(&mut tracing)
            .run()
            .unwrap();
        tracing.observe_run(&outcome);
        let snap = recorder.snapshot();
        assert_eq!(snap.dropped, 0);
        let steps = snap
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::StepPick)
            .count();
        assert_eq!(steps, outcome.steps);
        let reprobe = snap
            .events
            .iter()
            .find(|e| e.kind == TraceEventKind::CacheReprobe)
            .expect("observe_run records the re-probe count");
        assert_eq!(reprobe.phase, TracePhase::Instant);
        assert_eq!(reprobe.correlation, outcome.cache_reprobes);
    }

    #[test]
    fn tracing_on_a_standby_recorder_leaves_the_run_unchanged() {
        let (game, start) = toy();
        let bare = Dynamics::new(&game).start(&start).run().unwrap();
        let recorder = goc_telemetry::trace::TraceRecorder::standby(64);
        let mut tracing = DynamicsTracing::new(&recorder);
        let outcome = Dynamics::new(&game)
            .start(&start)
            .instrument(&mut tracing)
            .run()
            .unwrap();
        tracing.observe_run(&outcome);
        assert_eq!(outcome.steps, bare.steps);
        assert_eq!(outcome.final_config, bare.final_config);
        assert!(recorder.snapshot().events.is_empty());
    }
}
