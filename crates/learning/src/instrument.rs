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
//! too.
//!
//! Production observability is not an instrument: [`DynamicsObserver`]
//! watches whole runs from an explicit [`Observe`] handle — one trace
//! span and a handful of counter adds per run, nothing per step.
//!
//! [`CheckpointHook`]: crate::dynamics::CheckpointHook

use std::time::Instant;

use goc_game::{Configuration, Delta, Move, Snapshot};
use goc_telemetry::trace::{TraceEventKind, TraceLane};
use goc_telemetry::{Counter, LatencyHistogram, Observe};

use crate::dynamics::{Dynamics, LearningError, LearningOutcome};

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

/// The `goc-telemetry` binding of the engine: observes whole runs, not
/// steps. [`DynamicsObserver::run`] wraps one run in a
/// [`TraceEventKind::DynamicsRun`] span on the caller's lane and then
/// adds the outcome's numbers into the shared `goc_dynamics_*`
/// instruments.
///
/// Nothing happens per step: a 45k-step run would overflow a 4096-slot
/// trace ring, and a counter bumped from every worker on every step
/// would tax the engine loop. Build one observer per ensemble (or per
/// caller) and share it by reference across worker threads; the
/// instruments are relaxed atomics. Over [`Observe::off`] the counters
/// are detached and the span is the disabled recorder's no-op branch.
#[derive(Debug)]
pub struct DynamicsObserver {
    steps: Counter,
    deltas: Counter,
    runs: Counter,
    converged: Counter,
    reprobes: Counter,
    wall: LatencyHistogram,
}

impl DynamicsObserver {
    /// Registers the dynamics metric family on `observe.registry`:
    /// `goc_dynamics_steps_total`, `goc_dynamics_churn_deltas_total`,
    /// `goc_dynamics_runs_total`, `goc_dynamics_converged_total`,
    /// `goc_dynamics_cache_reprobes_total`, and the
    /// `goc_dynamics_convergence_secs` histogram. Registration is
    /// idempotent per registry, so totals accumulate process-wide.
    pub fn new(observe: &Observe) -> Self {
        let registry = &observe.registry;
        DynamicsObserver {
            steps: registry.counter("goc_dynamics_steps_total"),
            deltas: registry.counter("goc_dynamics_churn_deltas_total"),
            runs: registry.counter("goc_dynamics_runs_total"),
            converged: registry.counter("goc_dynamics_converged_total"),
            reprobes: registry.counter("goc_dynamics_cache_reprobes_total"),
            wall: registry.histogram("goc_dynamics_convergence_secs"),
        }
    }

    /// Runs `dynamics` inside a `dynamics_run` span on `lane` (with
    /// `correlation`, e.g. the replica index), then records the run:
    /// its steps, churn deltas and decision-cache re-probes, one run,
    /// whether it converged, and its wall time. A failed run closes the
    /// span and records nothing.
    ///
    /// # Errors
    ///
    /// The run's own [`LearningError`], unchanged.
    pub fn run(
        &self,
        dynamics: Dynamics<'_, '_>,
        lane: &TraceLane,
        correlation: u64,
    ) -> Result<LearningOutcome, LearningError> {
        let clock = Instant::now();
        let outcome = {
            let _span = lane.span(TraceEventKind::DynamicsRun, correlation);
            dynamics.run()?
        };
        self.steps.add(outcome.steps as u64);
        self.deltas.add(outcome.churn_applied as u64);
        self.runs.inc();
        if outcome.converged {
            self.converged.inc();
        }
        self.reprobes.add(outcome.cache_reprobes);
        self.wall.observe_duration(clock.elapsed());
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Dynamics;
    use goc_game::{CoinId, Game};
    use goc_telemetry::trace::{TracePhase, TraceRecorder};
    use goc_telemetry::Registry;

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

    fn observed(observe: &Observe, correlation: u64) -> LearningOutcome {
        let (game, start) = toy();
        let observer = DynamicsObserver::new(observe);
        let lane = observe.tracer.lane();
        observer
            .run(Dynamics::new(&game).start(&start), &lane, correlation)
            .unwrap()
    }

    #[test]
    fn telemetry_counts_steps_and_run_outcomes() {
        let observe = Observe {
            registry: Registry::new(),
            tracer: TraceRecorder::disabled(),
        };
        let outcome = observed(&observe, 0);
        assert!(outcome.converged);
        let snap = observe.registry.snapshot();
        assert_eq!(
            snap.counter("goc_dynamics_steps_total"),
            Some(outcome.steps as u64)
        );
        assert_eq!(snap.counter("goc_dynamics_runs_total"), Some(1));
        assert_eq!(snap.counter("goc_dynamics_converged_total"), Some(1));
        assert_eq!(snap.counter("goc_dynamics_churn_deltas_total"), Some(0));
        assert_eq!(
            snap.histogram("goc_dynamics_convergence_secs")
                .unwrap()
                .count,
            1
        );
        assert!(observe.tracer.snapshot().events.is_empty());
    }

    /// The run is traced as one `dynamics_run` span, however many moves
    /// it took; the per-move count and the decision-cache re-probes ride
    /// the same handle's counters.
    #[test]
    fn tracing_records_a_step_per_move_and_the_run_reprobes() {
        let observe = Observe {
            registry: Registry::new(),
            tracer: TraceRecorder::new(64),
        };
        let outcome = observed(&observe, 5);
        assert!(outcome.converged);
        let snap = observe.registry.snapshot();
        assert_eq!(
            snap.counter("goc_dynamics_steps_total"),
            Some(outcome.steps as u64)
        );
        assert_eq!(
            snap.counter("goc_dynamics_cache_reprobes_total"),
            Some(outcome.cache_reprobes)
        );
        let trace = observe.tracer.snapshot();
        assert_eq!(trace.dropped, 0);
        let shape: Vec<(TraceEventKind, TracePhase, u64)> = trace
            .events
            .iter()
            .map(|e| (e.kind, e.phase, e.correlation))
            .collect();
        assert_eq!(
            shape,
            vec![
                (TraceEventKind::DynamicsRun, TracePhase::Begin, 5),
                (TraceEventKind::DynamicsRun, TracePhase::End, 5),
            ]
        );
    }

    #[test]
    fn disabled_registry_telemetry_still_runs_the_engine_unchanged() {
        let (game, start) = toy();
        let bare = Dynamics::new(&game).start(&start).run().unwrap();
        let observe = Observe::off();
        let outcome = observed(&observe, 0);
        assert_eq!(outcome.steps, bare.steps);
        assert_eq!(outcome.final_config, bare.final_config);
        assert!(observe.registry.snapshot().counters.is_empty());
        assert!(observe.tracer.snapshot().events.is_empty());
    }

    /// A recorder is on or off from construction; one built disabled is
    /// the dark case, here beside a live registry.
    #[test]
    fn tracing_on_a_standby_recorder_leaves_the_run_unchanged() {
        let (game, start) = toy();
        let bare = Dynamics::new(&game).start(&start).run().unwrap();
        let observe = Observe {
            registry: Registry::new(),
            tracer: TraceRecorder::disabled(),
        };
        let outcome = observed(&observe, 3);
        assert_eq!(outcome.steps, bare.steps);
        assert_eq!(outcome.final_config, bare.final_config);
        assert_eq!(outcome.cache_reprobes, bare.cache_reprobes);
        assert!(observe.tracer.snapshot().events.is_empty());
    }
}
