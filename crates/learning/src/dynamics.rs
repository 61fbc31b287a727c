//! The better-response learning engine.
//!
//! A *better-response learning* from `s` (paper §2) is a sequence of
//! individual improvement steps that either is infinite or ends in a
//! stable configuration. Theorem 1 shows the infinite case cannot happen,
//! whatever picks the next mover; [`Dynamics`] executes the sequence and
//! reports the convergence point, step count, and (optionally) the full
//! improving path with a potential-monotonicity audit.
//!
//! The engine is one loop over `goc_game`'s [`MassTracker`], which
//! maintains masses, payoffs, and the potential audit under single-move
//! and churn deltas. Only the choice of the next mover varies. Without a
//! [`Scheduler`] the tracker's own group round-robin
//! ([`MassTracker::find_improving_move`]) picks; with one, the scheduler
//! picks through [`Scheduler::pick_incremental`] over a [`MoveSource`] —
//! lazy move discovery over the tracker's strategic groups. No step
//! materializes the per-miner improving-move list, so **every** bundled
//! [`SchedulerKind`] converges 100k–250k-miner games. The eager
//! [`Scheduler::pick_with`] path survives as the oracle the equivalence
//! suite pins the lazy picks to.
//!
//! [`SchedulerKind`]: crate::scheduler::SchedulerKind

use std::fmt;

use goc_game::{Configuration, Delta, Game, GameError, MassTracker, Move, MoveSource};

use crate::instrument::StepObserver;
use crate::scheduler::{Scheduler, SchedulerError};

/// One scheduled churn delta of a learning run: `delta` arrives once the
/// dynamics have taken `at_step` better-response steps (churn "time" is
/// step count — the paper's dynamics are sequential, so interleaving by
/// step index is the natural clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Number of better-response steps after which the delta fires.
    pub at_step: usize,
    /// The population / coin-lifecycle transition.
    pub delta: Delta,
}

/// A churn schedule threaded through a learning run: the initial activity
/// state of the universe plus an interleaved delta stream. The engine
/// applies every event whose `at_step` has been reached *before* the next
/// scheduler pick; when the population is stable but events remain, time
/// fast-forwards to the next arrival (an equilibrium only lasts until the
/// market changes under it).
///
/// `None` activity masks mean "everything active" — the default plan is
/// a plain fixed-population run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    /// Initial miner activity (`None` = all active).
    pub miner_active: Option<Vec<bool>>,
    /// Initial coin activity (`None` = all live).
    pub coin_active: Option<Vec<bool>>,
    /// The delta stream (applied in `at_step` order, ties in list order).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// Builds a plan from activity masks and `(at_step, delta)` pairs
    /// (the shape `goc_sim`'s `ChurnUniverse::step_deltas` produces).
    pub fn with_events(
        miner_active: Option<Vec<bool>>,
        coin_active: Option<Vec<bool>>,
        events: impl IntoIterator<Item = (usize, Delta)>,
    ) -> Self {
        ChurnPlan {
            miner_active,
            coin_active,
            events: events
                .into_iter()
                .map(|(at_step, delta)| ChurnEvent { at_step, delta })
                .collect(),
        }
    }

    /// Whether the plan changes anything relative to a plain run.
    pub fn is_trivial(&self) -> bool {
        self.miner_active.is_none() && self.coin_active.is_none() && self.events.is_empty()
    }
}

/// Options controlling a learning run.
#[derive(Debug, Clone, Copy)]
pub struct LearningOptions {
    /// Hard cap on steps. Theorem 1 guarantees termination, so hitting the
    /// cap signals either an enormous game or a bug; the outcome then has
    /// `converged == false`.
    pub max_steps: usize,
    /// Record the full improving path in the outcome.
    pub record_path: bool,
    /// After every step, assert that the ordinal potential strictly
    /// increased (expensive: `O(|C| log |C|)` per step). Intended for
    /// tests and the Theorem 1 experiment.
    pub audit_potential: bool,
}

impl Default for LearningOptions {
    fn default() -> Self {
        LearningOptions {
            max_steps: 1_000_000,
            record_path: false,
            audit_potential: false,
        }
    }
}

/// Result of a learning run.
#[derive(Debug, Clone)]
pub struct LearningOutcome {
    /// The final configuration (stable iff `converged`).
    pub final_config: Configuration,
    /// Number of better-response steps taken.
    pub steps: usize,
    /// Whether a stable configuration was reached within `max_steps`.
    pub converged: bool,
    /// The improving path, if requested.
    pub path: Vec<Move>,
    /// `Some(true)` if auditing was enabled and every step strictly
    /// increased the ordinal potential (`Some(false)` is impossible —
    /// a violation aborts the run with an error).
    pub potential_audit: Option<bool>,
    /// Number of churn deltas applied during the run (0 without a plan).
    pub churn_applied: usize,
    /// Lifetime count of `O(coins)` group-decision cache re-probes the
    /// run's [`MoveSource`] performed (0 for scheduler-free runs, which
    /// ride the tracker directly). The
    /// telemetry layer surfaces this as
    /// `goc_dynamics_cache_reprobes_total`.
    pub cache_reprobes: u64,
    /// Final `(miner, coin)` activity masks, when the run had a
    /// non-trivial [`ChurnPlan`] (`None` for fixed-population runs —
    /// everything stayed active).
    pub final_activity: Option<(Vec<bool>, Vec<bool>)>,
}

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LearningError {
    /// The scheduler returned a move that is not a legal better response —
    /// failure injection for buggy schedulers.
    NotABetterResponse {
        /// The offending move.
        mv: Move,
    },
    /// Potential auditing found a step that did not increase the ordinal
    /// potential (would falsify Theorem 1; indicates an engine bug).
    PotentialViolation {
        /// The offending move.
        mv: Move,
        /// Step index at which the violation occurred.
        step: usize,
    },
    /// The scheduler reported an internal inconsistency instead of a
    /// pick (see [`SchedulerError`]).
    SchedulerFailed(SchedulerError),
    /// A scheduled churn delta was illegal in the state it arrived in
    /// (e.g. removing an already-removed miner, retiring a coin whose
    /// restricted residents have nowhere to go).
    ChurnRejected {
        /// Step count at which the delta fired.
        step: usize,
        /// The underlying delta validation error.
        error: GameError,
    },
    /// The starting state does not fit the game: the start configuration
    /// is not one of the game's system, or the churn plan's time-zero
    /// activity masks do not cover the universe or contradict the start.
    InvalidStart {
        /// What does not fit.
        reason: String,
    },
    /// [`Dynamics::run`] was called without a starting state: neither
    /// [`Dynamics::start`] nor [`Dynamics::from_tracker`] was provided.
    MissingStart,
}

impl fmt::Display for LearningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearningError::NotABetterResponse { mv } => {
                write!(f, "scheduler returned a non-improving move ({mv})")
            }
            LearningError::PotentialViolation { mv, step } => write!(
                f,
                "ordinal potential failed to increase at step {step} ({mv})"
            ),
            LearningError::SchedulerFailed(err) => write!(f, "{err}"),
            LearningError::ChurnRejected { step, error } => {
                write!(f, "churn delta rejected at step {step}: {error}")
            }
            LearningError::InvalidStart { reason } => write!(f, "invalid start: {reason}"),
            LearningError::MissingStart => {
                write!(f, "dynamics need a starting state (start or from_tracker)")
            }
        }
    }
}

impl std::error::Error for LearningError {}

impl From<SchedulerError> for LearningError {
    fn from(err: SchedulerError) -> Self {
        LearningError::SchedulerFailed(err)
    }
}

/// [`Dynamics`] over a **churning** population: the plan's activity masks
/// set the time-zero universe state and its delta stream is interleaved
/// with the scheduler's better-response steps (see [`ChurnPlan`]). All six
/// bundled schedulers ride the same incremental [`MoveSource`] — churn
/// deltas repair the group-decision cache, never rebuild it.
///
/// Convergence means: every scheduled delta has been applied *and* the
/// resulting active population is stable.
///
/// # Errors
///
/// As [`Dynamics::run`].
///
/// # Examples
///
/// ```
/// use goc_game::{CoinId, Configuration, Game};
/// use goc_learning::{run_with_churn, ChurnPlan, LearningOptions, RoundRobin};
///
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let start = Configuration::uniform(CoinId(0), game.system())?;
/// let plan = ChurnPlan::default();
/// let options = LearningOptions::default();
/// let outcome = run_with_churn(&game, &start, &mut RoundRobin::new(), options, &plan)?;
/// assert!(outcome.converged);
/// assert!(game.is_stable(&outcome.final_config));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_with_churn(
    game: &Game,
    start: &Configuration,
    scheduler: &mut dyn Scheduler,
    options: LearningOptions,
    plan: &ChurnPlan,
) -> Result<LearningOutcome, LearningError> {
    Dynamics::new(game)
        .start(start)
        .scheduler(scheduler)
        .options(options)
        .churn(plan)
        .run()
}

/// **Warm-start** run without a scheduler: continues the tracker's group
/// round-robin from an existing tracker — a [`Snapshot`] fork or any
/// tracker mid-dynamics — instead of
/// building one from a start configuration. The plan's activity masks
/// are **ignored** (the tracker already carries its activity state);
/// only the delta stream and the plan's triviality (which decides
/// whether `final_activity` is reported) are consulted. Undo recording
/// is switched off for the duration, as in every [`Dynamics`] run.
///
/// Passing an observer watches every step (see [`StepObserver`]).
///
/// # Errors
///
/// As [`Dynamics::run`].
///
/// # Examples
///
/// ```
/// use goc_game::{CoinId, Configuration, Game, MassTracker};
/// use goc_learning::{run_incremental_from, ChurnPlan, LearningOptions};
///
/// let game = Game::build(&[3, 3, 1, 1], &[6, 2])?;
/// let start = Configuration::uniform(CoinId(0), game.system())?;
/// let tracker = MassTracker::new(&game, &start)?;
/// let plan = ChurnPlan::default();
/// let outcome = run_incremental_from(tracker, LearningOptions::default(), &plan, None)?;
/// assert!(outcome.converged);
/// assert!(game.is_stable(&outcome.final_config));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`Snapshot`]: goc_game::Snapshot
pub fn run_incremental_from<'g, 'a>(
    tracker: MassTracker<'g>,
    options: LearningOptions,
    plan: &'a ChurnPlan,
    observer: Option<&'a mut StepObserver<'a>>,
) -> Result<LearningOutcome, LearningError> {
    let mut dynamics = Dynamics::new(tracker.game())
        .from_tracker(tracker)
        .options(options)
        .churn(plan);
    dynamics.observer = observer;
    dynamics.run()
}

/// Who moves next — the only thing that differs between better-response
/// runs. The engine loop is generic over it, so each finder gets its own
/// compiled copy of the loop with no per-step dispatch.
trait MoveFinder<'g> {
    /// The state the finder picks from.
    fn tracker(&self) -> &MassTracker<'g>;

    /// The next improving move, or `None` once the active population is
    /// stable.
    fn next_move(&mut self) -> Result<Option<Move>, LearningError>;

    /// Applies a move [`MoveFinder::next_move`] returned.
    fn make_move(&mut self, mv: Move);

    /// Applies one churn delta.
    fn churn(&mut self, delta: Delta) -> Result<(), GameError>;

    /// Consumes the finder, returning the final configuration and the
    /// decision-cache re-probe count (0 without a cache).
    fn finish(self) -> (Configuration, u64);
}

/// The scheduler-free finder: the tracker's own group round-robin — the
/// leanest loop, and the recorded `BENCH_*.json` dynamics workload.
impl<'g> MoveFinder<'g> for MassTracker<'g> {
    fn tracker(&self) -> &MassTracker<'g> {
        self
    }

    fn next_move(&mut self) -> Result<Option<Move>, LearningError> {
        Ok(self.find_improving_move())
    }

    fn make_move(&mut self, mv: Move) {
        self.apply(mv.miner, mv.to);
    }

    fn churn(&mut self, delta: Delta) -> Result<(), GameError> {
        self.apply_delta(delta).map(drop)
    }

    fn finish(self) -> (Configuration, u64) {
        (self.into_config(), 0)
    }
}

/// The scheduler finder: `scheduler` picks over a [`MoveSource`], and
/// every pick is checked to be a legal better response.
struct Scheduled<'g, 's> {
    source: MoveSource<'g>,
    scheduler: &'s mut dyn Scheduler,
}

impl<'g> MoveFinder<'g> for Scheduled<'g, '_> {
    fn tracker(&self) -> &MassTracker<'g> {
        self.source.tracker()
    }

    fn next_move(&mut self) -> Result<Option<Move>, LearningError> {
        // The stability sweep warms the source's group-decision cache;
        // the scheduler's pick right after reuses it.
        if self.source.is_stable() {
            return Ok(None);
        }
        let mv = self.scheduler.pick_incremental(&mut self.source)?;
        if !self.source.is_better_response(mv.miner, mv.to) {
            return Err(LearningError::NotABetterResponse { mv });
        }
        Ok(Some(mv))
    }

    fn make_move(&mut self, mv: Move) {
        self.source.apply(mv.miner, mv.to);
    }

    fn churn(&mut self, delta: Delta) -> Result<(), GameError> {
        // The cache repair is incremental, so the stability sweep after
        // a delta only re-probes the dirtied groups.
        self.source.apply_delta(delta).map(drop)
    }

    fn finish(self) -> (Configuration, u64) {
        let reprobes = self.source.reprobe_count();
        (self.source.into_config(), reprobes)
    }
}

/// The engine: better-response steps from `finder`, interleaved with the
/// plan's delta stream. The plan's activity masks are not consulted —
/// the finder's tracker already carries its activity state.
fn engine<'g>(
    mut finder: impl MoveFinder<'g>,
    options: LearningOptions,
    plan: &ChurnPlan,
    mut observer: Option<&mut StepObserver<'_>>,
) -> Result<LearningOutcome, LearningError> {
    // Application order: by `at_step`, ties in list order (stable sort).
    let mut events = plan.events.clone();
    events.sort_by_key(|event| event.at_step);
    let mut pending = events.into_iter().peekable();
    let mut churn_applied = 0usize;
    let mut path = Vec::new();
    let mut steps = 0usize;

    let converged = loop {
        if steps >= options.max_steps {
            break false;
        }
        // Churn due at this step count arrives before the next pick.
        let event = if let Some(event) = pending.next_if(|event| event.at_step <= steps) {
            event
        } else if let Some(mv) = finder.next_move()? {
            let before = options.audit_potential.then(|| finder.tracker().rpu_list());
            finder.make_move(mv);
            if let Some(before) = before {
                // Theorem 1's ordinal potential is the sorted RPU list;
                // the tracker yields it in O(coins log coins) with no
                // rescan. (Churn re-shapes the list, so the audit is
                // per-move: `before` is taken after any churn this round.)
                if finder.tracker().rpu_list() <= before {
                    return Err(LearningError::PotentialViolation { mv, step: steps });
                }
            }
            if options.record_path {
                path.push(mv);
            }
            if let Some(observer) = observer.as_mut() {
                observer(finder.tracker().config(), mv);
            }
            steps += 1;
            continue;
        } else if let Some(event) = pending.next() {
            // Stable, but more churn is scheduled: fast-forward to the
            // next arrival (equilibria only last until the market
            // changes under them).
            event
        } else {
            break true;
        };
        finder
            .churn(event.delta)
            .map_err(|error| LearningError::ChurnRejected { step: steps, error })?;
        churn_applied += 1;
    };

    let final_activity = (!plan.is_trivial()).then(|| {
        let tracker = finder.tracker();
        (
            tracker.miner_activity().to_vec(),
            tracker.coin_activity().to_vec(),
        )
    });
    let (final_config, cache_reprobes) = finder.finish();
    Ok(LearningOutcome {
        final_config,
        cache_reprobes,
        steps,
        converged,
        path,
        potential_audit: options.audit_potential.then_some(true),
        churn_applied,
        final_activity,
    })
}

/// Builds the tracker for a configuration start under the plan's
/// time-zero activity masks.
fn start_tracker<'g>(
    game: &'g Game,
    start: &Configuration,
    plan: &ChurnPlan,
) -> Result<MassTracker<'g>, LearningError> {
    let invalid = |reason: String| LearningError::InvalidStart { reason };
    if plan.miner_active.is_none() && plan.coin_active.is_none() {
        return MassTracker::new(game, start).map_err(|error| invalid(error.to_string()));
    }
    let mask = |mask: &Option<Vec<bool>>, len: usize, what: &str| match mask {
        None => Ok(vec![true; len]),
        Some(mask) if mask.len() == len => Ok(mask.clone()),
        Some(mask) => Err(invalid(format!(
            "{what} activity mask has {} entries but the system has {len} {what}s",
            mask.len()
        ))),
    };
    let system = game.system();
    let miner_active = mask(&plan.miner_active, system.num_miners(), "miner")?;
    let coin_active = mask(&plan.coin_active, system.num_coins(), "coin")?;
    MassTracker::with_activity(game, start, &miner_active, &coin_active)
        .map_err(|error| invalid(error.to_string()))
}

/// The **single entry point** of the learning engine: a builder that
/// assembles a better-response run from its independent ingredients —
/// where to start (a configuration, or a live [`MassTracker`] such as
/// a [`Snapshot`] fork), who picks the moves (a [`Scheduler`], or the
/// tracker's own group round-robin when none is given), what churns
/// (a [`ChurnPlan`]), and what watches (a [`StepObserver`] closure).
///
/// When both starts are set, [`Dynamics::from_tracker`] wins over
/// [`Dynamics::start`]. With a tracker start, the churn plan's activity
/// *masks* are ignored (the tracker already carries its activity); only
/// the delta stream is consulted. A warm start from a snapshot is
/// `from_tracker(snapshot.fork())`.
///
/// # Examples
///
/// The scheduler-free run (the `BENCH_*.json` dynamics workload):
///
/// ```
/// use goc_game::{CoinId, Configuration, Game};
/// use goc_learning::Dynamics;
///
/// let game = Game::build(&[3, 3, 1, 1], &[6, 2])?;
/// let start = Configuration::uniform(CoinId(0), game.system())?;
/// let outcome = Dynamics::new(&game).start(&start).run()?;
/// assert!(outcome.converged);
/// assert!(game.is_stable(&outcome.final_config));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A scheduled run with a step observer (any
/// `FnMut(&Configuration, Move)` closure is a [`StepObserver`]):
///
/// ```
/// use goc_game::{CoinId, Configuration, Game, Move};
/// use goc_learning::{Dynamics, RoundRobin};
///
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let start = Configuration::uniform(CoinId(0), game.system())?;
/// let mut trace = Vec::new();
/// let mut observe = |_: &Configuration, mv: Move| trace.push(mv);
/// let outcome = Dynamics::new(&game)
///     .start(&start)
///     .scheduler(&mut RoundRobin::new())
///     .instrument(&mut observe)
///     .run()?;
/// assert_eq!(trace.len(), outcome.steps);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`Snapshot`]: goc_game::Snapshot
pub struct Dynamics<'g, 'a> {
    game: &'g Game,
    start: Option<&'a Configuration>,
    tracker: Option<MassTracker<'g>>,
    scheduler: Option<&'a mut dyn Scheduler>,
    options: LearningOptions,
    plan: Option<&'a ChurnPlan>,
    observer: Option<&'a mut StepObserver<'a>>,
}

impl<'g, 'a> Dynamics<'g, 'a> {
    /// Starts assembling a run over `game` with default options, no
    /// churn, and the tracker's group round-robin picking the moves.
    pub fn new(game: &'g Game) -> Self {
        Dynamics {
            game,
            start: None,
            tracker: None,
            scheduler: None,
            options: LearningOptions::default(),
            plan: None,
            observer: None,
        }
    }

    /// Starts from `start` (validated against the game's system when the
    /// run launches; the churn plan's activity masks, if any, set the
    /// time-zero universe state). The configuration is copied once, into
    /// the tracker the run builds.
    pub fn start(mut self, start: &'a Configuration) -> Self {
        self.start = Some(start);
        self
    }

    /// Warm-starts from a live tracker — a [`Snapshot::fork`] (which
    /// resumes the round-robin exactly where the captured tracker
    /// stood) or any tracker mid-dynamics.
    ///
    /// [`Snapshot::fork`]: goc_game::Snapshot::fork
    pub fn from_tracker(mut self, tracker: MassTracker<'g>) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Lets `scheduler` pick the moves (through the incremental
    /// [`MoveSource`] protocol). Without a scheduler the run uses the
    /// tracker's own group round-robin — the leanest loop.
    pub fn scheduler(mut self, scheduler: &'a mut dyn Scheduler) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the run options (step cap, path recording, potential audit).
    pub fn options(mut self, options: LearningOptions) -> Self {
        self.options = options;
        self
    }

    /// Interleaves `plan`'s delta stream with the dynamics (see
    /// [`ChurnPlan`]).
    pub fn churn(mut self, plan: &'a ChurnPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Calls `observer` after every applied move, with the configuration
    /// after it — the one per-step watching seam. Run-level metrics and
    /// tracing wrap the run instead ([`DynamicsObserver`]).
    ///
    /// [`DynamicsObserver`]: crate::instrument::DynamicsObserver
    pub fn instrument(mut self, observer: &'a mut StepObserver<'a>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Launches the run.
    ///
    /// # Errors
    ///
    /// * [`LearningError::MissingStart`] without a starting state.
    /// * [`LearningError::InvalidStart`] if a start configuration or the
    ///   plan's activity masks do not fit the game.
    /// * [`LearningError::NotABetterResponse`] or
    ///   [`LearningError::SchedulerFailed`] if the scheduler misbehaves.
    /// * [`LearningError::PotentialViolation`] if auditing detects a
    ///   non-increasing step (engine bug).
    /// * [`LearningError::ChurnRejected`] when a scheduled delta is
    ///   illegal in the state it arrives in.
    pub fn run(self) -> Result<LearningOutcome, LearningError> {
        let default_plan = ChurnPlan::default();
        let plan = self.plan.unwrap_or(&default_plan);
        let mut tracker = match (self.tracker, self.start) {
            (Some(tracker), _) => tracker,
            (None, Some(start)) => start_tracker(self.game, start, plan)?,
            (None, None) => return Err(LearningError::MissingStart),
        };
        // The run never rewinds; don't retain an O(steps) undo history.
        tracker.set_undo_recording(false);
        match self.scheduler {
            Some(scheduler) => {
                let source = MoveSource::over(tracker);
                engine(
                    Scheduled { source, scheduler },
                    self.options,
                    plan,
                    self.observer,
                )
            }
            None => engine(tracker, self.options, plan, self.observer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{MinGain, RoundRobin, SchedulerKind, UniformRandom};
    use goc_game::gen::{GameSpec, PowerDist, RewardDist};
    use goc_game::{CoinId, Configuration, Game, MinerId, Snapshot};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A run from `start` under `scheduler`.
    fn scheduled(
        game: &Game,
        start: &Configuration,
        scheduler: &mut dyn Scheduler,
        options: LearningOptions,
    ) -> Result<LearningOutcome, LearningError> {
        Dynamics::new(game)
            .start(start)
            .scheduler(scheduler)
            .options(options)
            .run()
    }

    /// A scheduler-free run from `start`.
    fn unscheduled(
        game: &Game,
        start: &Configuration,
        options: LearningOptions,
    ) -> Result<LearningOutcome, LearningError> {
        Dynamics::new(game).start(start).options(options).run()
    }

    #[test]
    fn converges_on_prop1_game() {
        let game = goc_game::paper::prop1_game();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let outcome = scheduled(
            &game,
            &start,
            &mut RoundRobin::new(),
            LearningOptions::default(),
        )
        .unwrap();
        assert!(outcome.converged);
        assert!(game.is_stable(&outcome.final_config));
        assert!(outcome.steps >= 1);
    }

    #[test]
    fn all_schedulers_converge_on_random_games_with_audit() {
        let spec = GameSpec {
            miners: 8,
            coins: 3,
            powers: PowerDist::Uniform { lo: 1, hi: 500 },
            rewards: RewardDist::Uniform { lo: 1, hi: 500 },
        };
        let mut rng = SmallRng::seed_from_u64(21);
        for trial in 0..10 {
            let game = spec.sample(&mut rng).unwrap();
            let start = goc_game::gen::random_config(&mut rng, game.system());
            for kind in SchedulerKind::ALL {
                let mut sched = kind.build(trial);
                let outcome = scheduled(
                    &game,
                    &start,
                    sched.as_mut(),
                    LearningOptions {
                        audit_potential: true,
                        record_path: true,
                        ..LearningOptions::default()
                    },
                )
                .unwrap();
                assert!(outcome.converged, "{kind} failed to converge");
                assert!(game.is_stable(&outcome.final_config));
                assert_eq!(outcome.path.len(), outcome.steps);
                assert_eq!(outcome.potential_audit, Some(true));
            }
        }
    }

    #[test]
    fn path_replay_reaches_final_config() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = scheduled(
            &game,
            &start,
            &mut UniformRandom::seeded(5),
            LearningOptions {
                record_path: true,
                ..LearningOptions::default()
            },
        )
        .unwrap();
        let mut replay = start.clone();
        for mv in &outcome.path {
            assert_eq!(replay.coin_of(mv.miner), mv.from);
            replay.apply_move(mv.miner, mv.to);
        }
        assert_eq!(replay, outcome.final_config);
    }

    #[test]
    fn step_cap_reports_non_convergence() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = scheduled(
            &game,
            &start,
            &mut MinGain,
            LearningOptions {
                max_steps: 1,
                ..LearningOptions::default()
            },
        )
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.steps, 1);
    }

    #[test]
    fn rogue_scheduler_is_rejected() {
        struct Rogue;
        impl Scheduler for Rogue {
            // Implements only the eager contract: the engine reaches it
            // through the default (materializing) `pick_incremental`.
            fn pick_with(
                &mut self,
                _game: &Game,
                s: &Configuration,
                _masses: &goc_game::Masses,
                _moves: &[Move],
            ) -> Result<Move, SchedulerError> {
                // Propose a no-op "move" that is never a better response.
                let p = goc_game::MinerId(0);
                Ok(Move {
                    miner: p,
                    from: s.coin_of(p),
                    to: s.coin_of(p),
                })
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let game = goc_game::paper::prop1_game();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let err = scheduled(&game, &start, &mut Rogue, LearningOptions::default()).unwrap_err();
        assert!(matches!(err, LearningError::NotABetterResponse { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn observer_sees_every_step() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut observed = 0usize;
        let mut observe = |_: &Configuration, _: Move| observed += 1;
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut RoundRobin::new())
            .instrument(&mut observe)
            .run()
            .unwrap();
        assert_eq!(observed, outcome.steps);
    }

    #[test]
    fn stable_start_is_zero_steps() {
        let game = goc_game::paper::prop1_game();
        let eq = goc_game::equilibrium::greedy_equilibrium(&game);
        let outcome = scheduled(
            &game,
            &eq,
            &mut RoundRobin::new(),
            LearningOptions::default(),
        )
        .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.final_config, eq);
    }

    #[test]
    fn incremental_path_converges_with_audit_on_random_games() {
        let spec = GameSpec {
            miners: 24,
            coins: 4,
            powers: PowerDist::Uniform { lo: 1, hi: 9 },
            rewards: RewardDist::Uniform { lo: 1, hi: 500 },
        };
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..10 {
            let game = spec.sample(&mut rng).unwrap();
            let start = goc_game::gen::random_config(&mut rng, game.system());
            let outcome = unscheduled(
                &game,
                &start,
                LearningOptions {
                    audit_potential: true,
                    record_path: true,
                    ..LearningOptions::default()
                },
            )
            .unwrap();
            assert!(outcome.converged);
            assert!(game.is_stable(&outcome.final_config));
            assert_eq!(outcome.path.len(), outcome.steps);
            assert_eq!(outcome.potential_audit, Some(true));
            // The recorded path replays to the final configuration and
            // every step was an individual better response.
            let mut replay = start.clone();
            for mv in &outcome.path {
                let masses = replay.masses(game.system());
                assert!(game.is_better_response(mv.miner, mv.to, &replay, &masses));
                assert_eq!(replay.coin_of(mv.miner), mv.from);
                replay.apply_move(mv.miner, mv.to);
            }
            assert_eq!(replay, outcome.final_config);
        }
    }

    #[test]
    fn incremental_path_respects_step_cap() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = unscheduled(
            &game,
            &start,
            LearningOptions {
                max_steps: 1,
                ..LearningOptions::default()
            },
        )
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.steps, 1);
    }

    #[test]
    fn incremental_path_handles_restrictions_and_stable_starts() {
        let game = Game::build(&[5, 3, 2, 1], &[4, 4, 4])
            .unwrap()
            .with_restrictions(vec![
                vec![true, true, false],
                vec![true, true, true],
                vec![false, true, true],
                vec![true, false, true],
            ])
            .unwrap();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = unscheduled(&game, &start, LearningOptions::default()).unwrap();
        assert!(outcome.converged);
        assert!(game.is_stable(&outcome.final_config));

        let eq = goc_game::equilibrium::greedy_equilibrium(&goc_game::paper::prop1_game());
        let outcome = unscheduled(
            &goc_game::paper::prop1_game(),
            &eq,
            LearningOptions::default(),
        )
        .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.final_config, eq);
    }

    #[test]
    fn incremental_scales_past_population_rescans() {
        // 3k miners in 6 power classes over 3 coins: convergence must
        // take a number of steps linear-ish in the population and stay
        // well under a second (the 100k case is exercised by the `scale`
        // experiment and the `baseline` recorder).
        let classes: [u64; 6] = [1, 2, 3, 5, 8, 13];
        let powers: Vec<u64> = (0..3_000).map(|i| classes[i % classes.len()]).collect();
        let game = Game::build(&powers, &[60, 30, 10]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let outcome = unscheduled(&game, &start, LearningOptions::default()).unwrap();
        assert!(outcome.converged);
        assert!(outcome.steps >= 1_000, "suspiciously few steps");
        let tracker = goc_game::MassTracker::new(&game, &outcome.final_config).unwrap();
        assert!(tracker.is_stable());
    }

    #[test]
    fn all_schedulers_converge_under_churn() {
        use goc_game::Delta;
        // 12 miners in 3 power classes over 3 coins; coin 2 starts
        // dormant, a third of the population starts offline, and the run
        // interleaves arrivals, departures, one launch, and one
        // retirement with the better-response steps.
        let powers: Vec<u64> = (0..12).map(|i| [5u64, 2, 1][i % 3]).collect();
        let game = Game::build(&powers, &[9, 6, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let miner_active: Vec<bool> = (0..12).map(|i| i % 3 != 2).collect();
        let plan = ChurnPlan {
            miner_active: Some(miner_active),
            coin_active: Some(vec![true, true, false]),
            events: vec![
                ChurnEvent {
                    at_step: 1,
                    delta: Delta::InsertMiner {
                        miner: goc_game::MinerId(2),
                        coin: None,
                    },
                },
                ChurnEvent {
                    at_step: 2,
                    delta: Delta::LaunchCoin { coin: CoinId(2) },
                },
                ChurnEvent {
                    at_step: 3,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(0),
                    },
                },
                ChurnEvent {
                    at_step: 4,
                    delta: Delta::RetireCoin { coin: CoinId(1) },
                },
                ChurnEvent {
                    at_step: 5,
                    delta: Delta::InsertMiner {
                        miner: goc_game::MinerId(5),
                        coin: Some(CoinId(0)),
                    },
                },
            ],
        };
        for kind in SchedulerKind::ALL {
            let mut sched = kind.build(7);
            let outcome = run_with_churn(
                &game,
                &start,
                sched.as_mut(),
                LearningOptions {
                    audit_potential: true,
                    ..LearningOptions::default()
                },
                &plan,
            )
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(outcome.converged, "{kind} did not converge under churn");
            assert_eq!(outcome.churn_applied, plan.events.len(), "{kind}");
            // The final state is stable by the naive dense oracle.
            let (miner_active, coin_active) = outcome.final_activity.as_ref().expect("churn run");
            let tracker = goc_game::MassTracker::with_activity(
                &game,
                &outcome.final_config,
                miner_active,
                coin_active,
            )
            .unwrap();
            let sub = tracker.active_subgame().unwrap();
            assert!(sub.game.is_stable(&sub.config), "{kind} not stable");
            assert!(!coin_active[1] && coin_active[2], "{kind} coin masks");
        }
    }

    #[test]
    fn incremental_churn_engine_agrees_with_scheduled_one() {
        use goc_game::Delta;
        let game = Game::build(&[4, 4, 2, 2, 1, 1], &[8, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let plan = ChurnPlan {
            miner_active: None,
            coin_active: None,
            events: vec![
                ChurnEvent {
                    at_step: 2,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(1),
                    },
                },
                ChurnEvent {
                    at_step: 4,
                    delta: Delta::InsertMiner {
                        miner: goc_game::MinerId(1),
                        coin: None,
                    },
                },
            ],
        };
        let incremental = Dynamics::new(&game)
            .start(&start)
            .churn(&plan)
            .run()
            .unwrap();
        assert!(incremental.converged);
        assert_eq!(incremental.churn_applied, 2);
        let mut rr = RoundRobin::new();
        let scheduled =
            run_with_churn(&game, &start, &mut rr, LearningOptions::default(), &plan).unwrap();
        assert!(scheduled.converged);
        assert_eq!(scheduled.churn_applied, 2);
        // Both engines end fully repopulated and stable under the naive
        // oracle (the interleavings differ, so the equilibria may too).
        for outcome in [&incremental, &scheduled] {
            let (miner_active, coin_active) = outcome.final_activity.as_ref().unwrap();
            assert!(miner_active.iter().all(|&a| a));
            let tracker = goc_game::MassTracker::with_activity(
                &game,
                &outcome.final_config,
                miner_active,
                coin_active,
            )
            .unwrap();
            assert!(tracker.is_stable());
        }
    }

    #[test]
    fn illegal_churn_is_a_named_error() {
        use goc_game::Delta;
        let game = goc_game::paper::prop1_game();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let plan = ChurnPlan {
            events: vec![
                ChurnEvent {
                    at_step: 0,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(1),
                    },
                },
                ChurnEvent {
                    at_step: 0,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(1),
                    },
                },
            ],
            ..ChurnPlan::default()
        };
        let err = run_with_churn(
            &game,
            &start,
            &mut RoundRobin::new(),
            LearningOptions::default(),
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, LearningError::ChurnRejected { step: 0, .. }));
        assert!(err.to_string().contains("churn delta rejected"));
    }

    #[test]
    fn churn_fast_forwards_through_stable_states() {
        use goc_game::Delta;
        // The game is already stable; the only scheduled event sits far
        // beyond any step the dynamics will take. It must still fire.
        let game = goc_game::paper::prop1_game();
        let eq = goc_game::equilibrium::greedy_equilibrium(&game);
        let plan = ChurnPlan {
            events: vec![ChurnEvent {
                at_step: 1_000,
                delta: Delta::RemoveMiner {
                    miner: goc_game::MinerId(1),
                },
            }],
            ..ChurnPlan::default()
        };
        let outcome = run_with_churn(
            &game,
            &eq,
            &mut RoundRobin::new(),
            LearningOptions::default(),
            &plan,
        )
        .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.churn_applied, 1);
        let (miner_active, _) = outcome.final_activity.unwrap();
        assert!(!miner_active[1]);
    }

    #[test]
    fn warm_start_from_a_fork_matches_the_cold_run() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let cold = unscheduled(&game, &start, LearningOptions::default()).unwrap();
        // Fork the *starting* state through a snapshot round-trip and
        // continue from it: the trajectory (and thus the equilibrium and
        // step count) must be identical.
        let tracker = goc_game::MassTracker::new(&game, &start).unwrap();
        let bytes = Snapshot::of(&tracker).encode();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        let warm = run_incremental_from(
            snap.fork(),
            LearningOptions::default(),
            &ChurnPlan::default(),
            None,
        )
        .unwrap();
        assert!(warm.converged);
        assert_eq!(warm.steps, cold.steps);
        assert_eq!(warm.final_config, cold.final_config);
    }

    /// Miner 5 departs after two steps and returns, placed by best
    /// response, after four.
    fn departure_and_return() -> ChurnPlan {
        let miner = MinerId(5);
        ChurnPlan::with_events(
            None,
            None,
            [
                (2, Delta::RemoveMiner { miner }),
                (4, Delta::InsertMiner { miner, coin: None }),
            ],
        )
    }

    #[test]
    fn resume_from_a_mid_run_snapshot_matches_the_full_run() {
        let game = Game::build(&[4, 4, 2, 2, 1, 1], &[8, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let plan = departure_and_return();
        let full = Dynamics::new(&game)
            .start(&start)
            .churn(&plan)
            .run()
            .unwrap();
        assert!(full.converged);
        // Take the run's first step by hand, capture the tracker there
        // and round-trip it through the codec.
        let mut tracker = goc_game::MassTracker::new(&game, &start).unwrap();
        let mv = tracker
            .find_improving_move()
            .expect("the start is unstable");
        tracker.apply(mv.miner, mv.to);
        let bytes = Snapshot::of(&tracker).encode();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        // Every delta falls after the first step; resume the rest of the
        // stream one step earlier and land on the same equilibrium.
        let remaining = ChurnPlan::with_events(
            None,
            None,
            plan.events.iter().map(|e| (e.at_step - 1, e.delta)),
        );
        let resumed =
            run_incremental_from(snap.fork(), LearningOptions::default(), &remaining, None)
                .unwrap();
        assert!(resumed.converged);
        assert_eq!(resumed.final_config, full.final_config);
        assert_eq!(resumed.steps + 1, full.steps);
        assert_eq!(resumed.churn_applied, full.churn_applied);
    }

    #[test]
    fn a_start_that_does_not_fit_the_game_is_a_named_error() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let other = Game::build(&[3, 2, 1], &[1, 1]).unwrap();
        let foreign = Configuration::uniform(CoinId(0), other.system()).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let masks = |miners: usize, coins: usize| ChurnPlan {
            miner_active: Some(vec![true; miners]),
            coin_active: Some(vec![true; coins]),
            events: Vec::new(),
        };
        let cases = [
            (&foreign, ChurnPlan::default()),
            (&foreign, masks(2, 2)),
            (&start, masks(3, 2)),
            (&start, masks(2, 3)),
        ];
        for (start, plan) in &cases {
            for with_scheduler in [false, true] {
                let mut rr = RoundRobin::new();
                let mut dynamics = Dynamics::new(&game).start(start).churn(plan);
                if with_scheduler {
                    dynamics = dynamics.scheduler(&mut rr);
                }
                let err = dynamics.run().unwrap_err();
                assert!(
                    matches!(err, LearningError::InvalidStart { .. }),
                    "{plan:?}, scheduler: {with_scheduler}: {err:?}"
                );
                assert!(err.to_string().starts_with("invalid start"));
            }
        }
    }

    #[test]
    fn builder_without_a_start_is_rejected() {
        let game = goc_game::paper::btc_bch_toy();
        assert_eq!(
            Dynamics::new(&game).run().err(),
            Some(LearningError::MissingStart)
        );
    }

    /// Replays `path` from `start` on a fresh tracker, firing `plan`'s
    /// deltas where the engine does (once their step count is reached,
    /// or early when the population is stable), and returns the
    /// configuration after each move.
    fn replay(
        game: &Game,
        start: &Configuration,
        plan: &ChurnPlan,
        path: &[Move],
    ) -> Vec<Configuration> {
        let mut tracker = goc_game::MassTracker::new(game, start).unwrap();
        let mut events = plan.events.iter().peekable();
        let mut configs = Vec::new();
        for (step, mv) in path.iter().enumerate() {
            while let Some(event) = events.next_if(|e| e.at_step <= step || tracker.is_stable()) {
                tracker.apply_delta(event.delta).unwrap();
            }
            tracker.apply(mv.miner, mv.to);
            configs.push(tracker.config().clone());
        }
        configs
    }

    #[test]
    fn builder_observes_the_incremental_engine() {
        // A step observer sees every move, in order, under both move
        // finders, with and without churn; each configuration it is
        // handed is the path replayed up to that move. The churn lands
        // mid-run, and the returning miner is placed off its old coin.
        let powers: Vec<u64> = (0..12).map(|i| [5u64, 3, 2, 1][i % 4]).collect();
        let game = Game::build(&powers, &[12, 7, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let churn = departure_and_return();
        let still = ChurnPlan::default();
        for scheduled in [false, true] {
            for plan in [&still, &churn] {
                let mut rr = RoundRobin::new();
                let mut seen = Vec::new();
                let mut observe =
                    |config: &Configuration, mv: Move| seen.push((config.clone(), mv));
                let mut dynamics =
                    Dynamics::new(&game)
                        .start(&start)
                        .churn(plan)
                        .options(LearningOptions {
                            record_path: true,
                            ..LearningOptions::default()
                        });
                if scheduled {
                    dynamics = dynamics.scheduler(&mut rr);
                }
                let outcome = dynamics.instrument(&mut observe).run().unwrap();
                let case = format!("scheduled: {scheduled}, churn: {}", !plan.is_trivial());
                assert!(outcome.converged, "{case}");
                assert_eq!(outcome.churn_applied, plan.events.len(), "{case}");
                let (configs, moves): (Vec<_>, Vec<_>) = seen.into_iter().unzip();
                assert_eq!(moves, outcome.path, "{case}");
                assert_eq!(configs, replay(&game, &start, plan, &moves), "{case}");
            }
        }
    }

    #[test]
    fn restricted_games_converge_empirically() {
        // The theorem is stated for unrestricted games; the asymmetric
        // variant is exercised empirically (Discussion §6).
        let game = Game::build(&[5, 3, 2, 1], &[4, 4, 4])
            .unwrap()
            .with_restrictions(vec![
                vec![true, true, false],
                vec![true, true, true],
                vec![false, true, true],
                vec![true, false, true],
            ])
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..10 {
            let start = goc_game::gen::random_config_restricted(&mut rng, &game);
            let outcome = scheduled(
                &game,
                &start,
                &mut UniformRandom::seeded(seed),
                LearningOptions::default(),
            )
            .unwrap();
            assert!(outcome.converged);
        }
    }
}
