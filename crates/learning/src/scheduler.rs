//! Schedulers: *which* better-response step is taken next.
//!
//! Theorem 1 quantifies over **arbitrary** better-response learning — any
//! rule that picks any improving step in any order converges. The engine
//! therefore exposes scheduling as a trait and ships a spectrum of
//! implementations, from the benign (round-robin best response) to the
//! adversarially slow (smallest positive gain), which the experiments
//! sweep to exercise the theorem's "for all" claim.
//!
//! Every scheduler speaks two dialects of the same selection rule:
//!
//! * the **incremental protocol** ([`Scheduler::pick_incremental`]) —
//!   the production path. The engine hands the scheduler a
//!   [`MoveSource`] and the pick is answered from maintained group
//!   state, never materializing the per-miner move list: `O(groups)`
//!   for max-gain and the two power rules, `O(groups × log members)`
//!   for round-robin, and `O(unstable groups × coins)` for min-gain and
//!   uniform-random. Each
//!   move then costs the source's cache repair, whatever the scheduler:
//!   at most two payoff comparisons per cached group, plus an
//!   `O(coins)` re-probe of each group whose decision the comparisons
//!   cannot settle (its cached best was the joined coin, or it sat
//!   stable on the joined coin). Every such comparison is an unreduced
//!   cross product — two widening `u64` multiplies at population scale
//!   — not a reduced [`Ratio`]. This is what lifts every bundled
//!   scheduler to 250k-miner populations.
//! * the **eager oracle** ([`Scheduler::pick_with`]) — the reference
//!   semantics over the complete improving-move list. The property
//!   suite (`tests/scheduler_equivalence.rs`) pins the incremental pick
//!   to the eager pick on random games and trajectories, so the lazy
//!   path can never silently drift from the documented rule.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use goc_game::{CoinId, Configuration, Extremum, Game, Masses, MinerId, Move, MoveSource, Ratio};

/// A scheduler detected an internal inconsistency (e.g. the engine
/// reported improving moves but the scheduler's own scan found none).
/// The engine surfaces this as
/// [`LearningError::SchedulerFailed`](crate::dynamics::LearningError) —
/// a named error path instead of a silent wrong-scheduler pick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerError {
    /// Name of the failing scheduler.
    pub scheduler: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl SchedulerError {
    fn new(scheduler: &'static str, detail: impl Into<String>) -> Self {
        SchedulerError {
            scheduler,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scheduler `{}`: {}", self.scheduler, self.detail)
    }
}

impl std::error::Error for SchedulerError {}

/// Picks the next better-response step.
///
/// Implementors provide the eager rule ([`Scheduler::pick_with`]) and —
/// for large-population support — override [`Scheduler::pick_incremental`]
/// to answer the same rule from a [`MoveSource`]. The engine validates
/// every returned move; a scheduler that fabricates a non-improving move
/// is reported as
/// [`LearningError::NotABetterResponse`](crate::dynamics::LearningError).
pub trait Scheduler {
    /// Chooses one of `moves` (all legal better-response steps in `s`,
    /// never empty) given the engine's precomputed mass table. This is
    /// the **eager oracle** the incremental path is tested against.
    ///
    /// # Errors
    ///
    /// [`SchedulerError`] if the scheduler's own scan contradicts the
    /// engine (cannot happen for the bundled schedulers on legal input).
    fn pick_with(
        &mut self,
        game: &Game,
        s: &Configuration,
        masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError>;

    /// [`Scheduler::pick_with`] without precomputed masses: the provided
    /// implementation computes them once and delegates, so implementors
    /// never repeat the `s.masses(game.system())` boilerplate.
    ///
    /// # Errors
    ///
    /// Propagates [`Scheduler::pick_with`].
    fn pick(
        &mut self,
        game: &Game,
        s: &Configuration,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        let masses = s.masses(game.system());
        self.pick_with(game, s, &masses, moves)
    }

    /// Chooses the next step by querying the source's maintained group
    /// state — the large-population path. The engine only calls this
    /// when the source has at least one improving move.
    ///
    /// The provided implementation materializes the move list and
    /// delegates to [`Scheduler::pick_with`] (compatibility for external
    /// schedulers); every bundled scheduler overrides it with an
    /// `O(groups × coins)`-or-better rule.
    ///
    /// # Errors
    ///
    /// [`SchedulerError`] if the source yields no improving move (the
    /// engine believed otherwise — an inconsistency, not a pick).
    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        let moves = src.improving_moves();
        if moves.is_empty() {
            return Err(SchedulerError::new(
                self.name(),
                "source has no improving moves",
            ));
        }
        self.pick_with(src.game(), src.config(), src.masses(), &moves)
    }

    /// Short human-readable name, used in experiment tables.
    fn name(&self) -> &'static str;
}

/// Round-robin over miners; the selected miner plays its **best** response
/// (maximal post-move RPU, ties to the lowest coin id).
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting from miner `p0`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn pick_with(
        &mut self,
        game: &Game,
        s: &Configuration,
        masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        let n = game.system().num_miners();
        for offset in 0..n {
            let p = MinerId((self.cursor + offset) % n);
            if let Some(c) = game.best_response(p, s, masses) {
                self.cursor = (p.index() + 1) % n;
                return Ok(Move {
                    miner: p,
                    from: s.coin_of(p),
                    to: c,
                });
            }
        }
        // Unreachable when `moves` is nonempty: every listed mover has a
        // best response. Surface the inconsistency instead of silently
        // picking under the wrong rule.
        debug_assert!(
            moves.is_empty(),
            "round-robin found no best response among {} improving moves",
            moves.len()
        );
        Err(SchedulerError::new(
            self.name(),
            format!(
                "no best response found despite {} listed improving moves",
                moves.len()
            ),
        ))
    }

    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        let n = src.game().system().num_miners();
        let start = MinerId(self.cursor % n);
        let p = src
            .next_unstable(start)
            .or_else(|| src.next_unstable(MinerId(0)))
            .ok_or_else(|| SchedulerError::new(self.name(), "source reports no unstable miner"))?;
        self.cursor = (p.index() + 1) % n;
        src.improving_move_for(p)
            .ok_or_else(|| SchedulerError::new(self.name(), format!("{p} lost its best response")))
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Uniformly random choice among all improving moves (the "arbitrary
/// improving path" of the paper, in distribution), executed by the
/// smallest-id member of the drawn mover's strategic class.
///
/// The draw weights each `(class, target)` pair by the class's member
/// count — exactly the improving-move list's marginal — and the member
/// collapse makes the pick computable in `O(groups × coins)` from a
/// [`MoveSource`] (members of a class are interchangeable: same power,
/// same payoff, same better responses). One `gen_range` call over the
/// exact move count per pick, on both the eager and incremental paths,
/// so the two stay in lockstep on a shared seed.
pub struct UniformRandom {
    rng: SmallRng,
}

impl UniformRandom {
    /// Creates a scheduler with a fixed seed (deterministic runs).
    pub fn seeded(seed: u64) -> Self {
        UniformRandom {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl fmt::Debug for UniformRandom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UniformRandom").finish_non_exhaustive()
    }
}

impl Scheduler for UniformRandom {
    fn pick_with(
        &mut self,
        game: &Game,
        _s: &Configuration,
        _masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        // Rebuild the strategic classes from the flat list, in the same
        // canonical (coin, power, restriction) order the MoveSource
        // enumerates, so the same draw lands on the same move.
        struct Class {
            min_miner: MinerId,
            first_miner: MinerId,
            weight: usize,
            targets: Vec<CoinId>,
        }
        let mut classes: std::collections::BTreeMap<(usize, u64, u32), Class> =
            std::collections::BTreeMap::new();
        for &mv in moves {
            let rkey = if game.is_restricted() {
                mv.miner.index() as u32 + 1
            } else {
                0
            };
            let key = (mv.from.index(), game.system().power_of(mv.miner), rkey);
            let class = classes.entry(key).or_insert(Class {
                min_miner: mv.miner,
                first_miner: mv.miner,
                weight: 0,
                targets: Vec::new(),
            });
            class.weight += 1;
            class.min_miner = class.min_miner.min(mv.miner);
            if mv.miner == class.first_miner {
                class.targets.push(mv.to);
            }
        }
        if moves.is_empty() {
            return Err(SchedulerError::new(self.name(), "empty move list"));
        }
        let mut r = self.rng.gen_range(0..moves.len());
        for ((from, _, _), class) in classes {
            if r < class.weight {
                return Ok(Move {
                    miner: class.min_miner,
                    from: CoinId(from),
                    to: class.targets[r % class.targets.len()],
                });
            }
            r -= class.weight;
        }
        unreachable!("class weights sum to the move count")
    }

    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        src.sample_improving(&mut self.rng)
            .ok_or_else(|| SchedulerError::new(self.name(), "source reports no improving move"))
    }

    fn name(&self) -> &'static str {
        "uniform-random"
    }
}

/// Always takes the improving move with the **largest** payoff gain
/// (ties to the lowest miner id, then lowest coin id).
#[derive(Debug, Default)]
pub struct MaxGain;

impl Scheduler for MaxGain {
    fn pick_with(
        &mut self,
        game: &Game,
        s: &Configuration,
        masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        extremal_by_gain(self.name(), game, s, masses, moves, true)
    }

    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        src.extremal_gain_move(Extremum::Max)
            .ok_or_else(|| SchedulerError::new(self.name(), "source reports no improving move"))
    }

    fn name(&self) -> &'static str {
        "max-gain"
    }
}

/// Always takes the improving move with the **smallest** positive gain —
/// an adversarially slow learner that stresses convergence bounds.
#[derive(Debug, Default)]
pub struct MinGain;

impl Scheduler for MinGain {
    fn pick_with(
        &mut self,
        game: &Game,
        s: &Configuration,
        masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        extremal_by_gain(self.name(), game, s, masses, moves, false)
    }

    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        src.extremal_gain_move(Extremum::Min)
            .ok_or_else(|| SchedulerError::new(self.name(), "source reports no improving move"))
    }

    fn name(&self) -> &'static str {
        "min-gain"
    }
}

fn extremal_by_gain(
    name: &'static str,
    game: &Game,
    s: &Configuration,
    masses: &Masses,
    moves: &[Move],
    max: bool,
) -> Result<Move, SchedulerError> {
    let mut best: Option<(Ratio, Move)> = None;
    for &mv in moves {
        let gain = game.gain(mv.miner, mv.to, s, masses);
        let better = match &best {
            None => true,
            Some((g, _)) => {
                if max {
                    gain > *g
                } else {
                    gain < *g
                }
            }
        };
        if better {
            best = Some((gain, mv));
        }
    }
    best.map(|(_, mv)| mv)
        .ok_or_else(|| SchedulerError::new(name, "empty move list"))
}

/// The largest-power unstable miner moves first (models big pools reacting
/// fastest to profitability signals), playing its best response.
#[derive(Debug, Default)]
pub struct LargestMinerFirst;

impl Scheduler for LargestMinerFirst {
    fn pick_with(
        &mut self,
        game: &Game,
        s: &Configuration,
        masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        extremal_by_power(self.name(), game, s, masses, moves, true)
    }

    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        src.extremal_power_move(Extremum::Max)
            .ok_or_else(|| SchedulerError::new(self.name(), "source reports no improving move"))
    }

    fn name(&self) -> &'static str {
        "largest-miner-first"
    }
}

/// The smallest-power unstable miner moves first (nimble hobby miners
/// chase profitability, as on whattomine.com), playing its best response.
#[derive(Debug, Default)]
pub struct SmallestMinerFirst;

impl Scheduler for SmallestMinerFirst {
    fn pick_with(
        &mut self,
        game: &Game,
        s: &Configuration,
        masses: &Masses,
        moves: &[Move],
    ) -> Result<Move, SchedulerError> {
        extremal_by_power(self.name(), game, s, masses, moves, false)
    }

    fn pick_incremental(&mut self, src: &mut MoveSource<'_>) -> Result<Move, SchedulerError> {
        src.extremal_power_move(Extremum::Min)
            .ok_or_else(|| SchedulerError::new(self.name(), "source reports no improving move"))
    }

    fn name(&self) -> &'static str {
        "smallest-miner-first"
    }
}

fn extremal_by_power(
    name: &'static str,
    game: &Game,
    s: &Configuration,
    masses: &Masses,
    moves: &[Move],
    max: bool,
) -> Result<Move, SchedulerError> {
    let p = if max {
        moves
            .iter()
            .map(|m| m.miner)
            .max_by_key(|p| (game.system().power_of(*p), std::cmp::Reverse(p.index())))
    } else {
        moves
            .iter()
            .map(|m| m.miner)
            .min_by_key(|p| (game.system().power_of(*p), p.index()))
    };
    let p = p.ok_or_else(|| SchedulerError::new(name, "empty move list"))?;
    let c = game.best_response(p, s, masses).ok_or_else(|| {
        SchedulerError::new(name, format!("{p} is listed but has no best response"))
    })?;
    Ok(Move {
        miner: p,
        from: s.coin_of(p),
        to: c,
    })
}

/// Enumeration of the bundled schedulers, for parameter sweeps. Serde
/// round-trips as the variant name (e.g. `"MaxGain"`), so sweep spec
/// files can name schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`UniformRandom`] (takes a seed).
    UniformRandom,
    /// [`MaxGain`].
    MaxGain,
    /// [`MinGain`].
    MinGain,
    /// [`LargestMinerFirst`].
    LargestMinerFirst,
    /// [`SmallestMinerFirst`].
    SmallestMinerFirst,
}

impl SchedulerKind {
    /// All bundled kinds, in a stable order for sweep tables.
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::RoundRobin,
        SchedulerKind::UniformRandom,
        SchedulerKind::MaxGain,
        SchedulerKind::MinGain,
        SchedulerKind::LargestMinerFirst,
        SchedulerKind::SmallestMinerFirst,
    ];

    /// Instantiates the scheduler; `seed` is used by stochastic kinds.
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::UniformRandom => Box::new(UniformRandom::seeded(seed)),
            SchedulerKind::MaxGain => Box::new(MaxGain),
            SchedulerKind::MinGain => Box::new(MinGain),
            SchedulerKind::LargestMinerFirst => Box::new(LargestMinerFirst),
            SchedulerKind::SmallestMinerFirst => Box::new(SmallestMinerFirst),
        }
    }

    /// Stable display name (also accepted by `goc --scheduler`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::UniformRandom => "uniform-random",
            SchedulerKind::MaxGain => "max-gain",
            SchedulerKind::MinGain => "min-gain",
            SchedulerKind::LargestMinerFirst => "largest-miner-first",
            SchedulerKind::SmallestMinerFirst => "smallest-miner-first",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_game::CoinId;

    fn setup() -> (Game, Configuration, Vec<Move>) {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let s = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let moves = game.improving_moves(&s);
        assert!(!moves.is_empty());
        (game, s, moves)
    }

    #[test]
    fn all_schedulers_return_listed_moves() {
        let (game, s, moves) = setup();
        for kind in SchedulerKind::ALL {
            let mut sched = kind.build(11);
            let mv = sched.pick(&game, &s, &moves).unwrap();
            assert!(moves.contains(&mv), "{kind} returned unlisted move {mv}");
        }
    }

    #[test]
    fn all_schedulers_pick_incrementally_without_a_move_list() {
        let (game, s, moves) = setup();
        for kind in SchedulerKind::ALL {
            let mut src = MoveSource::new(&game, &s).unwrap();
            let mut sched = kind.build(11);
            let mv = sched.pick_incremental(&mut src).unwrap();
            assert!(moves.contains(&mv), "{kind} returned unlisted move {mv}");
        }
    }

    #[test]
    fn max_gain_beats_min_gain() {
        let (game, s, moves) = setup();
        let masses = s.masses(game.system());
        let hi = MaxGain.pick(&game, &s, &moves).unwrap();
        let lo = MinGain.pick(&game, &s, &moves).unwrap();
        let g_hi = game.gain(hi.miner, hi.to, &s, &masses);
        let g_lo = game.gain(lo.miner, lo.to, &s, &masses);
        assert!(g_hi >= g_lo);
        for &mv in &moves {
            let g = game.gain(mv.miner, mv.to, &s, &masses);
            assert!(g <= g_hi && g >= g_lo);
        }
    }

    #[test]
    fn miner_order_schedulers_pick_extremal_powers() {
        let (game, s, moves) = setup();
        let big = LargestMinerFirst.pick(&game, &s, &moves).unwrap();
        let small = SmallestMinerFirst.pick(&game, &s, &moves).unwrap();
        let unstable_powers: Vec<u64> = moves
            .iter()
            .map(|m| game.system().power_of(m.miner))
            .collect();
        assert_eq!(
            game.system().power_of(big.miner),
            *unstable_powers.iter().max().unwrap()
        );
        assert_eq!(
            game.system().power_of(small.miner),
            *unstable_powers.iter().min().unwrap()
        );
    }

    #[test]
    fn uniform_random_is_deterministic_per_seed() {
        let (game, s, moves) = setup();
        let a = UniformRandom::seeded(3).pick(&game, &s, &moves).unwrap();
        let b = UniformRandom::seeded(3).pick(&game, &s, &moves).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn round_robin_cycles_through_miners() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let mut s = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut sched = RoundRobin::new();
        let mut seen = Vec::new();
        for _ in 0..3 {
            let moves = game.improving_moves(&s);
            if moves.is_empty() {
                break;
            }
            let mv = sched.pick(&game, &s, &moves).unwrap();
            seen.push(mv.miner);
            s.apply_move(mv.miner, mv.to);
        }
        // The cursor advances: the same miner is not picked twice in a row
        // while others are unstable.
        for w in seen.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn pick_with_matches_pick_for_all_schedulers() {
        let (game, s, moves) = setup();
        let masses = s.masses(game.system());
        for kind in SchedulerKind::ALL {
            let via_pick = kind.build(9).pick(&game, &s, &moves).unwrap();
            let via_pick_with = kind.build(9).pick_with(&game, &s, &masses, &moves).unwrap();
            assert_eq!(via_pick, via_pick_with, "{kind} disagrees with itself");
        }
    }

    #[test]
    fn names_are_stable() {
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.build(0).name(), kind.name());
        }
    }

    #[test]
    fn kind_serde_round_trips_as_variant_names() {
        for kind in SchedulerKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            assert!(json.contains('"'), "unit variants serialize as strings");
            let back: SchedulerKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
        assert_eq!(
            serde_json::from_str::<SchedulerKind>("\"MinGain\"").unwrap(),
            SchedulerKind::MinGain
        );
        assert!(serde_json::from_str::<SchedulerKind>("\"NotAScheduler\"").is_err());
    }

    #[test]
    fn scheduler_error_displays_its_context() {
        let err = SchedulerError::new("round-robin", "test detail");
        let text = err.to_string();
        assert!(text.contains("round-robin") && text.contains("test detail"));
    }
}
