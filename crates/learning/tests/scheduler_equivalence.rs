//! Property suite pinning the incremental scheduler protocol to the
//! eager oracle: for **every** bundled [`SchedulerKind`], on random
//! games (restricted included) and along whole better-response
//! trajectories, the move chosen through
//! [`Scheduler::pick_incremental`] over a [`MoveSource`] must equal the
//! move the same scheduler picks eagerly from the complete
//! improving-move list ([`Scheduler::pick_with`]). Both instances are
//! built from the same seed and stepped in lockstep, so any drift —
//! ordering, tie-breaks, randomness accounting — fails the suite.

use proptest::prelude::*;

use goc_game::{CoinId, Configuration, Game, MinerId, MoveSource};
use goc_learning::{Dynamics, LearningOptions, SchedulerKind};

/// A random small game plus a random configuration.
fn game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (2usize..8, 2usize..4).prop_flat_map(|(n, k)| {
        let powers = proptest::collection::vec(1u64..200, n);
        let rewards = proptest::collection::vec(1u64..200, k);
        let assignment = proptest::collection::vec(0usize..k, n);
        (powers, rewards, assignment).prop_map(|(p, r, a)| {
            let game = Game::build(&p, &r).expect("valid parameters");
            let config = Configuration::new(a.into_iter().map(CoinId).collect(), game.system())
                .expect("valid assignment");
            (game, config)
        })
    })
}

/// As [`game_and_config`], but with duplicated powers so strategic
/// groups genuinely collapse (the interesting regime for the source).
fn grouped_game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (4usize..10, 2usize..4).prop_flat_map(|(n, k)| {
        let classes = proptest::collection::vec(1u64..9, 2);
        let rewards = proptest::collection::vec(1u64..50, k);
        let assignment = proptest::collection::vec(0usize..k, n);
        (classes, rewards, assignment).prop_map(move |(classes, r, a)| {
            let powers: Vec<u64> = (0..n).map(|i| classes[i % classes.len()]).collect();
            let game = Game::build(&powers, &r).expect("valid parameters");
            let config = Configuration::new(a.into_iter().map(CoinId).collect(), game.system())
                .expect("valid assignment");
            (game, config)
        })
    })
}

/// As [`game_and_config`], but with a random coin-restriction matrix
/// (every miner keeps at least one permitted coin).
fn restricted_game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (
        game_and_config(),
        proptest::collection::vec(0usize..64, 2usize..8),
    )
        .prop_map(|((game, config), seeds)| {
            let n = game.system().num_miners();
            let k = game.system().num_coins();
            let restrictions: Vec<Vec<bool>> = (0..n)
                .map(|p| {
                    let bits = seeds[p % seeds.len()];
                    (0..k)
                        // Always permit the currently-mined coin so the
                        // configuration stays legal under restrictions.
                        .map(|c| c == config.coin_of(MinerId(p)).index() || (bits >> c) & 1 == 1)
                        .collect()
                })
                .collect();
            let game = game
                .with_restrictions(restrictions)
                .expect("every miner keeps its own coin");
            (game, config)
        })
}

/// Runs `kind` in lockstep along a whole trajectory: the incremental
/// pick must equal the eager pick at every step, and both must land on
/// the same stable configuration.
fn assert_lockstep_equivalence(
    kind: SchedulerKind,
    game: &Game,
    start: &Configuration,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut eager = kind.build(seed);
    let mut incremental = kind.build(seed);
    let mut s = start.clone();
    let mut src = MoveSource::new(game, start).expect("valid start");
    for step in 0..10_000 {
        let moves = game.improving_moves(&s);
        if moves.is_empty() {
            prop_assert!(src.is_stable(), "{kind}: source disagrees on stability");
            return Ok(());
        }
        let masses = s.masses(game.system());
        let mv_eager = eager
            .pick_with(game, &s, &masses, &moves)
            .expect("legal eager input");
        let mv_incremental = incremental
            .pick_incremental(&mut src)
            .expect("source has improving moves");
        prop_assert_eq!(
            mv_eager,
            mv_incremental,
            "{} diverged at step {} in {}",
            kind,
            step,
            s
        );
        prop_assert!(moves.contains(&mv_eager), "{} picked unlisted move", kind);
        s.apply_move(mv_eager.miner, mv_eager.to);
        src.apply(mv_eager.miner, mv_eager.to);
    }
    panic!("trajectory did not terminate within the step bound");
}

proptest! {
    /// Unrestricted random games: stepwise pick equivalence for all six
    /// bundled schedulers along the full trajectory.
    #[test]
    fn incremental_picks_match_eager_picks(
        (game, start) in game_and_config(),
        seed in 0u64..1000,
    ) {
        for kind in SchedulerKind::ALL {
            assert_lockstep_equivalence(kind, &game, &start, seed)?;
        }
    }

    /// Duplicated powers (nontrivial strategic groups): the regime where
    /// group-level shortcuts could drift from per-miner semantics.
    #[test]
    fn incremental_picks_match_eager_picks_on_grouped_games(
        (game, start) in grouped_game_and_config(),
        seed in 0u64..1000,
    ) {
        for kind in SchedulerKind::ALL {
            assert_lockstep_equivalence(kind, &game, &start, seed)?;
        }
    }

    /// Restricted games (singleton groups): equivalence must survive the
    /// degenerate partition too.
    #[test]
    fn incremental_picks_match_eager_picks_on_restricted_games(
        (game, start) in restricted_game_and_config(),
        seed in 0u64..1000,
    ) {
        for kind in SchedulerKind::ALL {
            assert_lockstep_equivalence(kind, &game, &start, seed)?;
        }
    }

    /// The engine ([`Dynamics`]) drives the incremental path; replaying its
    /// recorded trajectory through an eager lockstep scheduler must
    /// reproduce it move for move.
    #[test]
    fn engine_runs_replay_under_the_eager_oracle(
        (game, start) in grouped_game_and_config(),
        kind_idx in 0usize..6,
        seed in 0u64..100,
    ) {
        let kind = SchedulerKind::ALL[kind_idx];
        let mut sched = kind.build(seed);
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(sched.as_mut())
            .options(LearningOptions {
                record_path: true,
                audit_potential: true,
                ..LearningOptions::default()
            })
            .run()
            .expect("bundled schedulers are legal");
        prop_assert!(outcome.converged);
        let mut eager = kind.build(seed);
        let mut s = start.clone();
        for (i, &mv) in outcome.path.iter().enumerate() {
            let moves = game.improving_moves(&s);
            prop_assert!(!moves.is_empty());
            let masses = s.masses(game.system());
            let eager_mv = eager.pick_with(&game, &s, &masses, &moves).expect("legal");
            prop_assert_eq!(eager_mv, mv, "{} replay diverged at step {}", kind, i);
            s.apply_move(mv.miner, mv.to);
        }
        prop_assert_eq!(&s, &outcome.final_config);
        prop_assert!(game.is_stable(&s));
    }
}
