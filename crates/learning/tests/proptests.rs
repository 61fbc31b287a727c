//! Property tests for the learning engine: universal convergence, path
//! well-formedness, and scheduler contracts on generated games.

use goc_game::{CoinId, Configuration, Game};
use goc_learning::{Dynamics, LearningOptions, SchedulerKind};
use proptest::prelude::*;

fn arb_game_and_start() -> impl Strategy<Value = (Game, Configuration)> {
    (2usize..8, 2usize..4).prop_flat_map(|(n, k)| {
        (
            proptest::collection::vec(1u64..500, n),
            proptest::collection::vec(1u64..500, k),
            proptest::collection::vec(0usize..k, n),
        )
            .prop_map(|(p, r, a)| {
                let game = Game::build(&p, &r).expect("valid parameters");
                let start = Configuration::new(a.into_iter().map(CoinId).collect(), game.system())
                    .expect("valid assignment");
                (game, start)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheduler converges with a valid improving path whose every
    /// prefix step is a legal better response at the time it was taken.
    #[test]
    fn paths_are_legal_improving_sequences(
        (game, start) in arb_game_and_start(),
        kind_idx in 0usize..6,
        seed in 0u64..500,
    ) {
        let kind = SchedulerKind::ALL[kind_idx];
        let mut sched = kind.build(seed);
        let outcome = Dynamics::new(&game).start(&start).scheduler(sched.as_mut()).options(LearningOptions { record_path: true, ..LearningOptions::default() }).run().unwrap();
        prop_assert!(outcome.converged);

        let mut config = start.clone();
        for mv in &outcome.path {
            let masses = config.masses(game.system());
            prop_assert_eq!(config.coin_of(mv.miner), mv.from);
            prop_assert!(game.is_better_response(mv.miner, mv.to, &config, &masses));
            config.apply_move(mv.miner, mv.to);
        }
        prop_assert_eq!(&config, &outcome.final_config);
        prop_assert!(game.is_stable(&config));
    }

    /// The final payoff of the last mover weakly exceeds what it had at
    /// its final move time; more usefully: nobody can improve at the end.
    #[test]
    fn no_regrets_at_convergence((game, start) in arb_game_and_start(), seed in 0u64..100) {
        let mut sched = SchedulerKind::UniformRandom.build(seed);
        let outcome = Dynamics::new(&game).start(&start).scheduler(sched.as_mut()).run().unwrap();
        let masses = outcome.final_config.masses(game.system());
        for p in game.system().miner_ids() {
            prop_assert!(game.better_responses(p, &outcome.final_config, &masses).is_empty());
        }
    }

    /// Step counts are bounded by the number of distinct potential levels
    /// (each step strictly increases the potential), which is at most the
    /// number of configurations.
    #[test]
    fn steps_bounded_by_configuration_count(
        (game, start) in arb_game_and_start(),
        kind_idx in 0usize..6,
    ) {
        let kind = SchedulerKind::ALL[kind_idx];
        let mut sched = kind.build(0);
        let outcome = Dynamics::new(&game).start(&start).scheduler(sched.as_mut()).run().unwrap();
        let k = game.system().num_coins() as u128;
        let mut bound: u128 = 1;
        for _ in 0..game.system().num_miners() {
            bound = bound.saturating_mul(k);
        }
        prop_assert!((outcome.steps as u128) < bound);
    }

    /// Scheduler contract: whatever move a bundled scheduler proposes is
    /// in the engine's legal move list (checked here independently).
    #[test]
    fn schedulers_only_propose_listed_moves(
        (game, start) in arb_game_and_start(),
        kind_idx in 0usize..6,
        seed in 0u64..100,
    ) {
        let kind = SchedulerKind::ALL[kind_idx];
        let mut sched = kind.build(seed);
        let moves = game.improving_moves(&start);
        prop_assume!(!moves.is_empty());
        let mv = sched.pick(&game, &start, &moves).expect("legal input");
        prop_assert!(moves.contains(&mv), "{} proposed {:?}", kind, mv);
    }
}
