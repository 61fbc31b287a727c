//! Workspace-level property tests: invariants that span crates.

use gameofcoins::chain::{Blockchain, ChainParams, DifficultyRule, FeeParams, SubsidySchedule};
use gameofcoins::game::{CoinId, Configuration, Game};
use gameofcoins::learning::{Dynamics, SchedulerKind};
use proptest::prelude::*;

fn arb_game() -> impl Strategy<Value = Game> {
    (2usize..8, 2usize..4).prop_flat_map(|(n, k)| {
        (
            proptest::collection::vec(1u64..2000, n),
            proptest::collection::vec(1u64..2000, k),
        )
            .prop_map(|(p, r)| Game::build(&p, &r).expect("valid parameters"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 as a property: every scheduler converges from every
    /// start, and the final configuration is stable.
    #[test]
    fn learning_converges_from_any_start(
        game in arb_game(),
        seed in 0u64..1000,
        kind_idx in 0usize..6,
    ) {
        let kind = SchedulerKind::ALL[kind_idx];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let start = gameofcoins::game::gen::random_config(&mut rng, game.system());
        let mut sched = kind.build(seed);
        let outcome = Dynamics::new(&game).start(&start).scheduler(sched.as_mut()).run().unwrap();
        prop_assert!(outcome.converged);
        prop_assert!(game.is_stable(&outcome.final_config));
    }

    /// Welfare never decreases along better-response learning's final
    /// outcome relative to a clumped start (coverage can only improve),
    /// and equals total reward whenever the result covers all coins.
    #[test]
    fn welfare_of_equilibrium_at_least_clumped(game in arb_game(), coin in 0usize..2) {
        let coin = CoinId(coin % game.system().num_coins());
        let start = Configuration::uniform(coin, game.system()).unwrap();
        let mut sched = SchedulerKind::RoundRobin.build(0);
        let outcome = Dynamics::new(&game).start(&start).scheduler(sched.as_mut()).run().unwrap();
        prop_assert!(game.welfare(&outcome.final_config) >= game.welfare(&start));
    }

    /// Chain conservation: whatever the block pattern, total miner
    /// revenue equals total minted reward, and difficulty stays positive.
    #[test]
    fn chain_conserves_rewards(
        intervals in proptest::collection::vec(1.0f64..5000.0, 1..200),
        miners in proptest::collection::vec(0usize..5, 1..200),
        rule_idx in 0usize..3,
    ) {
        let rule = [
            DifficultyRule::Fixed,
            DifficultyRule::Epoch { interval: 10, max_factor: 4.0 },
            DifficultyRule::MovingAverage { window: 12, max_step: 2.0 },
        ][rule_idx];
        let mut chain = Blockchain::new(ChainParams {
            name: "P".to_string(),
            target_spacing: 600.0,
            initial_difficulty: 1e6,
            subsidy: SubsidySchedule::new(1_000_000, 50),
            difficulty_rule: rule,
            fees: FeeParams { fee_rate: 3.0, max_fees_per_block: 100_000 },
        });
        let mut t = 0.0;
        for (dt, m) in intervals.iter().zip(miners.iter().cycle()) {
            t += dt;
            chain.append_block(t, *m);
            prop_assert!(chain.difficulty() > 0.0);
        }
        let minted: u64 = chain.blocks().iter().map(|b| b.reward()).sum();
        prop_assert_eq!(minted, chain.total_revenue());
    }

    /// Snapshot bridge: quantization preserves the ordering of weights
    /// and powers.
    #[test]
    fn bridge_quantization_preserves_order(seed in 0u64..50) {
        use gameofcoins::sim::scenario::{btc_bch, BtcBchParams};
        let sim = btc_bch(BtcBchParams {
            num_miners: 10,
            horizon_days: 1.0,
            shock_day: 1e9,
            revert_day: 2e9,
            seed,
            ..BtcBchParams::default()
        });
        let (game, _) = gameofcoins::sim::snapshot_game(&sim, 0.0, 1e-4).unwrap();
        // Weight order: BTC >> BCH at start.
        prop_assert!(game.reward_of(CoinId(0)) > game.reward_of(CoinId(1)));
        // Power order matches hashrate order.
        let agents = sim.agents();
        for i in 1..agents.len() {
            if agents[i - 1].hashrate > agents[i].hashrate {
                prop_assert!(
                    game.system().power_of(gameofcoins::game::MinerId(i - 1))
                        >= game.system().power_of(gameofcoins::game::MinerId(i))
                );
            }
        }
    }
}
