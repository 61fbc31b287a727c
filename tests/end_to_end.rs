//! Cross-crate integration: the full pipeline from a mechanistic market
//! snapshot to a reward-design manipulation, exercising `goc-sim`,
//! `goc-chain`, `goc-market`, `goc-game`, `goc-learning`, and
//! `goc-design` together.

use gameofcoins::design::{design, DesignOptions, DesignProblem};
use gameofcoins::game::{equilibrium, CoinId, Configuration};
use gameofcoins::learning::{Dynamics, SchedulerKind};
use gameofcoins::sim::scenario::{btc_bch, BtcBchParams, DAY};

/// Simulate a market, snapshot it into the exact game, and verify the
/// game agrees with the simulator about what the market looks like.
#[test]
fn market_snapshot_agrees_with_game_model() {
    let mut sim = btc_bch(BtcBchParams {
        num_miners: 12,
        horizon_days: 10.0,
        shock_day: 1e9,
        revert_day: 2e9,
        volatility: 0.0,
        seed: 4,
        ..BtcBchParams::default()
    });
    sim.run();
    let (game, config) = gameofcoins::sim::snapshot_game(&sim, 10.0 * DAY, 1e-4).unwrap();
    assert_eq!(game.system().num_miners(), 12);

    // The simulator's steady state is (near-)stable in the static game:
    // allow at most a couple of miners to still have marginal better
    // responses (agent granularity / inertia).
    let unstable = game.unstable_miners(&config).len();
    assert!(unstable <= 3, "{unstable} miners far from equilibrium");

    // Sharper: agents move only for gains above their inertia, so the
    // steady state must be an ε-equilibrium of the snapshot game for ε
    // slightly above the largest agent inertia (0.0705 here).
    let eps = gameofcoins::game::Ratio::new(1, 10).unwrap();
    assert!(
        game.is_epsilon_stable(&config, eps),
        "simulated steady state is not a 10% ε-equilibrium"
    );

    // Learning from the simulated state converges quickly.
    let mut sched = SchedulerKind::RoundRobin.build(0);
    let outcome = Dynamics::new(&game)
        .start(&config)
        .scheduler(sched.as_mut())
        .run()
        .unwrap();
    assert!(outcome.converged);
    assert!(outcome.steps <= 6, "simulated state was far from stable");
}

/// Full manipulation pipeline on a game with simulated-market weights.
#[test]
fn design_attack_on_snapshot_game() {
    // Small population so the equilibrium enumeration stays cheap.
    let mut sim = btc_bch(BtcBchParams {
        num_miners: 6,
        horizon_days: 5.0,
        shock_day: 1e9,
        revert_day: 2e9,
        volatility: 0.0,
        seed: 9,
        ..BtcBchParams::default()
    });
    sim.run();
    // Coarse quantization gives small distinct powers.
    let (game, _) = gameofcoins::sim::snapshot_game(&sim, 5.0 * DAY, 1e-2).unwrap();
    if !game.system().powers_distinct() {
        // Zipf hashrates are distinct; quantization should keep them so.
        panic!("quantized powers unexpectedly collided");
    }
    let eqs = equilibrium::enumerate_equilibria(&game, 1 << 16).unwrap();
    assert!(!eqs.is_empty(), "every game has a pure equilibrium");
    if eqs.len() < 2 {
        return; // nothing to design between
    }
    let (s0, sf) = (eqs[0].clone(), eqs[eqs.len() - 1].clone());
    let problem = DesignProblem::new(game.clone(), s0, sf.clone()).unwrap();
    let mut sched = SchedulerKind::UniformRandom.build(3);
    let outcome = design(
        &problem,
        sched.as_mut(),
        DesignOptions {
            verify_invariants: true,
            ..DesignOptions::default()
        },
    )
    .unwrap();
    assert_eq!(outcome.final_config, sf);
    assert!(game.is_stable(&outcome.final_config));
}

/// The three-layer consistency claim behind the `cross` experiment:
/// value shares ≈ game equilibrium shares ≈ simulated hashrate shares.
#[test]
fn value_share_predicts_equilibrium_and_simulation() {
    let mut sim = btc_bch(BtcBchParams {
        num_miners: 40,
        horizon_days: 20.0,
        shock_day: 1e9,
        revert_day: 2e9,
        volatility: 0.0,
        seed: 11,
        ..BtcBchParams::default()
    });
    let metrics = sim.run().clone();
    let sim_share = metrics.hashrate_share(1, metrics.len() - 1);

    let weights = gameofcoins::sim::coin_weights(&sim, 20.0 * DAY);
    let value_share = weights[1] / (weights[0] + weights[1]);

    let (game, _) = gameofcoins::sim::snapshot_game(&sim, 20.0 * DAY, 1e-4).unwrap();
    let eq = equilibrium::greedy_equilibrium(&game);
    let masses = eq.masses(game.system());
    let eq_share = masses.mass_of(CoinId(1)) as f64 / masses.total() as f64;

    assert!(
        (sim_share - value_share).abs() < 0.05,
        "{sim_share} vs {value_share}"
    );
    assert!(
        (eq_share - value_share).abs() < 0.05,
        "{eq_share} vs {value_share}"
    );
}

/// Restarting learning from a designed equilibrium does nothing — the
/// "pay once, stay forever" property end to end.
#[test]
fn designed_equilibrium_is_self_sustaining() {
    let game = gameofcoins::game::Game::build(&[21, 13, 8, 5, 3, 2], &[29, 17]).unwrap();
    let (s0, sf) = equilibrium::two_equilibria(&game).unwrap();
    let problem = DesignProblem::new(game.clone(), s0, sf.clone()).unwrap();
    let mut sched = SchedulerKind::MinGain.build(0);
    let outcome = design(&problem, sched.as_mut(), DesignOptions::default()).unwrap();

    // After reverting to the original rewards, every scheduler stays put.
    for kind in SchedulerKind::ALL {
        let mut sched = kind.build(1);
        let after = Dynamics::new(&game)
            .start(&outcome.final_config)
            .scheduler(sched.as_mut())
            .run()
            .unwrap();
        assert_eq!(after.steps, 0, "{kind} moved from the designed equilibrium");
        assert_eq!(after.final_config, sf);
    }
}

/// A deliberately bad configuration (everyone on one coin) is repaired by
/// any scheduler into a covering equilibrium (Observation 3 territory).
#[test]
fn learning_restores_coverage() {
    let game = gameofcoins::game::Game::build(&[9, 7, 5, 3, 2, 1], &[10, 10, 10]).unwrap();
    let clumped = Configuration::uniform(CoinId(1), game.system()).unwrap();
    for kind in SchedulerKind::ALL {
        let mut sched = kind.build(2);
        let outcome = Dynamics::new(&game)
            .start(&clumped)
            .scheduler(sched.as_mut())
            .run()
            .unwrap();
        assert!(outcome.converged);
        let masses = outcome.final_config.masses(game.system());
        for c in game.system().coin_ids() {
            assert!(
                !masses.is_empty_coin(c),
                "{kind} left {c} empty in {}",
                outcome.final_config
            );
        }
        assert_eq!(game.welfare(&outcome.final_config), game.rewards().total());
    }
}
