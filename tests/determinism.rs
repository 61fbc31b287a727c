//! Determinism guarantees across the workspace: identical seeds must
//! yield bit-identical results in every stochastic component — the
//! experiment harness depends on it.

use gameofcoins::game::gen::{GameSpec, PowerDist, RewardDist};
use gameofcoins::learning::{Dynamics, LearningOptions, SchedulerKind};
use gameofcoins::sim::scenario::{btc_bch, BtcBchParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn game_generation_is_deterministic() {
    let spec = GameSpec {
        miners: 20,
        coins: 5,
        powers: PowerDist::DistinctUniform { lo: 1, hi: 10_000 },
        rewards: RewardDist::Uniform { lo: 1, hi: 10_000 },
    };
    let a = spec.sample(&mut SmallRng::seed_from_u64(123)).unwrap();
    let b = spec.sample(&mut SmallRng::seed_from_u64(123)).unwrap();
    assert_eq!(a.system(), b.system());
    assert_eq!(a.rewards(), b.rewards());
}

#[test]
fn learning_paths_are_deterministic_per_seed() {
    let spec = GameSpec {
        miners: 15,
        coins: 4,
        powers: PowerDist::Uniform { lo: 1, hi: 1000 },
        rewards: RewardDist::Uniform { lo: 1, hi: 1000 },
    };
    for kind in SchedulerKind::ALL {
        let mut rng = SmallRng::seed_from_u64(7);
        let game = spec.sample(&mut rng).unwrap();
        let start = gameofcoins::game::gen::random_config(&mut rng, game.system());
        let run_once = || {
            let mut sched = kind.build(99);
            Dynamics::new(&game)
                .start(&start)
                .scheduler(sched.as_mut())
                .options(LearningOptions {
                    record_path: true,
                    ..LearningOptions::default()
                })
                .run()
                .unwrap()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.path, b.path, "{kind} diverged across identical runs");
        assert_eq!(a.final_config, b.final_config);
    }
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let run_sim = |seed| {
        let mut sim = btc_bch(BtcBchParams {
            num_miners: 30,
            horizon_days: 5.0,
            shock_day: 2.0,
            revert_day: 4.0,
            seed,
            ..BtcBchParams::default()
        });
        let m = sim.run().clone();
        (
            sim.chains()[0].height(),
            sim.chains()[1].height(),
            m.total_switches,
            m.prices[1].last().copied(),
        )
    };
    assert_eq!(run_sim(5), run_sim(5));
    assert_ne!(run_sim(5), run_sim(6));
}

#[test]
fn design_outcomes_are_deterministic() {
    use gameofcoins::design::{design, DesignOptions, DesignProblem};
    use gameofcoins::game::equilibrium;

    let game = gameofcoins::game::Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10]).unwrap();
    let (s0, sf) = equilibrium::two_equilibria(&game).unwrap();
    let problem = DesignProblem::new(game, s0, sf).unwrap();
    let run_once = || {
        let mut sched = SchedulerKind::UniformRandom.build(31);
        design(&problem, sched.as_mut(), DesignOptions::default()).unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(a.total_steps, b.total_steps);
    assert_eq!(a.total_iterations, b.total_iterations);
    assert_eq!(a.total_cost, b.total_cost);
}
