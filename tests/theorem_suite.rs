//! Randomized theorem suite: re-checks the paper's formal results on
//! freshly sampled games every run (seeded, so failures are
//! reproducible). Complements the per-crate unit tests by crossing crate
//! boundaries the way the paper's proofs do.

use gameofcoins::design::{design, DesignOptions, DesignProblem};
use gameofcoins::game::gen::{GameSpec, PowerDist, RewardDist};
use gameofcoins::game::{assumptions, equilibrium, potential};
use gameofcoins::learning::{Dynamics, LearningOptions, SchedulerKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn spec(n: usize, k: usize) -> GameSpec {
    GameSpec {
        miners: n,
        coins: k,
        powers: PowerDist::Uniform { lo: 1, hi: 5000 },
        rewards: RewardDist::Uniform { lo: 1, hi: 5000 },
    }
}

/// Theorem 1, full strength: any scheduler, any game, any start —
/// convergence with a strictly increasing potential at every step.
#[test]
fn theorem1_universal_convergence() {
    let mut rng = SmallRng::seed_from_u64(1001);
    for trial in 0..15 {
        let game = spec(10, 3).sample(&mut rng).unwrap();
        let start = gameofcoins::game::gen::random_config(&mut rng, game.system());
        for kind in SchedulerKind::ALL {
            let mut sched = kind.build(trial);
            let outcome = Dynamics::new(&game)
                .start(&start)
                .scheduler(sched.as_mut())
                .options(LearningOptions {
                    audit_potential: true,
                    ..LearningOptions::default()
                })
                .run()
                .unwrap();
            assert!(outcome.converged, "{kind} failed on trial {trial}");
            assert!(game.is_stable(&outcome.final_config));
        }
    }
}

/// Proposition 3 (Appendix A): the greedy construction is always stable,
/// at scale.
#[test]
fn appendix_a_construction_always_stable() {
    let mut rng = SmallRng::seed_from_u64(2002);
    for _ in 0..25 {
        let game = spec(40, 6).sample(&mut rng).unwrap();
        let eq = equilibrium::greedy_equilibrium(&game);
        assert!(game.is_stable(&eq));
    }
}

/// Proposition 2 pipeline: when the assumptions hold, every equilibrium
/// is dominated for someone.
#[test]
fn prop2_dominated_equilibria_when_assumptions_hold() {
    let mut rng = SmallRng::seed_from_u64(3003);
    let small = GameSpec {
        miners: 6,
        coins: 2,
        powers: PowerDist::DistinctUniform { lo: 50, hi: 150 },
        rewards: RewardDist::DistinctUniform { lo: 500, hi: 1500 },
    };
    let mut verified = 0;
    for _ in 0..60 {
        let game = match small.sample(&mut rng) {
            Ok(g) => g,
            Err(_) => continue,
        };
        let a1 = assumptions::never_alone_exhaustive(&game, 1 << 16).unwrap();
        let a2 = assumptions::generic_exhaustive(&game, 1 << 20).unwrap();
        if !(a1 && a2) {
            continue;
        }
        verified += 1;
        equilibrium::better_equilibrium_witnesses(&game, 1 << 16)
            .expect("Proposition 2 must hold under A1+A2");
    }
    assert!(
        verified >= 3,
        "too few assumption-satisfying samples: {verified}"
    );
}

/// Theorem 2 pipeline: random design problems complete with verified
/// invariants, and the per-stage iteration counts respect 2^(n-i+1).
#[test]
fn theorem2_design_completes_with_bounded_stages() {
    let mut rng = SmallRng::seed_from_u64(4004);
    let distinct = GameSpec {
        miners: 7,
        coins: 3,
        powers: PowerDist::DistinctUniform { lo: 1, hi: 2000 },
        rewards: RewardDist::Uniform { lo: 100, hi: 2000 },
    };
    let mut done = 0;
    while done < 5 {
        let game = distinct.sample(&mut rng).unwrap();
        let Ok((s0, sf)) = equilibrium::two_equilibria(&game) else {
            continue;
        };
        let n = game.system().num_miners();
        let problem = DesignProblem::new(game, s0, sf.clone()).unwrap();
        let mut sched = SchedulerKind::UniformRandom.build(done);
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
        for report in &outcome.stages {
            if report.stage >= 2 {
                let bound = 1u128 << (n - report.stage + 1);
                assert!((report.iterations as u128) <= bound);
            }
        }
        done += 1;
    }
}

/// The two potentials agree where both apply: in symmetric games, the
/// rank potential increases exactly when Σ 1/M_c decreases (on the
/// all-coins-occupied region).
#[test]
fn potentials_agree_on_symmetric_games() {
    let mut rng = SmallRng::seed_from_u64(5005);
    let sym = GameSpec {
        miners: 6,
        coins: 2,
        powers: PowerDist::Uniform { lo: 1, hi: 100 },
        rewards: RewardDist::Equal(1000),
    };
    for _ in 0..10 {
        let game = sym.sample(&mut rng).unwrap();
        for s in gameofcoins::game::ConfigurationIter::bounded(game.system(), 1 << 20).unwrap() {
            let masses = s.masses(game.system());
            let covered = game.system().coin_ids().all(|c| !masses.is_empty_coin(c));
            if !covered {
                continue;
            }
            for mv in game.improving_moves(&s) {
                let next = s.with_move(mv.miner, mv.to);
                assert!(potential::strictly_increases(&game, &s, &next));
                let before = potential::symmetric_potential(&game, &s);
                let after = potential::symmetric_potential(&game, &next);
                assert!(after < before, "Σ1/M did not decrease on {mv}");
            }
        }
    }
}
