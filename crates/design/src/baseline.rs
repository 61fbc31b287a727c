//! A naive single-shot baseline designer, for comparison with
//! Algorithm 2 (see the `ablation` experiment).
//!
//! Strategy: post **one** reward schedule that multiplies the rewards of
//! the coins used by the target configuration `s_f` (leaving the others
//! at their organic values), let better-response learning converge,
//! revert. Intuitively this herds miners toward the right coins — but
//! nothing pins *which* miners end up *where*, so learning may settle in
//! a different equilibrium of the boosted game, and after reverting the
//! system can drift anywhere. Algorithm 2's whole point is that its
//! staged schedules make the learning outcome unique.

use goc_game::{CoinId, Configuration, Ratio, Rewards};
use goc_learning::{Dynamics, LearningOptions, Scheduler};

use crate::error::DesignError;
use crate::rewards::iteration_cost;
use crate::stage::DesignProblem;

/// Outcome of a [`naive_design`] attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Where learning settled after the boost + revert.
    pub final_config: Configuration,
    /// Whether that is exactly the requested target.
    pub reached_target: bool,
    /// Better-response steps taken (boost phase + revert phase).
    pub steps: usize,
    /// Cost of the single posted schedule.
    pub cost: f64,
}

/// Runs the single-shot baseline: boost the target support by
/// `boost_factor`, converge, revert to the original rewards, converge
/// again (the revert can destabilize the reached configuration).
///
/// # Errors
///
/// Propagates learning-engine errors; a `boost_factor` of zero or less
/// is reported as [`DesignError::Game`]-level invalid input by the
/// reward construction.
pub fn naive_design(
    problem: &DesignProblem,
    scheduler: &mut dyn Scheduler,
    boost_factor: u32,
    options: LearningOptions,
) -> Result<BaselineOutcome, DesignError> {
    let game = problem.game();
    let target_support: Vec<CoinId> = game
        .system()
        .coin_ids()
        .filter(|&c| problem.target().miners_on(c).next().is_some())
        .collect();
    let boosted: Vec<Ratio> = game
        .system()
        .coin_ids()
        .map(|c| {
            let f = game.reward_of(c);
            if target_support.contains(&c) {
                f.checked_mul_int(i128::from(boost_factor))
                    .expect("bounded inputs")
            } else {
                f
            }
        })
        .collect();
    let designed = Rewards::from_ratios(boosted).expect("non-negative by construction");
    let cost = iteration_cost(game.rewards(), &designed).to_f64();
    let boosted_game = game.with_rewards(designed)?;

    let boost_phase = Dynamics::new(&boosted_game)
        .start(problem.initial())
        .scheduler(scheduler)
        .options(options)
        .run()?;
    if !boost_phase.converged {
        return Err(DesignError::LearningDidNotConverge {
            stage: 1,
            iteration: 1,
        });
    }
    // Revert to organic rewards: the reached configuration need not be
    // stable there, so learning continues.
    let revert_phase = Dynamics::new(game)
        .start(&boost_phase.final_config)
        .scheduler(scheduler)
        .options(options)
        .run()?;
    if !revert_phase.converged {
        return Err(DesignError::LearningDidNotConverge {
            stage: 1,
            iteration: 2,
        });
    }
    let reached_target = &revert_phase.final_config == problem.target();
    Ok(BaselineOutcome {
        final_config: revert_phase.final_config,
        reached_target,
        steps: boost_phase.steps + revert_phase.steps,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_game::{equilibrium, Game};
    use goc_learning::{RoundRobin, SchedulerKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn problem() -> DesignProblem {
        let game = Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10]).unwrap();
        let (s0, sf) = equilibrium::two_equilibria(&game).unwrap();
        DesignProblem::new(game, s0, sf).unwrap()
    }

    #[test]
    fn baseline_ends_in_some_equilibrium() {
        let p = problem();
        let outcome =
            naive_design(&p, &mut RoundRobin::new(), 10, LearningOptions::default()).unwrap();
        assert!(p.game().is_stable(&outcome.final_config));
        assert!(outcome.cost > 0.0);
    }

    #[test]
    fn baseline_misses_targets_that_algorithm2_hits() {
        // Across random games and seeds, the naive baseline must fail at
        // least once where Algorithm 2 (tested elsewhere) always succeeds.
        // This is the soundness gap the ablation experiment quantifies.
        let spec = goc_game::gen::GameSpec {
            miners: 6,
            coins: 2,
            powers: goc_game::gen::PowerDist::DistinctUniform { lo: 1, hi: 500 },
            rewards: goc_game::gen::RewardDist::Uniform { lo: 100, hi: 900 },
        };
        let mut rng = SmallRng::seed_from_u64(8);
        let mut failures = 0;
        let mut trials = 0;
        while trials < 10 {
            let game = spec.sample(&mut rng).unwrap();
            let Ok((s0, sf)) = equilibrium::two_equilibria(&game) else {
                continue;
            };
            let p = DesignProblem::new(game, s0, sf).unwrap();
            let mut sched = SchedulerKind::UniformRandom.build(trials);
            let outcome = naive_design(&p, sched.as_mut(), 10, LearningOptions::default()).unwrap();
            failures += usize::from(!outcome.reached_target);
            trials += 1;
        }
        assert!(
            failures > 0,
            "the naive baseline unexpectedly hit the target in all {trials} trials"
        );
    }

    #[test]
    fn baseline_cost_scales_with_boost() {
        let p = problem();
        let small =
            naive_design(&p, &mut RoundRobin::new(), 2, LearningOptions::default()).unwrap();
        let large =
            naive_design(&p, &mut RoundRobin::new(), 20, LearningOptions::default()).unwrap();
        assert!(large.cost > small.cost);
    }
}
