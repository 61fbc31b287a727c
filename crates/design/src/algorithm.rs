//! Algorithm 2: the dynamic reward design driving any better-response
//! learning from `s0` to `sf` (paper §5), with optional verification of
//! Lemma 1's Ψ invariants and Theorem 2's Φ progress measure.

use goc_game::{Configuration, Game, Move};
use goc_learning::{Dynamics, LearningOptions, Scheduler};

use crate::error::DesignError;
use crate::rewards::{h1, hi, iteration_cost};
use crate::stage::DesignProblem;
use crate::verify::PsiChecker;

/// Options for a design run.
#[derive(Debug, Clone, Copy)]
pub struct DesignOptions {
    /// Cap on loop iterations per stage; Theorem 2 bounds the true count
    /// by `2^(n-i+1)`, so the cap only guards against engine bugs.
    pub max_iterations_per_stage: usize,
    /// Options forwarded to each learning phase.
    pub learning: LearningOptions,
    /// Verify Lemma 1's Ψ₁–Ψ₅ invariants after every learning step and the
    /// Φ progress measure after every iteration (recommended in tests;
    /// costs one masses-recompute per step).
    pub verify_invariants: bool,
}

impl Default for DesignOptions {
    fn default() -> Self {
        DesignOptions {
            max_iterations_per_stage: 100_000,
            learning: LearningOptions::default(),
            verify_invariants: false,
        }
    }
}

/// Per-stage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage number (1-based as in the paper).
    pub stage: usize,
    /// Loop iterations executed (0 when the stage was already satisfied).
    pub iterations: usize,
    /// Better-response steps taken across the stage's learning phases.
    pub steps: usize,
    /// Sum of per-iteration manipulation costs (`Σ_c max(0, H−F)` each),
    /// accumulated in `f64` — each iteration's cost is exact, but exact
    /// sums across iterations grow denominators without bound.
    pub cost: f64,
}

/// Outcome of a full Algorithm 2 run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignOutcome {
    /// The final configuration (always `sf` on success).
    pub final_config: Configuration,
    /// Per-stage reports, in stage order.
    pub stages: Vec<StageReport>,
    /// Total learning steps across all stages.
    pub total_steps: usize,
    /// Total loop iterations across all stages.
    pub total_iterations: usize,
    /// Total manipulation cost (see [`StageReport::cost`]).
    pub total_cost: f64,
}

impl DesignOutcome {
    fn tally(stages: Vec<StageReport>, final_config: Configuration) -> Self {
        let total_steps = stages.iter().map(|s| s.steps).sum();
        let total_iterations = stages.iter().map(|s| s.iterations).sum();
        let total_cost = stages.iter().map(|s| s.cost).sum::<f64>();
        DesignOutcome {
            final_config,
            stages,
            total_steps,
            total_iterations,
            total_cost,
        }
    }
}

/// Runs Algorithm 2 on `problem` with the given learning `scheduler`.
///
/// Each loop iteration posts a designed reward schedule (`H₁` for stage 1,
/// `H_i(s)` otherwise), lets better-response learning converge in the
/// modified game, and repeats until the stage configuration `sⁱ` is
/// reached; after stage `n`, the system sits in `sf`, which is stable
/// under the *original* rewards, so the manipulation can stop.
///
/// # Errors
///
/// * [`DesignError::LearningDidNotConverge`] if a learning phase exhausts
///   its step budget.
/// * [`DesignError::StageStalled`] if a stage makes no Φ progress or
///   exceeds the iteration cap (would contradict Theorem 2).
/// * [`DesignError::InvariantViolated`] if verification is enabled and a
///   Ψ/T_i invariant breaks (would contradict Lemma 1).
///
/// # Examples
///
/// ```
/// use goc_design::{design, DesignOptions, DesignProblem};
/// use goc_game::{equilibrium, Game};
/// use goc_learning::RoundRobin;
///
/// let game = Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10])?;
/// let (s0, sf) = equilibrium::two_equilibria(&game)?;
/// let problem = DesignProblem::new(game.clone(), s0, sf.clone())?;
/// let outcome = design(&problem, &mut RoundRobin::new(), DesignOptions::default())?;
/// assert_eq!(outcome.final_config, sf);
/// assert!(game.is_stable(&outcome.final_config)); // safe to stop paying
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn design(
    problem: &DesignProblem,
    scheduler: &mut dyn Scheduler,
    options: DesignOptions,
) -> Result<DesignOutcome, DesignError> {
    let game = problem.game();
    let mut s = problem.initial().clone();
    let mut stages = Vec::with_capacity(problem.num_stages());

    if &s == problem.target() {
        return Ok(DesignOutcome::tally(stages, s));
    }

    for i in 1..=problem.num_stages() {
        let target_config = problem.stage_config(i);
        let mut report = StageReport {
            stage: i,
            iterations: 0,
            steps: 0,
            cost: 0.0,
        };

        while s != target_config {
            if report.iterations >= options.max_iterations_per_stage {
                return Err(DesignError::StageStalled {
                    stage: i,
                    iterations: report.iterations,
                });
            }
            report.iterations += 1;
            let phi_before = (i >= 2).then(|| problem.phi(i, &s));

            let designed = if i == 1 {
                h1(problem)
            } else {
                hi(problem, i, &s)?
            };
            report.cost += iteration_cost(game.rewards(), &designed).to_f64();
            let design_game: Game = game.with_rewards(designed)?;

            let outcome = if options.verify_invariants && i >= 2 {
                run_verified(
                    problem,
                    i,
                    report.iterations,
                    &design_game,
                    &s,
                    scheduler,
                    options,
                )?
            } else {
                Dynamics::new(&design_game)
                    .start(&s)
                    .scheduler(scheduler)
                    .options(options.learning)
                    .run()?
            };
            if !outcome.converged {
                return Err(DesignError::LearningDidNotConverge {
                    stage: i,
                    iteration: report.iterations,
                });
            }
            report.steps += outcome.steps;

            // Theorem 2 progress: Φ_i strictly increases per iteration.
            if let Some(before) = phi_before {
                if problem.phi(i, &outcome.final_config) <= before {
                    return Err(DesignError::StageStalled {
                        stage: i,
                        iterations: report.iterations,
                    });
                }
            } else if outcome.final_config == s {
                // Stage 1 converged without moving: H₁ failed to create a
                // better response (cannot happen with the +1 fix).
                return Err(DesignError::StageStalled {
                    stage: i,
                    iterations: report.iterations,
                });
            }
            s = outcome.final_config;
        }
        stages.push(report);
    }

    debug_assert_eq!(&s, problem.target());
    Ok(DesignOutcome::tally(stages, s))
}

/// Runs one learning phase with a [`PsiChecker`] attached, translating any
/// recorded violation into [`DesignError::InvariantViolated`].
fn run_verified(
    problem: &DesignProblem,
    stage: usize,
    iteration: usize,
    design_game: &Game,
    start: &Configuration,
    scheduler: &mut dyn Scheduler,
    options: DesignOptions,
) -> Result<goc_learning::LearningOutcome, DesignError> {
    let mut checker = PsiChecker::new(problem, stage, start)?;
    let mut observe = |config: &Configuration, mv: Move| checker.observe(config, mv);
    let outcome = Dynamics::new(design_game)
        .start(start)
        .scheduler(scheduler)
        .options(options.learning)
        .instrument(&mut observe)
        .run()?;
    if let Some(what) = checker.into_violation() {
        return Err(DesignError::InvariantViolated {
            stage,
            iteration,
            what,
        });
    }
    // Lemma 1 conclusions at the converged configuration.
    if outcome.converged {
        if !problem.in_t(stage, &outcome.final_config) {
            return Err(DesignError::InvariantViolated {
                stage,
                iteration,
                what: format!(
                    "converged configuration {} left T_{stage}",
                    outcome.final_config
                ),
            });
        }
        if let Some(m) = problem.mover_rank(stage, start) {
            let mover = problem.ranked(m);
            // Lemma 1(2): the mover ends at s_f.p_i.
            if outcome.final_config.coin_of(mover) != problem.final_coin(stage) {
                return Err(DesignError::InvariantViolated {
                    stage,
                    iteration,
                    what: format!("mover {mover} did not settle on the stage target"),
                });
            }
            // Lemma 1(1): every rank below the mover kept its coin.
            for k in 1..m {
                let p = problem.ranked(k);
                if outcome.final_config.coin_of(p) != start.coin_of(p) {
                    return Err(DesignError::InvariantViolated {
                        stage,
                        iteration,
                        what: format!("rank-{k} miner {p} moved during the phase"),
                    });
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use goc_game::gen::{GameSpec, PowerDist, RewardDist};
    use goc_game::{equilibrium, CoinId};
    use goc_learning::{RoundRobin, SchedulerKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn problem() -> DesignProblem {
        let game = Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10]).unwrap();
        let (s0, sf) = equilibrium::two_equilibria(&game).unwrap();
        DesignProblem::new(game, s0, sf).unwrap()
    }

    fn verified_options() -> DesignOptions {
        DesignOptions {
            verify_invariants: true,
            ..DesignOptions::default()
        }
    }

    #[test]
    fn reaches_target_with_round_robin() {
        let p = problem();
        let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
        assert_eq!(&outcome.final_config, p.target());
        assert!(p.game().is_stable(&outcome.final_config));
        assert!(outcome.total_cost > 0.0);
        assert_eq!(outcome.stages.len(), p.num_stages());
    }

    #[test]
    fn reaches_target_under_every_scheduler() {
        let p = problem();
        for kind in SchedulerKind::ALL {
            let mut sched = kind.build(123);
            let outcome = design(&p, sched.as_mut(), verified_options())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(&outcome.final_config, p.target(), "{kind}");
        }
    }

    #[test]
    fn both_directions_work() {
        let game = Game::build(&[13, 11, 7, 5, 3, 2], &[17, 10]).unwrap();
        let (a, b) = equilibrium::two_equilibria(&game).unwrap();
        for (s0, sf) in [(a.clone(), b.clone()), (b, a)] {
            let p = DesignProblem::new(game.clone(), s0, sf.clone()).unwrap();
            let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
            assert_eq!(outcome.final_config, sf);
        }
    }

    #[test]
    fn identity_design_is_free() {
        let game = Game::build(&[5, 3, 2], &[9, 4]).unwrap();
        let eq = equilibrium::greedy_equilibrium(&game);
        let p = DesignProblem::new(game, eq.clone(), eq).unwrap();
        let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
        assert_eq!(outcome.total_iterations, 0);
        assert_eq!(outcome.total_cost, 0.0);
    }

    #[test]
    fn random_games_random_equilibria_all_reachable() {
        let spec = GameSpec {
            miners: 6,
            coins: 3,
            powers: PowerDist::DistinctUniform { lo: 1, hi: 500 },
            rewards: RewardDist::Uniform { lo: 10, hi: 500 },
        };
        let mut rng = SmallRng::seed_from_u64(99);
        let mut tested = 0;
        while tested < 8 {
            let game = spec.sample(&mut rng).unwrap();
            let eqs = equilibrium::enumerate_equilibria(&game, 1 << 16).unwrap();
            if eqs.len() < 2 {
                continue;
            }
            tested += 1;
            let s0 = eqs[0].clone();
            let sf = eqs[eqs.len() - 1].clone();
            let p = DesignProblem::new(game, s0, sf.clone()).unwrap();
            for kind in [SchedulerKind::UniformRandom, SchedulerKind::MinGain] {
                let mut sched = kind.build(tested as u64);
                let outcome = design(&p, sched.as_mut(), verified_options())
                    .unwrap_or_else(|e| panic!("{kind}: {e}"));
                assert_eq!(&outcome.final_config, &sf, "{kind}");
            }
        }
    }

    #[test]
    fn stage_iteration_counts_respect_theorem2_bound() {
        let p = problem();
        let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
        let n = p.num_stages();
        for report in &outcome.stages {
            if report.stage >= 2 {
                let bound = 1u128 << (n - report.stage + 1);
                assert!(
                    (report.iterations as u128) <= bound,
                    "stage {} took {} iterations (> 2^{})",
                    report.stage,
                    report.iterations,
                    n - report.stage + 1
                );
            }
        }
    }

    #[test]
    fn cost_is_finite_and_positive_for_nontrivial_designs() {
        let p = problem();
        let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
        assert!(outcome.total_cost > 0.0);
        // Reverting to original rewards afterwards is safe: sf is stable.
        assert!(p.game().is_stable(p.target()));
    }

    #[test]
    fn two_miner_minimal_design() {
        // Smallest nontrivial instance: 2 miners, 2 coins, both split
        // equilibria; drive from one to the other.
        let game = Game::build(&[2, 1], &[3, 2]).unwrap();
        let eqs = equilibrium::enumerate_equilibria(&game, 1 << 10).unwrap();
        assert_eq!(eqs.len(), 2);
        let p = DesignProblem::new(game, eqs[0].clone(), eqs[1].clone()).unwrap();
        let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
        assert_eq!(&outcome.final_config, &eqs[1]);
    }

    #[test]
    fn single_coin_design_is_trivial() {
        let game = Game::build(&[3, 2, 1], &[7]).unwrap();
        let s = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let p = DesignProblem::new(game, s.clone(), s).unwrap();
        let outcome = design(&p, &mut RoundRobin::new(), verified_options()).unwrap();
        assert_eq!(outcome.total_iterations, 0);
    }
}
