//! **appendix_b** — Appendix B: in the symmetric case (all rewards
//! equal), `H(s) = Σ_c 1/M_c(s)` is an ordinal potential (strictly
//! decreasing along better responses).
//!
//! Runs full better-response paths on symmetric games and audits the
//! decrease at every step, for every scheduler; also spot-checks that
//! the claim *fails* for asymmetric rewards (why Theorem 1 needs the
//! rank potential).

use goc_analysis::{RunReport, Table};
use goc_game::gen::{GameSpec, PowerDist, RewardDist};
use goc_game::{potential, Configuration, Extended, Move};
use goc_learning::{Dynamics, SchedulerKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{Experiment, RunContext};

/// The Appendix B experiment.
pub struct AppendixB;

/// Whether the symmetric potential strictly decreased. Appendix B's
/// argument lives on the all-coins-occupied region (H finite); while
/// some coin is still empty H is +∞ on both sides and carries no
/// information, so ∞ → ∞ steps are vacuously accepted.
fn decreased(before: Extended, after: Extended) -> bool {
    after < before || (before.is_infinite() && after.is_infinite())
}

impl Experiment for AppendixB {
    fn name(&self) -> &'static str {
        "appendix_b"
    }

    fn describe(&self) -> &'static str {
        "Appendix B: symmetric-case ordinal potential (Prop. 4)"
    }

    fn run(&self, ctx: &RunContext) -> RunReport {
        let mut report = RunReport::new(
            self.name(),
            "symmetric-case potential Σ 1/M_c (paper Appendix B, Prop. 4)",
        );
        let paths = ctx.scale(20, 5) as u64;
        report.param("paths_per_case", paths.to_string());

        let mut table = Table::new(vec![
            "n",
            "coins",
            "scheduler",
            "paths",
            "steps",
            "monotone",
        ]);
        let mut all_monotone = true;
        let mut all_converged = true;
        for &(n, k) in &[(6usize, 2usize), (10, 3), (20, 4)] {
            let spec = GameSpec {
                miners: n,
                coins: k,
                powers: PowerDist::Uniform { lo: 1, hi: 500 },
                rewards: RewardDist::Equal(1000),
            };
            for kind in SchedulerKind::ALL {
                let mut steps = 0usize;
                let mut monotone = true;
                for seed in 0..paths {
                    let mut rng = SmallRng::seed_from_u64(seed + ctx.seed);
                    let game = spec.sample(&mut rng).expect("valid spec");
                    let start = goc_game::gen::random_config(&mut rng, game.system());
                    let mut last = potential::symmetric_potential(&game, &start);
                    let mut sched = kind.build(seed);
                    let mut observe = |config: &Configuration, _: Move| {
                        let now = potential::symmetric_potential(&game, config);
                        monotone &= decreased(last, now);
                        last = now;
                    };
                    let outcome = Dynamics::new(&game)
                        .start(&start)
                        .scheduler(sched.as_mut())
                        .instrument(&mut observe)
                        .run()
                        .expect("bundled schedulers are legal");
                    all_converged &= outcome.converged;
                    steps += outcome.steps;
                }
                all_monotone &= monotone;
                table.row(vec![
                    n.to_string(),
                    k.to_string(),
                    kind.to_string(),
                    paths.to_string(),
                    steps.to_string(),
                    monotone.to_string(),
                ]);
            }
        }
        report.table("Σ 1/M_c along symmetric better-response paths", &table);
        report.check(
            "symmetric_potential_monotone",
            all_monotone,
            "H strictly decreased on every finite-region better-response step",
        );
        report.check(
            "all_paths_converged",
            all_converged,
            "every audited path reached a pure equilibrium",
        );
        report.artifact("appendix_b.csv", table.to_csv());

        // Counterpoint: with unequal rewards Σ 1/M_c is NOT a potential.
        let game = goc_game::Game::build(&[5, 4, 3, 2], &[1000, 10]).expect("valid");
        let mut violated = false;
        for s in goc_game::ConfigurationIter::bounded(game.system(), 1 << 20)
            .expect("the counterexample game is enumerable")
        {
            for mv in game.improving_moves(&s) {
                let next = s.with_move(mv.miner, mv.to);
                if !decreased(
                    potential::symmetric_potential(&game, &s),
                    potential::symmetric_potential(&game, &next),
                ) {
                    violated = true;
                }
            }
        }
        report.note(format!(
            "asymmetric control game (rewards 1000 vs 10): Σ 1/M_c monotone? {} (expected: false)",
            !violated
        ));
        report.check(
            "asymmetric_counterexample_found",
            violated,
            "the symmetric potential fails for asymmetric rewards, as the paper's restriction requires",
        );
        report
    }
}
