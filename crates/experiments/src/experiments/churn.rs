//! **churn** — the dynamic-population engine at scale.
//!
//! The paper's equilibrium story assumes a fixed miner set, but its
//! practical framing — miners migrating hashrate across live
//! cryptocurrencies — is inherently churny: rigs come online and die,
//! coins launch and get delisted. This experiment exercises the full
//! churn pipeline end to end:
//!
//! * the shared fixture ([`goc_sim::fixtures::scale_churn_scenario`])
//!   describes per-cohort arrival/departure processes plus one scheduled
//!   coin **launch** and one **retirement**;
//! * [`goc_sim::bridge::churn_universe`] lowers it to a pre-declared
//!   miner/coin universe and a `goc_game` delta stream
//!   (`{move, insert_miner, remove_miner, launch_coin, retire_coin}`);
//! * a churn-plan [`goc_learning::Dynamics`] run interleaves the stream with every
//!   bundled [`goc_learning::SchedulerKind`]'s better-response steps
//!   over the incremental `MoveSource` — population changes repair the
//!   group-decision cache, they never rebuild it.
//!
//! Checks:
//!
//! * **convergence under turnover**: every kind absorbs ≥ the target
//!   turnover (default 10%, `goc run churn --turnover N`) plus the coin
//!   lifecycle at every population size and still reaches a state the
//!   naive dense-subgame oracle certifies stable;
//! * **oracle equivalence**: on a mid-size instance, every pick along a
//!   churny trajectory is a legal better response of the freshly
//!   projected subgame, and the tracker's unstable set matches the
//!   naive recomputation after every single delta;
//! * **cross-engine agreement**: the scheduler-free incremental
//!   [`goc_learning::Dynamics`] run absorbs the same stream and
//!   converges;
//! * **wall clock**: the slowest kind stays within budget at the
//!   largest population.
//!
//! Timing convention: wall-clock only ever appears in `secs`/`per_sec`
//! params, tables titled `timing`, and checks named `wall` — the golden
//! comparator strips exactly those. Recorded churn throughput is the
//! `churn` layer of `goc-bench`'s `baseline` bin (and the CI perf
//! gate).

use std::time::Instant;

use goc_analysis::{RunReport, Table};
use goc_game::{CoinId, Delta, MassTracker, MinerId, MoveSource};
use goc_learning::{ChurnPlan, Dynamics};
use goc_sim::fixtures::scale_churn_scenario;
use goc_sim::{churn_universe, ChurnUniverse};

use crate::{Experiment, RunContext};

/// The churn experiment.
pub struct Churn;

/// Horizon of the fixture scenario, in days.
const HORIZON_DAYS: f64 = 30.0;

/// Lowers a universe to a step-keyed plan via the shared stride policy
/// (`ChurnUniverse::step_deltas`).
fn step_plan(universe: &ChurnUniverse, expected_steps: usize) -> ChurnPlan {
    ChurnPlan::with_events(
        Some(universe.miner_active.clone()),
        Some(universe.coin_active.clone()),
        universe.step_deltas(expected_steps),
    )
}

/// Counts `(migrations, launches, retirements)` in a delta stream.
fn census(deltas: &[(f64, Delta)]) -> (usize, usize, usize) {
    let mut migrations = 0;
    let mut launches = 0;
    let mut retirements = 0;
    for (_, delta) in deltas {
        match delta {
            Delta::InsertMiner { .. } | Delta::RemoveMiner { .. } => migrations += 1,
            Delta::LaunchCoin { .. } => launches += 1,
            Delta::RetireCoin { .. } => retirements += 1,
            Delta::Move { .. } => {}
        }
    }
    (migrations, launches, retirements)
}

impl Experiment for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn describe(&self) -> &'static str {
        "Dynamic population: miner churn + coin lifecycle as incremental deltas at 100k miners"
    }

    fn run(&self, ctx: &RunContext) -> RunReport {
        let turnover = ctx.turnover_pct.unwrap_or(10);
        let mut report = RunReport::new(
            self.name(),
            "miner churn + coin lifecycle through the incremental delta pipeline",
        );
        let populations: &[usize] = if ctx.quick {
            &[1_000, 4_000]
        } else {
            &[1_000, 10_000, 100_000]
        };
        let kinds = ctx.scheduler_kinds();
        report
            .param("populations", format!("{populations:?}"))
            .param(
                "schedulers",
                kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join(","),
            )
            .param("turnover_pct", turnover.to_string())
            .param("seed", ctx.seed.to_string());
        report.note(format!(
            "cohort arrival/departure processes (≥{turnover}% turnover target) plus one \
             scheduled coin launch and one retirement, lowered to \
             {{move, insert_miner, remove_miner, launch_coin, retire_coin}} deltas and \
             interleaved with every scheduler's picks — no tracker rebuild per population \
             change"
        ));

        // -------------------------------------------------------------
        // Convergence sweep: kind × population under churn
        // -------------------------------------------------------------
        let mut table = Table::new(vec![
            "scheduler",
            "miners",
            "churn_events",
            "steps",
            "converged",
            "stable",
        ]);
        let mut timing = Table::new(vec!["scheduler", "miners", "wall_ms", "steps_per_sec"]);
        let top = *populations.last().expect("populations are nonempty");
        let mut slowest_top_secs = 0.0f64;
        for &n in populations {
            let spec = scale_churn_scenario(n, HORIZON_DAYS, ctx.seed.wrapping_add(9), turnover);
            let universe = churn_universe(&spec, 1e-4).expect("fixture lowers to a universe");
            let (migrations, launches, retirements) = census(&universe.deltas);
            if n == top {
                report.check(
                    format!("{n}_turnover_meets_target"),
                    migrations * 100 >= universe.initial_miners * turnover as usize,
                    format!(
                        "{migrations} arrivals+departures on {} initial miners (target {turnover}%)",
                        universe.initial_miners
                    ),
                );
                report.check(
                    format!("{n}_coin_lifecycle_scheduled"),
                    launches == 1 && retirements == 1,
                    format!("{launches} launch(es), {retirements} retirement(s)"),
                );
            }
            let plan = step_plan(&universe, n);
            for &kind in &kinds {
                let mut sched = kind.build(ctx.seed);
                let clock = Instant::now();
                let outcome = Dynamics::new(&universe.game)
                    .start(&universe.start)
                    .scheduler(sched.as_mut())
                    .churn(&plan)
                    .run()
                    .expect("bundled schedulers absorb legal churn");
                let wall = clock.elapsed().as_secs_f64();
                if n == top {
                    slowest_top_secs = slowest_top_secs.max(wall);
                }
                let (miner_active, coin_active) = outcome
                    .final_activity
                    .clone()
                    .expect("churn runs report activity");
                let tracker = MassTracker::with_activity(
                    &universe.game,
                    &outcome.final_config,
                    &miner_active,
                    &coin_active,
                )
                .expect("final state is coherent");
                let sub = tracker.active_subgame().expect("population is nonempty");
                let stable = sub.game.is_stable(&sub.config);
                table.row(vec![
                    kind.name().to_string(),
                    n.to_string(),
                    outcome.churn_applied.to_string(),
                    outcome.steps.to_string(),
                    outcome.converged.to_string(),
                    stable.to_string(),
                ]);
                timing.row(vec![
                    kind.name().to_string(),
                    n.to_string(),
                    format!("{:.1}", wall * 1e3),
                    format!("{:.0}", outcome.steps as f64 / wall.max(1e-9)),
                ]);
                if n == top {
                    report.check(
                        format!("{}_{n}_converges_under_churn", kind.name()),
                        outcome.converged && stable && outcome.churn_applied == plan.events.len(),
                        format!(
                            "{} steps, {} deltas absorbed, naive-subgame stability recheck",
                            outcome.steps, outcome.churn_applied
                        ),
                    );
                }
            }
        }
        report.table(
            "churny scheduler convergence (uniform cohort start)",
            &table,
        );
        report.table("churn timing (ignored by the golden comparator)", &timing);
        report.check(
            format!("slowest_scheduler_{top}_wall_clock_within_budget"),
            slowest_top_secs < 60.0,
            format!("slowest kind took {slowest_top_secs:.2} s at {top} miners (budget 60 s)"),
        );
        report.param("slowest_top_secs", format!("{slowest_top_secs:.3}"));

        // -------------------------------------------------------------
        // Oracle equivalence along a churny trajectory
        // -------------------------------------------------------------
        let m = ctx.scale(512, 192);
        let spec = scale_churn_scenario(m, HORIZON_DAYS, ctx.seed.wrapping_add(13), turnover);
        let universe = churn_universe(&spec, 1e-4).expect("fixture lowers to a universe");
        let plan = step_plan(&universe, m);
        let mut equiv = Table::new(vec![
            "scheduler",
            "steps",
            "deltas",
            "picks_legal",
            "stable",
        ]);
        for &kind in &kinds {
            let mut sched = kind.build(ctx.seed);
            let mut src = MoveSource::over(
                MassTracker::with_activity(
                    &universe.game,
                    &universe.start,
                    &universe.miner_active,
                    &universe.coin_active,
                )
                .expect("universe state is coherent"),
            );
            src.set_undo_recording(false);
            let mut next = 0usize;
            let mut steps = 0usize;
            let mut legal = true;
            'run: loop {
                let mut churned = false;
                while next < plan.events.len()
                    && (plan.events[next].at_step <= steps || src.is_stable())
                {
                    if src.apply_delta(plan.events[next].delta).is_err() {
                        legal = false;
                        break 'run;
                    }
                    next += 1;
                    churned = true;
                }
                if churned {
                    // After every delta batch: the source's unstable set
                    // equals the naive dense oracle's, id-mapped.
                    let sub = src.tracker().active_subgame().expect("nonempty");
                    let expected: Vec<MinerId> = sub
                        .game
                        .unstable_miners(&sub.config)
                        .into_iter()
                        .map(|p| sub.miners[p.index()])
                        .collect();
                    if src.unstable_miners() != expected {
                        legal = false;
                        break 'run;
                    }
                }
                if src.is_stable() {
                    break;
                }
                let Ok(mv) = sched.pick_incremental(&mut src) else {
                    legal = false;
                    break;
                };
                // The pick must be a better response of the freshly
                // projected subgame (the naive oracle), not just of the
                // incremental view.
                let sub = src.tracker().active_subgame().expect("nonempty");
                let dense_p = sub.miners.binary_search(&mv.miner).ok();
                let dense_to = sub.coins.binary_search(&mv.to).ok();
                let ok = match (dense_p, dense_to) {
                    (Some(p), Some(to)) => {
                        let masses = sub.config.masses(sub.game.system());
                        sub.game
                            .is_better_response(MinerId(p), CoinId(to), &sub.config, &masses)
                    }
                    _ => false,
                };
                if !ok {
                    legal = false;
                    break;
                }
                src.apply(mv.miner, mv.to);
                steps += 1;
                if steps > 1_000_000 {
                    legal = false;
                    break;
                }
            }
            let stable = legal && next == plan.events.len() && src.is_stable();
            equiv.row(vec![
                kind.name().to_string(),
                steps.to_string(),
                next.to_string(),
                legal.to_string(),
                stable.to_string(),
            ]);
            report.check(
                format!("{}_churny_picks_match_naive_oracle", kind.name()),
                legal && stable,
                format!("{steps} picks + {next} deltas on a {m}-miner universe"),
            );
        }
        report.table(
            format!("stepwise naive-oracle equivalence under churn ({m} miners)"),
            &equiv,
        );

        // -------------------------------------------------------------
        // Cross-engine: the scheduler-free incremental loop
        // -------------------------------------------------------------
        let n = ctx.scale(100_000, 10_000);
        let spec = scale_churn_scenario(n, HORIZON_DAYS, ctx.seed.wrapping_add(9), turnover);
        let universe = churn_universe(&spec, 1e-4).expect("fixture lowers to a universe");
        let plan = step_plan(&universe, n);
        let outcome = Dynamics::new(&universe.game)
            .start(&universe.start)
            .churn(&plan)
            .run()
            .expect("incremental churn dynamics");
        let (miner_active, coin_active) = outcome.final_activity.clone().expect("churn run");
        let tracker = MassTracker::with_activity(
            &universe.game,
            &outcome.final_config,
            &miner_active,
            &coin_active,
        )
        .expect("final state is coherent");
        report.check(
            "incremental_engine_absorbs_the_same_stream",
            outcome.converged && outcome.churn_applied == plan.events.len() && tracker.is_stable(),
            format!(
                "{n}-miner universe: {} steps, {} deltas, group-scan stability",
                outcome.steps, outcome.churn_applied
            ),
        );

        report.artifact("churn.csv", {
            let mut csv = String::from("scheduler,miners,churn_events,steps,converged\n");
            for row in table.rows() {
                csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    row[0], row[1], row[2], row[3], row[4]
                ));
            }
            csv
        });
        report
    }
}
