//! Pins whole trajectories of the learning engine on one fixed grouped
//! game: `(steps, churn_applied, cache_reprobes, final_config)` for the
//! scheduler-free run and each of the six bundled schedulers, with and
//! without a churn plan. The values were recorded before the two engine
//! loops were merged into one; any change to pick order, churn
//! interleaving or decision-cache work shows up here.

use goc_game::{CoinId, Configuration, Delta, Game, MinerId};
use goc_learning::{ChurnPlan, Dynamics, SchedulerKind};

/// 24 miners in four power classes over three coins, all starting on
/// coin 0.
fn fixture() -> (Game, Configuration) {
    let powers: Vec<u64> = (0..24).map(|i| [5u64, 3, 2, 1][i % 4]).collect();
    let game = Game::build(&powers, &[12, 7, 4]).unwrap();
    let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
    (game, start)
}

/// Every fourth miner starts offline and coin 2 dormant; the stream
/// brings a miner in, launches coin 2, removes a miner, retires coin 1,
/// and brings two more in, the last far beyond convergence so the
/// stable-state fast-forward runs too.
fn plan() -> ChurnPlan {
    let insert = |miner, coin| Delta::InsertMiner {
        miner: MinerId(miner),
        coin,
    };
    ChurnPlan::with_events(
        Some((0..24).map(|i| i % 4 != 3).collect()),
        Some(vec![true, true, false]),
        [
            (2, insert(3, None)),
            (4, Delta::LaunchCoin { coin: CoinId(2) }),
            (7, Delta::RemoveMiner { miner: MinerId(0) }),
            (11, Delta::RetireCoin { coin: CoinId(1) }),
            (15, insert(7, Some(CoinId(0)))),
            (10_000, insert(11, None)),
        ],
    )
}

/// `(steps, churn_applied, cache_reprobes, final_config)`, the final
/// configuration as one coin digit per miner.
type Pin<C> = (usize, usize, u64, C);

fn run(kind: Option<SchedulerKind>, plan: Option<&ChurnPlan>) -> Pin<String> {
    let (game, start) = fixture();
    let mut sched = kind.map(|kind| kind.build(11));
    let mut dynamics = Dynamics::new(&game).start(&start);
    if let Some(sched) = sched.as_mut() {
        dynamics = dynamics.scheduler(sched.as_mut());
    }
    if let Some(plan) = plan {
        dynamics = dynamics.churn(plan);
    }
    let outcome = dynamics.run().unwrap();
    assert!(outcome.converged);
    let config = outcome.final_config.as_slice().iter();
    let config = config.map(|c| c.0.to_string()).collect();
    (
        outcome.steps,
        outcome.churn_applied,
        outcome.cache_reprobes,
        config,
    )
}

/// `(scheduler, churn?, pin)`.
#[rustfmt::skip]
const PINS: [(Option<SchedulerKind>, bool, Pin<&str>); 14] = [
    (None, false, (11, 0, 0, "121212121201000000000000")),
    (None, true, (12, 6, 0, "120202200220000000000000")),
    (Some(SchedulerKind::RoundRobin), false, (11, 0, 71, "121212121201000000000000")),
    (Some(SchedulerKind::RoundRobin), true, (9, 6, 92, "100202202200000000000000")),
    (Some(SchedulerKind::UniformRandom), false, (13, 0, 96, "211111211020002000000000")),
    (Some(SchedulerKind::UniformRandom), true, (12, 6, 92, "102200220200022000000000")),
    (Some(SchedulerKind::MaxGain), false, (10, 0, 73, "122111022001100000000000")),
    (Some(SchedulerKind::MaxGain), true, (9, 6, 78, "120202200000200000000000")),
    (Some(SchedulerKind::MinGain), false, (31, 0, 227, "110120022011100100010001")),
    (Some(SchedulerKind::MinGain), true, (12, 6, 92, "122200022000002000000000")),
    (Some(SchedulerKind::LargestMinerFirst), false, (7, 0, 40, "100220001000100020001000")),
    (Some(SchedulerKind::LargestMinerFirst), true, (9, 6, 69, "200020000000200020000000")),
    (Some(SchedulerKind::SmallestMinerFirst), false, (23, 0, 141, "012201120122011200120012")),
    (Some(SchedulerKind::SmallestMinerFirst), true, (12, 6, 81, "022202220000000000000020")),
];

#[test]
fn trajectories_are_pinned_for_every_scheduler_with_and_without_churn() {
    let plan = plan();
    for (kind, churn, (steps, churn_applied, reprobes, config)) in PINS {
        let got = run(kind, churn.then_some(&plan));
        let want = (steps, churn_applied, reprobes, config.to_string());
        assert_eq!(got, want, "{kind:?}, churn: {churn}");
    }
}
