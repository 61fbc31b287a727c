//! Pins whole trajectories of the learning engine on one fixed grouped
//! game: `(steps, churn_applied, cache_reprobes, final_config)` for the
//! scheduler-free run and each of the six bundled schedulers, with and
//! without a churn plan. The values were recorded before the two engine
//! loops were merged into one; any change to pick order, churn
//! interleaving or decision-cache work shows up here. Only the
//! `cache_reprobes` column has been re-recorded since: it fell when the
//! decision cache began repairing groups on a move's two coins in place
//! instead of re-probing them all.
//!
//! A second table pins a 20 000-miner game from a seeded random start
//! whose strategic classes hold hundreds of members each, so the group
//! index splits, empties and refills classes that span several storage
//! runs. Its rows were recorded before the class storage was split into
//! runs.
//!
//! A third table pins a 2 000-miner restricted game (one barred coin per
//! miner) from a seeded random start, where every class is a single
//! miner, so each move finds or mints its destination class. Its rows
//! were recorded while classes were still found by a search over a
//! sorted key list, before the dense (family, coin) table replaced it.

use goc_game::{
    gen::{random_config, random_config_restricted},
    CoinId, Configuration, Delta, Game, MinerId,
};
use goc_learning::{ChurnPlan, Dynamics, SchedulerKind};
use rand::{rngs::SmallRng, SeedableRng};

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
    let (steps, churn_applied, reprobes, config) = run_on(&game, &start, kind, plan);
    let config = config.as_slice().iter();
    let config = config.map(|c| c.0.to_string()).collect();
    (steps, churn_applied, reprobes, config)
}

fn run_on(
    game: &Game,
    start: &Configuration,
    kind: Option<SchedulerKind>,
    plan: Option<&ChurnPlan>,
) -> Pin<Configuration> {
    let mut sched = kind.map(|kind| kind.build(11));
    let mut dynamics = Dynamics::new(game).start(start);
    if let Some(sched) = sched.as_mut() {
        dynamics = dynamics.scheduler(sched.as_mut());
    }
    if let Some(plan) = plan {
        dynamics = dynamics.churn(plan);
    }
    let outcome = dynamics.run().unwrap();
    assert!(outcome.converged);
    (
        outcome.steps,
        outcome.churn_applied,
        outcome.cache_reprobes,
        outcome.final_config,
    )
}

/// `(scheduler, churn?, pin)`.
#[rustfmt::skip]
const PINS: [(Option<SchedulerKind>, bool, Pin<&str>); 14] = [
    (None, false, (11, 0, 0, "121212121201000000000000")),
    (None, true, (12, 6, 0, "120202200220000000000000")),
    (Some(SchedulerKind::RoundRobin), false, (11, 0, 63, "121212121201000000000000")),
    (Some(SchedulerKind::RoundRobin), true, (9, 6, 90, "100202202200000000000000")),
    (Some(SchedulerKind::UniformRandom), false, (13, 0, 61, "211111211020002000000000")),
    (Some(SchedulerKind::UniformRandom), true, (12, 6, 81, "102200220200022000000000")),
    (Some(SchedulerKind::MaxGain), false, (10, 0, 68, "122111022001100000000000")),
    (Some(SchedulerKind::MaxGain), true, (9, 6, 74, "120202200000200000000000")),
    (Some(SchedulerKind::MinGain), false, (31, 0, 110, "110120022011100100010001")),
    (Some(SchedulerKind::MinGain), true, (12, 6, 57, "122200022000002000000000")),
    (Some(SchedulerKind::LargestMinerFirst), false, (7, 0, 35, "100220001000100020001000")),
    (Some(SchedulerKind::LargestMinerFirst), true, (9, 6, 66, "200020000000200020000000")),
    (Some(SchedulerKind::SmallestMinerFirst), false, (23, 0, 106, "012201120122011200120012")),
    (Some(SchedulerKind::SmallestMinerFirst), true, (12, 6, 68, "022202220000000000000020")),
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

const LARGE_MINERS: usize = 20_000;

/// 20 000 miners in eight power classes over three coins, from a seeded
/// random start: about 830 members per class, several runs each.
fn large_fixture() -> (Game, Configuration) {
    let classes = [34u64, 21, 13, 8, 5, 3, 2, 1];
    let powers: Vec<u64> = (0..LARGE_MINERS).map(|i| classes[i % 8]).collect();
    let game = Game::build(&powers, &[55, 30, 15]).unwrap();
    let start = random_config(&mut SmallRng::seed_from_u64(22), game.system());
    (game, start)
}

/// Every tenth miner starts offline. The stream brings miners in and
/// takes them out, retires coin 1 (forcing a third of the population
/// off it, which empties its classes) and relaunches it (the dynamics
/// refill them), and ends far beyond convergence.
fn large_plan() -> ChurnPlan {
    let insert = |miner, coin| Delta::InsertMiner {
        miner: MinerId(miner),
        coin,
    };
    ChurnPlan::with_events(
        Some((0..LARGE_MINERS).map(|i| i % 10 != 9).collect()),
        None,
        [
            (50, insert(9, None)),
            (100, Delta::RemoveMiner { miner: MinerId(0) }),
            (200, Delta::RetireCoin { coin: CoinId(1) }),
            (400, Delta::LaunchCoin { coin: CoinId(1) }),
            (600, insert(19, Some(CoinId(2)))),
            (
                900,
                Delta::RemoveMiner {
                    miner: MinerId(12_345),
                },
            ),
            (1_000_000, insert(29, None)),
        ],
    )
}

/// FNV-1a (64-bit) over one byte per miner: its final coin.
fn fnv1a(config: &Configuration) -> u64 {
    config
        .as_slice()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, c| {
            (h ^ c.0 as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `(scheduler, churn?, pin)` on [`large_fixture`], the final
/// configuration as its [`fnv1a`] digest.
#[rustfmt::skip]
const LARGE_PINS: [(Option<SchedulerKind>, bool, Pin<u64>); 4] = [
    (None, false, (6100, 0, 0, 12086306941733014207)),
    (None, true, (6282, 7, 0, 6417550950313868937)),
    (Some(SchedulerKind::RoundRobin), false, (5657, 0, 115279, 14499006053869220954)),
    (Some(SchedulerKind::RoundRobin), true, (6969, 7, 154277, 11860891777901768777)),
];

#[test]
fn large_class_trajectories_are_pinned() {
    let (game, start) = large_fixture();
    let plan = large_plan();
    for (kind, churn, want) in LARGE_PINS {
        let (steps, churn_applied, reprobes, config) =
            run_on(&game, &start, kind, churn.then_some(&plan));
        let got = (steps, churn_applied, reprobes, fnv1a(&config));
        assert_eq!(got, want, "{kind:?}, churn: {churn}");
    }
}

const RESTRICTED_MINERS: usize = 2_000;

/// 2 000 miners in four power classes over three coins, each barred from
/// one coin (miner `i` from coin `i % 3`), from a seeded random start on
/// permitted coins. Restricted classes are keyed per miner, so every
/// class is a singleton and every destination class is found or minted
/// on each move.
fn restricted_fixture() -> (Game, Configuration) {
    let powers: Vec<u64> = (0..RESTRICTED_MINERS)
        .map(|i| [8u64, 5, 3, 1][i % 4])
        .collect();
    let rows = (0..RESTRICTED_MINERS)
        .map(|i| (0..3).map(|c| c != i % 3).collect())
        .collect();
    let game = Game::build(&powers, &[21, 13, 8])
        .unwrap()
        .with_restrictions(rows)
        .unwrap();
    let start = random_config_restricted(&mut SmallRng::seed_from_u64(33), &game);
    (game, start)
}

/// Every eighth miner starts offline. The stream brings miners in and
/// takes them out, and retires coin 2 and relaunches it (every miner
/// keeps a permitted live coin: only one coin is ever down), ending far
/// beyond convergence.
fn restricted_plan() -> ChurnPlan {
    let insert = |miner| Delta::InsertMiner {
        miner: MinerId(miner),
        coin: None,
    };
    ChurnPlan::with_events(
        Some((0..RESTRICTED_MINERS).map(|i| i % 8 != 7).collect()),
        None,
        [
            (20, insert(7)),
            (60, Delta::RemoveMiner { miner: MinerId(4) }),
            (120, Delta::RetireCoin { coin: CoinId(2) }),
            (300, Delta::LaunchCoin { coin: CoinId(2) }),
            (400, insert(15)),
            (1_000_000, insert(23)),
        ],
    )
}

/// `(scheduler, churn?, pin)` on [`restricted_fixture`], the final
/// configuration as its [`fnv1a`] digest. `UniformRandom` draws over the
/// classes in their canonical key order, so it pins that order too.
#[rustfmt::skip]
const RESTRICTED_PINS: [(Option<SchedulerKind>, bool, Pin<u64>); 6] = [
    (None, false, (499, 0, 0, 13047797770847242384)),
    (None, true, (689, 6, 0, 8737417115040804361)),
    (Some(SchedulerKind::RoundRobin), false, (499, 0, 562532, 13047797770847242384)),
    (Some(SchedulerKind::RoundRobin), true, (689, 6, 746908, 13449124467216830910)),
    (Some(SchedulerKind::UniformRandom), false, (498, 0, 553000, 12425826899272983034)),
    (Some(SchedulerKind::UniformRandom), true, (688, 6, 747035, 1521377568908240191)),
];

#[test]
fn restricted_trajectories_are_pinned() {
    let (game, start) = restricted_fixture();
    let plan = restricted_plan();
    for (kind, churn, want) in RESTRICTED_PINS {
        let (steps, churn_applied, reprobes, config) =
            run_on(&game, &start, kind, churn.then_some(&plan));
        let got = (steps, churn_applied, reprobes, fnv1a(&config));
        assert_eq!(got, want, "{kind:?}, churn: {churn}");
    }
}
