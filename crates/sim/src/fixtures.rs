//! The shared large-population fixture.
//!
//! The `scale` experiment and the `baseline` recorder's `dynamics`,
//! `sim` and `scheduler/*` layers (`BENCH_10.json`) must all measure
//! the **same** workload, or the recorded baseline silently
//! stops describing what the experiment runs. This module is that single
//! source of truth: eight hashrate classes ([`SCALE_CLASSES`]) and the
//! two populations built from them — a static game
//! ([`scale_class_game`]) and a cohort scenario
//! ([`scale_cohort_scenario`]).

use goc_game::Game;

use crate::agent::OracleKind;
use crate::spec::{
    Assignment, ChainFlavor, ChainSpec, ChurnSpec, CohortChurnSpec, CohortSpec, CoinEventSpec,
    CoinLifecycle, MinerSpec, ScenarioSpec,
};

/// One hashrate class of the scale fixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashrateClass {
    /// Display name.
    pub name: &'static str,
    /// Integer power units (static-game side).
    pub power: u64,
    /// Per-rig hashrate (simulation side).
    pub hashrate: f64,
    /// Hours between profitability evaluations.
    pub eval_hours: f64,
    /// Relative gain required to switch.
    pub inertia: f64,
}

const fn class(
    name: &'static str,
    power: u64,
    hashrate: f64,
    eval_hours: f64,
    inertia: f64,
) -> HashrateClass {
    HashrateClass {
        name,
        power,
        hashrate,
        eval_hours,
        inertia,
    }
}

/// The eight hashrate classes shared by the dynamics games and the sim
/// cohorts, largest first.
pub const SCALE_CLASSES: [HashrateClass; 8] = [
    class("asic-farm", 34, 3_400.0, 2.0, 0.010),
    class("warehouse", 21, 2_100.0, 2.5, 0.015),
    class("pool-node", 13, 1_300.0, 3.0, 0.020),
    class("pro-rig", 8, 800.0, 4.0, 0.030),
    class("garage", 5, 500.0, 5.0, 0.040),
    class("hobbyist", 3, 300.0, 6.0, 0.050),
    class("laptop", 2, 200.0, 7.0, 0.060),
    class("dorm", 1, 100.0, 8.0, 0.080),
];

/// An `n`-miner static game drawn from [`SCALE_CLASSES`] over three
/// coins with rewards 55/30/15.
pub fn scale_class_game(n: usize) -> Game {
    let powers: Vec<u64> = (0..n)
        .map(|i| SCALE_CLASSES[i % SCALE_CLASSES.len()].power)
        .collect();
    Game::build(&powers, &[55, 30, 15]).expect("class powers and rewards are in range")
}

/// The cohort scenario: `n` rigs in one cohort per class over a
/// two-chain market (`major` at price 4, `minor` at price 1; the two
/// smallest classes start on `minor`). Shockless — callers add shocks
/// or whales on top when the workload calls for them.
pub fn scale_cohort_scenario(n: usize, horizon_days: f64, seed: u64) -> ScenarioSpec {
    let per = n / SCALE_CLASSES.len();
    ScenarioSpec {
        name: format!("scale_{n}"),
        horizon_days,
        snapshot_hours: 6.0,
        seed,
        oracle: OracleKind::Hashrate,
        chains: vec![
            ChainSpec::simple(
                "major",
                ChainFlavor::BchLike,
                5_000_000,
                crate::spec::PriceSpec::Constant { value: 4.0 },
            ),
            ChainSpec::simple(
                "minor",
                ChainFlavor::BchLike,
                5_000_000,
                crate::spec::PriceSpec::Constant { value: 1.0 },
            ),
        ],
        miners: MinerSpec::Cohorts(
            SCALE_CLASSES
                .iter()
                .enumerate()
                .map(|(i, c)| CohortSpec {
                    name: c.name.into(),
                    count: per.max(1),
                    hashrate: c.hashrate,
                    coin: usize::from(i >= 6), // the two smallest classes start on `minor`
                    eval_hours: c.eval_hours,
                    inertia: c.inertia,
                    cost_per_hash: 0.0,
                })
                .collect(),
        ),
        assignment: Assignment::Explicit,
        shocks: Vec::new(),
        whale: None,
        churn: None,
    }
}

/// The churny population **base**: the scale cohort scenario plus a
/// third chain (`upstart`, price 2) that churn plans may launch — its
/// first scheduled event being a launch is what makes it start dormant.
/// Callers attach a [`ChurnSpec`] on top ([`scale_churn_scenario`] does,
/// with the standard turnover processes; the ensemble engine does, with
/// whatever plan its spec carries).
pub fn scale_churn_base(n: usize, horizon_days: f64, seed: u64) -> ScenarioSpec {
    let mut spec = scale_cohort_scenario(n, horizon_days, seed);
    spec.name = format!("churn_{n}");
    spec.chains.push(ChainSpec::simple(
        "upstart",
        ChainFlavor::BchLike,
        5_000_000,
        crate::spec::PriceSpec::Constant { value: 2.0 },
    ));
    spec
}

/// The churn workload: [`scale_churn_base`] plus (1) a launch of the
/// dormant `upstart` chain a third of the way in, (2) the retirement of
/// `minor` two thirds of the way in, and (3) per-cohort
/// arrival/departure processes sized so the *expected* total turnover
/// is ≈ `1.5 × turnover_pct%` of the head-count (the margin keeps
/// realized turnover above the target with high probability). This is
/// the single source of truth for the `churn` experiment and the
/// `baseline` recorder's `churn` layer.
pub fn scale_churn_scenario(
    n: usize,
    horizon_days: f64,
    seed: u64,
    turnover_pct: u32,
) -> ScenarioSpec {
    let mut spec = scale_churn_base(n, horizon_days, seed);
    let per = (n / SCALE_CLASSES.len()).max(1);
    // Target events over the horizon, split evenly over 8 cohorts × 2
    // processes (arrivals + departures).
    let target_events = 1.5 * (turnover_pct as f64 / 100.0) * (per * SCALE_CLASSES.len()) as f64;
    let rate = target_events / (2.0 * SCALE_CLASSES.len() as f64) / horizon_days;
    spec.churn = Some(ChurnSpec {
        cohorts: (0..SCALE_CLASSES.len())
            .map(|cohort| CohortChurnSpec {
                cohort,
                arrivals_per_day: rate,
                departures_per_day: rate,
                max_extra: per.div_ceil(2),
            })
            .collect(),
        coins: vec![
            CoinEventSpec {
                day: horizon_days / 3.0,
                coin: 2,
                event: CoinLifecycle::Launch,
            },
            CoinEventSpec {
                day: horizon_days * 2.0 / 3.0,
                coin: 1,
                event: CoinLifecycle::Retire,
            },
        ],
    });
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimChurn;

    #[test]
    fn fixture_populations_validate_and_agree_on_shape() {
        let game = scale_class_game(80);
        assert_eq!(game.system().num_miners(), 80);
        assert_eq!(game.system().num_coins(), 3);
        let spec = scale_cohort_scenario(80, 5.0, 1);
        spec.validate().expect("fixture scenario validates");
        assert_eq!(spec.miners.num_agents(), SCALE_CLASSES.len());
        assert_eq!(spec.miners.count(), 80);
        // Game powers and sim hashrates are the same classes in the same
        // proportions (hashrate = 100 × power throughout).
        for c in &SCALE_CLASSES {
            assert_eq!(c.hashrate, c.power as f64 * 100.0, "{} drifted", c.name);
        }
    }

    #[test]
    fn churn_fixture_validates_and_hits_its_turnover_target() {
        let spec = scale_churn_scenario(160, 30.0, 3, 10);
        spec.validate().expect("churn fixture validates");
        let churn = spec.churn.as_ref().expect("fixture has churn");
        // The upstart chain starts dormant; the two live chains stay.
        assert_eq!(churn.initial_live(3), vec![true, true, false]);
        let timeline = churn.timeline(&spec);
        let migrations = timeline
            .iter()
            .filter(|(_, e)| matches!(e, SimChurn::RigJoin { .. } | SimChurn::RigLeave { .. }))
            .count();
        // Expected ≈ 1.5 × 10% of 160 = 24 rig events; the cap filter
        // and Poisson noise move it around, but a fixture whose realized
        // turnover undershoots the 10% target defeats the experiment.
        assert!(
            migrations >= 16,
            "only {migrations} rig events on a 160-rig population"
        );
        // Exactly one launch and one retirement, in that order.
        let coins: Vec<&SimChurn> = timeline
            .iter()
            .filter(|(_, e)| matches!(e, SimChurn::Coin { .. }))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(
            coins,
            vec![
                &SimChurn::Coin {
                    coin: 2,
                    live: true
                },
                &SimChurn::Coin {
                    coin: 1,
                    live: false
                }
            ]
        );
        // Timeline is deterministic per seed.
        assert_eq!(timeline, churn.timeline(&spec));
        // The simulation runs the same stream mechanistically.
        let mut sim = spec.build().expect("builds");
        assert!(!sim.is_coin_live(2));
        let metrics = sim.run().clone();
        assert_eq!(metrics.total_churn_events, timeline.len() as u64);
    }
}
