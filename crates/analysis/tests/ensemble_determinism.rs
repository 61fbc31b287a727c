//! Property suite pinning the ensemble engine's two core contracts:
//!
//! 1. **Thread invariance** — the same [`EnsembleSpec`] (same root
//!    seed) produces a bit-identical [`EnsembleAggregate`] across
//!    `threads ∈ {1, 2, 8}`: replica seeds are a pure function of
//!    `(root, index)` and the fold runs in replica order, so the worker
//!    count can only change wall-clock, never results. Observation is
//!    one more input that must not matter: with metrics and tracing
//!    fully on, the deterministic report is byte-identical.
//! 2. **Fingerprint-index fidelity** — on small games, the equilibrium
//!    census must agree exactly with a *naive* per-replica replay:
//!    collect every converged replica's full per-coin mass vector,
//!    sort-and-dedup, and compare distinct count, canonical keys, and
//!    per-key hit counts against the streaming index.
//!
//! 3. **Universe fidelity** — the shared universe every replica forks
//!    survives the binary snapshot codec (the decoded image re-encodes
//!    to the same bytes and its forks run the same dynamics), and a
//!    [`Universes`] slot reused across a random request sequence never
//!    changes a report.
//!
//! The properties cover the scheduler-free incremental loop, every
//! bundled scheduler kind, and the churny fixture plan.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use goc_analysis::ensemble::aggregate::EquilibriumKey;
use goc_analysis::ensemble::executor::replica_seed;
use goc_analysis::ensemble::{replica, run, run_observed, EnsembleSpec, Universes};
use goc_game::gen::random_config;
use goc_game::{CoinId, Configuration, MassTracker, Snapshot};
use goc_learning::{ChurnPlan, Dynamics, SchedulerKind};
use goc_sim::fixtures::{scale_churn_base, scale_class_game};
use goc_sim::{churn_timeline, churn_universe, stride_deltas, ScenarioSpec};
use goc_telemetry::trace::{TraceRecorder, DEFAULT_LANE_CAPACITY};
use goc_telemetry::{Observe, Registry};

/// The ensemble's churn-universe time resolution.
const CHURN_RESOLUTION: f64 = 1e-4;

/// A small random ensemble spec: population, replica count, root seed,
/// and a scheduler choice (index 0 = the scheduler-free incremental
/// loop, 1..=6 = the bundled kinds).
fn small_spec() -> impl Strategy<Value = EnsembleSpec> {
    (
        8usize..48,
        3usize..14,
        0u64..u64::MAX,
        0usize..=SchedulerKind::ALL.len(),
    )
        .prop_map(|(miners, replicas, seed, sched)| {
            let spec = EnsembleSpec::new(miners, replicas, seed);
            match sched {
                0 => spec,
                i => spec.with_scheduler(SchedulerKind::ALL[i - 1]),
            }
        })
}

/// As [`small_spec`], but with the fixture churn plan attached (modest
/// populations keep the per-case universe builds cheap).
fn churny_spec() -> impl Strategy<Value = EnsembleSpec> {
    (16usize..64, 2usize..6, 0u64..u64::MAX, 5u32..30).prop_map(
        |(miners, replicas, seed, turnover)| {
            EnsembleSpec::new(miners, replicas, seed)
                .with_scheduler(SchedulerKind::RoundRobin)
                .with_churn(turnover)
        },
    )
}

/// The naive census: replay every replica standalone, keep the
/// converged ones' canonical keys, sort-and-dedup.
fn naive_census(spec: &EnsembleSpec) -> (Vec<EquilibriumKey>, BTreeMap<EquilibriumKey, u64>) {
    let mut keys: Vec<EquilibriumKey> = Vec::new();
    let mut hits: BTreeMap<EquilibriumKey, u64> = BTreeMap::new();
    for i in 0..spec.replicas {
        let record = replica(spec, i).expect("small fixture replicas run");
        if record.converged {
            keys.push(record.key.clone());
            *hits.entry(record.key).or_insert(0) += 1;
        }
    }
    keys.sort();
    keys.dedup();
    (keys, hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn aggregates_are_identical_across_thread_counts(spec in small_spec()) {
        let base = run(&spec, 1).expect("ensemble runs");
        for threads in [2usize, 8] {
            let other = run(&spec, threads).expect("ensemble runs");
            prop_assert_eq!(
                &base.aggregate,
                &other.aggregate,
                "aggregate drifted between 1 and {} threads",
                threads
            );
            prop_assert_eq!(base.deterministic_json(), other.deterministic_json());
        }
        // Fully observed runs fold to the same bytes as the unobserved
        // one, at every thread count.
        for threads in [1usize, 2, 8] {
            let observe = Observe {
                registry: Registry::new(),
                tracer: TraceRecorder::new(DEFAULT_LANE_CAPACITY),
            };
            let observed = run_observed(&spec, threads, &observe, &Universes::new()).expect("ensemble runs");
            prop_assert_eq!(base.deterministic_json(), observed.deterministic_json());
        }
        // The sketch/Welford layers describe exactly the replicas run.
        prop_assert_eq!(base.aggregate.replicas, spec.replicas);
        prop_assert_eq!(base.aggregate.steps.n, spec.replicas as u64);
        prop_assert!(base.aggregate.step_percentiles.p50 <= base.aggregate.step_percentiles.p99);
    }

    #[test]
    fn fingerprint_index_matches_naive_sort_and_dedup(spec in small_spec()) {
        let report = run(&spec, 4).expect("ensemble runs");
        let (naive_keys, naive_hits) = naive_census(&spec);
        let census = &report.aggregate.equilibria;
        prop_assert_eq!(census.distinct, naive_keys.len());
        prop_assert_eq!(census.total_hits, report.aggregate.converged as u64);
        // Every listed census row matches the naive hit count for its
        // mass vector (the listing caps at 12 rows; the distinct count
        // and total_hits always cover everything).
        prop_assert!(census.entries.len() == census.distinct.min(12));
        for entry in &census.entries {
            let key = EquilibriumKey {
                masses: entry
                    .masses
                    .iter()
                    .map(|m| m.parse::<u128>().expect("decimal mass"))
                    .collect(),
                live: entry.live.clone(),
            };
            prop_assert_eq!(
                Some(&entry.hits),
                naive_hits.get(&key),
                "hit count diverged for fingerprint {}",
                &entry.fingerprint
            );
            prop_assert!(naive_keys.binary_search(&key).is_ok());
        }
    }

    #[test]
    fn churny_aggregates_are_identical_across_thread_counts(spec in churny_spec()) {
        let a = run(&spec, 1).expect("churny ensemble runs");
        let b = run(&spec, 8).expect("churny ensemble runs");
        prop_assert_eq!(&a.aggregate, &b.aggregate);
        prop_assert!(a.aggregate.churn_deltas >= a.aggregate.replicas as u64,
            "every replica absorbs at least the coin lifecycle");
    }
}

/// The ensemble's per-replica churn scenario for `spec` at `seed`.
fn churn_scenario(spec: &EnsembleSpec, seed: u64) -> ScenarioSpec {
    let mut scenario = scale_churn_base(spec.miners, spec.horizon_days, seed);
    scenario.name = format!("{}_r{seed:x}", spec.name);
    scenario.churn = spec.churn.clone();
    scenario
}

/// The universe a churn-free or scheduler-free churny `spec` shares,
/// built through the public calls the ensemble makes (class game or
/// churn universe → `MassTracker` → `Snapshot::of`); churny universes
/// are lowered from the scenario at `seed`.
fn universe(spec: &EnsembleSpec, seed: u64) -> Snapshot {
    match &spec.churn {
        None => {
            let game = scale_class_game(spec.miners);
            let start = Configuration::uniform(CoinId(0), game.system()).expect("uniform start");
            Snapshot::of(&MassTracker::new(&game, &start).expect("class tracker"))
        }
        Some(_) => {
            let universe = churn_universe(&churn_scenario(spec, seed), CHURN_RESOLUTION)
                .expect("fixture churn universes lower");
            let tracker = MassTracker::with_activity(
                &universe.game,
                &universe.start,
                &universe.miner_active,
                &universe.coin_active,
            )
            .expect("churn tracker");
            Snapshot::of(&tracker)
        }
    }
}

/// Every replica's dynamics outcome (its `Debug` image) on a
/// `fork_at` of `snapshot` at the replica's own random start, with the
/// replica's churn plan when the spec has one.
fn forked_outcomes(snapshot: &Snapshot, spec: &EnsembleSpec) -> Vec<String> {
    let system = snapshot.game().system();
    let live: Vec<CoinId> = system
        .coin_ids()
        .filter(|c| snapshot.coin_activity()[c.index()])
        .collect();
    (0..spec.replicas)
        .map(|index| {
            let seed = replica_seed(spec.seed, index);
            let drawn = random_config(&mut SmallRng::seed_from_u64(seed), system);
            // Churny universes hold a dormant coin: fold every draw onto
            // a live one (the identity when every coin is live).
            let coins = drawn
                .as_slice()
                .iter()
                .map(|c| live[c.index() % live.len()])
                .collect();
            let start = Configuration::new(coins, system).expect("live start");
            let plan = spec.churn.as_ref().map(|_| {
                let deltas = churn_timeline(&churn_scenario(spec, seed)).expect("timeline");
                ChurnPlan::with_events(
                    Some(snapshot.miner_activity().to_vec()),
                    Some(snapshot.coin_activity().to_vec()),
                    stride_deltas(&deltas, spec.miners),
                )
            });
            let tracker = snapshot.fork_at(&start).expect("fork at a live start");
            let mut dynamics = Dynamics::new(snapshot.game()).from_tracker(tracker);
            if let Some(plan) = &plan {
                dynamics = dynamics.churn(plan);
            }
            format!("{:?}", dynamics.run())
        })
        .collect()
}

/// A random request sequence over two populations: names, seeds,
/// replica counts, schedulers, horizons and churn plans vary, so some
/// neighbours share a universe key and some do not.
fn request_sequence() -> impl Strategy<Value = Vec<EnsembleSpec>> {
    prop::collection::vec(
        (
            0usize..2,
            2usize..5,
            0u64..u64::MAX,
            0usize..=SchedulerKind::ALL.len(),
            0u32..3,
            0usize..2,
        ),
        4..10,
    )
    .prop_map(|picks| {
        picks
            .into_iter()
            .enumerate()
            .map(|(i, (population, replicas, seed, sched, churn, horizon))| {
                let mut spec = EnsembleSpec::new([12, 20][population], replicas, seed);
                spec.name = format!("request_{i}");
                spec.horizon_days = [30.0, 20.0][horizon];
                if sched > 0 {
                    spec = spec.with_scheduler(SchedulerKind::ALL[sched - 1]);
                }
                if churn > 0 {
                    spec = spec.with_churn(10 * churn);
                }
                spec
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shared_universes_survive_the_codec(
        (miners, replicas, seed, turnover) in (16usize..48, 2usize..5, 0u64..u64::MAX, 5u32..30)
    ) {
        let churn_free = EnsembleSpec::new(miners, replicas, seed);
        let churny = EnsembleSpec::new(miners, replicas, seed).with_churn(turnover);
        for spec in [churn_free, churny] {
            let original = universe(&spec, 0);
            let bytes = original.encode();
            let decoded = Snapshot::try_from(bytes.as_slice()).expect("a fresh image decodes");
            prop_assert_eq!(decoded.encode(), bytes, "re-encoding the decoded image drifted");
            prop_assert_eq!(
                forked_outcomes(&decoded, &spec),
                forked_outcomes(&original, &spec),
                "forks of the decoded image ran different dynamics"
            );
        }
    }

    #[test]
    fn a_reused_universe_never_changes_a_report(specs in request_sequence()) {
        let universes = Universes::new();
        let observe = Observe {
            registry: Registry::new(),
            ..Observe::off()
        };
        let mut last = None;
        let mut builds = 0u64;
        for spec in &specs {
            let cached = run_observed(spec, 2, &observe, &universes).expect("ensemble runs");
            let fresh = run(spec, 1).expect("ensemble runs");
            prop_assert_eq!(cached.deterministic_json(), fresh.deterministic_json());
            // Scheduled churny specs never touch the slot; every other
            // spec builds exactly when its key differs from the last.
            if spec.churn.is_none() || spec.scheduler.is_none() {
                let churn = spec.churn.clone().map(|c| (spec.horizon_days.to_bits(), c));
                let key = Some((spec.miners, churn));
                if key != last {
                    builds += 1;
                    last = key;
                }
            }
        }
        prop_assert_eq!(
            observe.registry.snapshot().counter("goc_ensemble_universe_builds_total"),
            Some(builds)
        );
    }
}

#[test]
fn churn_universes_never_see_the_name_or_the_seed() {
    let spec = EnsembleSpec::new(40, 2, 1).with_churn(15);
    let mut other = spec.clone();
    other.name = "another_request".to_string();
    other.seed = 0x5eed;
    assert_eq!(
        universe(&spec, 0).encode(),
        universe(&other, other.seed).encode(),
        "the universe key (population, horizon, churn) must be all it depends on"
    );
}
