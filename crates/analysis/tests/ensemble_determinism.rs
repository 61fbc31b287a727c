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
//! Both properties cover the scheduler-free incremental loop, every
//! bundled scheduler kind, and the churny fixture plan.

use std::collections::BTreeMap;

use proptest::prelude::*;

use goc_analysis::ensemble::aggregate::EquilibriumKey;
use goc_analysis::ensemble::{replica, run, run_observed, EnsembleSpec};
use goc_learning::SchedulerKind;
use goc_telemetry::trace::{TraceRecorder, DEFAULT_LANE_CAPACITY};
use goc_telemetry::{Observe, Registry};

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
            let observed = run_observed(&spec, threads, &observe).expect("ensemble runs");
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
