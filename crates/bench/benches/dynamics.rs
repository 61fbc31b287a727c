//! Criterion benches for better-response learning: single-step
//! primitives and full convergence under benign and adversarial
//! schedulers (the engine behind the Theorem 1 / speed experiments).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use goc_game::gen::{GameSpec, PowerDist, RewardDist};
use goc_game::{CoinId, Configuration, Game, MassTracker, MoveSource};
use goc_learning::{Dynamics, SchedulerKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn setup(n: usize, k: usize) -> (Game, Configuration) {
    let spec = GameSpec {
        miners: n,
        coins: k,
        powers: PowerDist::Uniform { lo: 1, hi: 100_000 },
        rewards: RewardDist::Uniform { lo: 1, hi: 100_000 },
    };
    let mut rng = SmallRng::seed_from_u64(11);
    let game = spec.sample(&mut rng).expect("valid spec");
    let start = goc_game::gen::random_config(&mut rng, game.system());
    (game, start)
}

fn bench_improving_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics/improving_moves");
    for &(n, k) in &[(16usize, 4usize), (128, 8), (1024, 16)] {
        let (game, s) = setup(n, k);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k{k}")),
            &(),
            |b, ()| {
                b.iter(|| game.improving_moves(&s));
            },
        );
    }
    group.finish();
}

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics/converge");
    group.sample_size(20);
    for &(n, k) in &[(16usize, 4usize), (64, 8), (256, 8)] {
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::MinGain] {
            if kind == SchedulerKind::MinGain && n > 64 {
                // Adversarially slow by design: a single n=256 run takes
                // tens of seconds (see the `speed` experiment); measuring
                // it here would dominate the whole bench suite.
                continue;
            }
            let (game, start) = setup(n, k);
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("n{n}_k{k}_{kind}")),
                &(),
                |b, ()| {
                    b.iter(|| {
                        let mut sched = kind.build(5);
                        Dynamics::new(&game)
                            .start(&start)
                            .scheduler(sched.as_mut())
                            .run()
                            .expect("legal scheduler")
                    });
                },
            );
        }
    }
    group.finish();
}

/// The shared scale-fixture game (`goc_sim::fixtures`): `n` miners from
/// 8 hashrate classes over 3 coins — the same workload the `scale`
/// experiment and the `BENCH_2.json` recorder measure.
fn class_game(n: usize) -> (Game, Configuration) {
    let game = goc_sim::fixtures::scale_class_game(n);
    let start = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
    (game, start)
}

fn bench_incremental_converge(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics/incremental_converge");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let (game, start) = class_game(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k3")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let outcome = Dynamics::new(&game)
                        .start(&start)
                        .run()
                        .expect("incremental dynamics");
                    assert!(outcome.converged);
                    outcome.steps
                });
            },
        );
    }
    group.finish();
}

fn bench_tracker_step(c: &mut Criterion) {
    // The primitive behind every step: apply + undo + an O(coins) query,
    // at a population size where the naive rescan would dominate.
    let mut group = c.benchmark_group("dynamics/tracker_apply_undo");
    let (game, start) = class_game(100_000);
    let mut tracker = MassTracker::new(&game, &start).expect("valid tracker");
    let p = goc_game::MinerId(0);
    group.bench_with_input(BenchmarkId::from_parameter("n100000_k3"), &(), |b, ()| {
        b.iter(|| {
            tracker.apply(p, CoinId(1));
            let rpu = tracker.rpu_list();
            tracker.undo();
            rpu
        });
    });
    group.finish();
}

fn bench_apply_undo(c: &mut Criterion) {
    // Pure group-index round trip: one apply + undo, no query in the
    // loop. Isolates the arena slab splice (remove from one class's
    // slab, insert into another, and back) from the O(coins) payoff
    // scans the other benches include — the number that moves when the
    // member-storage layout changes.
    let mut group = c.benchmark_group("dynamics/apply_undo");
    let (game, start) = class_game(100_000);
    let mut tracker = MassTracker::new(&game, &start).expect("valid tracker");
    let p = goc_game::MinerId(0);
    group.bench_with_input(BenchmarkId::from_parameter("n100000_k3"), &(), |b, ()| {
        b.iter(|| {
            let mv = tracker.apply(p, CoinId(1));
            tracker.undo();
            mv
        });
    });
    group.finish();
}

fn bench_scheduler_pick(c: &mut Criterion) {
    // One incremental pick + apply + undo per iteration, on a 100k-miner
    // source whose group-decision cache is warm — the per-step primitive
    // of the incremental scheduler protocol, per SchedulerKind.
    let mut group = c.benchmark_group("dynamics/scheduler_pick");
    let (game, start) = class_game(100_000);
    for kind in SchedulerKind::ALL {
        let mut src = MoveSource::new(&game, &start).expect("valid source");
        let mut sched = kind.build(5);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n100000_k3_{kind}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let mv = sched
                        .pick_incremental(&mut src)
                        .expect("uniform start is unstable");
                    src.apply(mv.miner, mv.to);
                    src.undo().expect("apply was recorded");
                    mv
                });
            },
        );
    }
    group.finish();
}

/// The shared churn workload (`goc_sim::fixtures::scale_churn_scenario`
/// lowered through `goc_sim::churn_universe`): the fixture game plus a
/// 10%-turnover delta stream with one coin launch and one retirement.
fn churn_workload(n: usize) -> (goc_sim::ChurnUniverse, goc_learning::ChurnPlan) {
    let spec = goc_sim::fixtures::scale_churn_scenario(n, 30.0, 9, 10);
    let universe = goc_sim::churn_universe(&spec, 1e-4).expect("fixture lowers to a universe");
    let plan = goc_learning::ChurnPlan::with_events(
        Some(universe.miner_active.clone()),
        Some(universe.coin_active.clone()),
        universe.step_deltas(n),
    );
    (universe, plan)
}

fn bench_churn_converge(c: &mut Criterion) {
    // Full convergence under 10% population turnover + coin lifecycle —
    // the workload BENCH_4.json records and the CI perf gate checks.
    let mut group = c.benchmark_group("dynamics/churn_converge");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let (universe, plan) = churn_workload(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_k3")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let outcome = Dynamics::new(&universe.game)
                        .start(&universe.start)
                        .churn(&plan)
                        .run()
                        .expect("churn dynamics");
                    assert!(outcome.converged);
                    outcome.steps + outcome.churn_applied
                });
            },
        );
    }
    group.finish();
}

fn bench_churn_delta(c: &mut Criterion) {
    // The churn primitive: one remove + insert round-trip against a
    // 100k-miner tracker (group-index splice + mass patch-up), with the
    // decision-cache repair included.
    let mut group = c.benchmark_group("dynamics/churn_delta_apply_undo");
    let (game, start) = class_game(100_000);
    let mut src = MoveSource::new(&game, &start).expect("valid source");
    let p = goc_game::MinerId(0);
    group.bench_with_input(BenchmarkId::from_parameter("n100000_k3"), &(), |b, ()| {
        b.iter(|| {
            src.apply_delta(goc_game::Delta::RemoveMiner { miner: p })
                .expect("p is active");
            src.apply_delta(goc_game::Delta::InsertMiner {
                miner: p,
                coin: None,
            })
            .expect("p is dormant");
            src.undo_delta().expect("insert recorded");
            src.undo_delta().expect("remove recorded")
        });
    });
    group.finish();
}

fn bench_scheduler_converge(c: &mut Criterion) {
    // Full convergence per SchedulerKind through the incremental path —
    // the workload BENCH_3.json records and the CI perf gate checks.
    let mut group = c.benchmark_group("dynamics/scheduler_converge");
    group.sample_size(10);
    let (game, start) = class_game(10_000);
    for kind in SchedulerKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n10000_k3_{kind}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let mut sched = kind.build(5);
                    let outcome = Dynamics::new(&game)
                        .start(&start)
                        .scheduler(sched.as_mut())
                        .run()
                        .expect("bundled schedulers are legal");
                    assert!(outcome.converged);
                    outcome.steps
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_improving_moves,
    bench_convergence,
    bench_incremental_converge,
    bench_tracker_step,
    bench_apply_undo,
    bench_scheduler_pick,
    bench_churn_converge,
    bench_churn_delta,
    bench_scheduler_converge
);
criterion_main!(benches);
