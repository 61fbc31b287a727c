//! Allocation pin for the learning engine loop.
//!
//! A counting global allocator reads exact, repeatable allocation counts
//! for `Dynamics::run` on an eight-class, three-coin game (the shape of
//! the scale fixture) warm-started by `Snapshot::fork_at` from a seeded
//! random configuration, scheduler-free and under two schedulers. The
//! loop keeps no per-step buffer: twenty times the population and about
//! twenty times the steps cost fifteen times the allocations or fewer,
//! and a step observer adds none. The counts were recorded before the
//! watching trait was replaced by a plain step-observer closure.
//!
//! This binary holds a single test, and the counter only counts
//! allocations made on the thread that opened the window, so nothing
//! else perturbs the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use goc_game::gen::random_config;
use goc_game::{CoinId, Configuration, Game, MassTracker, Move, Snapshot};
use goc_learning::{Dynamics, LearningOutcome, SchedulerKind};
use rand::{rngs::SmallRng, SeedableRng};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only reads a thread-local flag and bumps an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns the allocations (including reallocations) it
/// made on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// An `n`-miner game over eight power classes and three coins with
/// rewards 55/30/15, and a snapshot of it at a uniform start.
fn class_snapshot(n: usize) -> Snapshot {
    const POWERS: [u64; 8] = [34, 21, 13, 8, 5, 3, 2, 1];
    let powers: Vec<u64> = (0..n).map(|i| POWERS[i % POWERS.len()]).collect();
    let game = Game::build(&powers, &[55, 30, 15]).unwrap();
    let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
    Snapshot::of(&MassTracker::new(&game, &start).unwrap())
}

/// Forks `snapshot` at `start` and counts the allocations of one
/// `Dynamics::run` from the fork, optionally under a counting step
/// observer. Returns the count, the outcome and the observed steps.
fn counted_run(
    snapshot: &Snapshot,
    start: &Configuration,
    kind: Option<SchedulerKind>,
    observe: bool,
) -> (usize, LearningOutcome, usize) {
    let tracker = snapshot.fork_at(start).unwrap();
    let mut sched = kind.map(|kind| kind.build(7));
    let mut seen = 0usize;
    let mut observer = |_: &Configuration, _: Move| seen += 1;
    let (allocations, outcome) = counted(|| {
        let mut dynamics = Dynamics::new(snapshot.game()).from_tracker(tracker);
        if let Some(sched) = sched.as_mut() {
            dynamics = dynamics.scheduler(sched.as_mut());
        }
        if observe {
            dynamics = dynamics.instrument(&mut observer);
        }
        dynamics.run().unwrap()
    });
    assert!(outcome.converged);
    (allocations, outcome, seen)
}

/// `(miners, scheduler, allocations, steps)`.
#[rustfmt::skip]
const PINS: [(usize, Option<SchedulerKind>, usize, usize); 6] = [
    (1_000, None, 8, 351),
    (1_000, Some(SchedulerKind::RoundRobin), 7, 288),
    (1_000, Some(SchedulerKind::UniformRandom), 12, 303),
    (20_000, None, 120, 6_880),
    (20_000, Some(SchedulerKind::RoundRobin), 105, 5_985),
    (20_000, Some(SchedulerKind::UniformRandom), 133, 6_295),
];

#[test]
fn engine_runs_allocate_a_pinned_count_and_observers_add_none() {
    let mut measured = Vec::new();
    for miners in [1_000, 20_000] {
        let snapshot = class_snapshot(miners);
        let mut rng = SmallRng::seed_from_u64(77);
        let start = random_config(&mut rng, snapshot.game().system());
        for kind in [
            None,
            Some(SchedulerKind::RoundRobin),
            Some(SchedulerKind::UniformRandom),
        ] {
            let (bare, outcome, _) = counted_run(&snapshot, &start, kind, false);
            let (watched, observed, seen) = counted_run(&snapshot, &start, kind, true);
            assert_eq!(observed.final_config, outcome.final_config, "{kind:?}");
            assert_eq!(seen, outcome.steps, "{kind:?}: observer missed steps");
            assert_eq!(
                watched, bare,
                "{miners} miners, {kind:?}: a step observer allocated"
            );
            measured.push((miners, kind, bare, outcome.steps));
        }
    }
    assert_eq!(measured, PINS);
}
