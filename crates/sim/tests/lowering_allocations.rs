//! Allocation pin for the churny universe lowering.
//!
//! A counting global allocator reads exact, repeatable allocation counts
//! for `churn_time_zero` and `churn_timeline`. The time-zero universe is
//! built from runs of identical rigs, so its allocation count does not
//! depend on the population; the timeline is lowered with one active
//! count per cohort, so it allocates a handful of buffers, not a tree
//! node per rig.
//!
//! This binary holds a single test, and the counter only counts
//! allocations made on the thread that opened the window, so nothing
//! else perturbs the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use goc_sim::fixtures::scale_churn_scenario;
use goc_sim::{churn_time_zero, churn_timeline};

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

#[test]
fn churny_universe_lowering_allocates_per_cohort_not_per_miner() {
    let small = scale_churn_scenario(2_000, 30.0, 77, 10);
    let large = scale_churn_scenario(20_000, 30.0, 77, 10);

    let (small_allocs, small_zero) = counted(|| churn_time_zero(&small, 1e-4).expect("lowers"));
    let (large_allocs, large_zero) = counted(|| churn_time_zero(&large, 1e-4).expect("lowers"));
    assert!(large_zero.game.system().num_miners() > 10 * small_zero.initial_miners);
    assert_eq!(
        small_allocs, large_allocs,
        "churn_time_zero allocations grow with the population"
    );

    let (timeline_allocs, timeline) = counted(|| churn_timeline(&large).expect("lowers"));
    assert!(timeline.len() > 1_000, "{} deltas", timeline.len());
    assert!(
        timeline_allocs < 64,
        "churn_timeline made {timeline_allocs} allocations for {} deltas",
        timeline.len()
    );
}
