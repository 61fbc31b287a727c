//! The workspace's **one parallel substrate**: a work-stealing indexed
//! executor over `std::thread::scope`.
//!
//! The Monte-Carlo replica ensemble ([`crate::ensemble::run`]), the
//! experiments' parameter sweeps and `goc sweep` ([`parallel_map`]), and
//! the server's wire sweeps all dispatch through [`run_indexed`]; there
//! is no other thread-spawning code in the workspace. The contract:
//!
//! * **one worker loop** — a lone worker (`threads = 1`, or at most one
//!   task) runs it on the calling thread and spawns nothing; otherwise
//!   `threads` scoped threads run it while the caller waits;
//! * **input-ordered output** — results come back indexed by task, not
//!   by completion order, so callers stay deterministic;
//! * **work stealing** — workers pull the next undone index from a
//!   shared atomic counter, so a slow item never idles the other cores;
//! * **panic propagation** — a panicking task does not poison a mutex or
//!   abort the process: the executor drains, and the caller receives a
//!   [`WorkerPanic`] naming the **failing item's index** and the panic
//!   message (the smallest failing index wins when several items panic).
//!
//! Determinism of *parallel* work additionally needs per-task
//! randomness that does not depend on which worker runs the task;
//! [`replica_seed`] derives an independent `u64` stream per index from a
//! root seed (a SplitMix64 hop), which is what makes the ensemble's
//! aggregates bit-identical regardless of `--threads`.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A task panicked inside the executor: the failing item's index plus
/// the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose task panicked (the smallest failing
    /// index, when several workers panicked before the drain).
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Stringifies a panic payload (the `Box<dyn Any>` from `catch_unwind`).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `task(0..count)` on up to `threads` work-stealing workers and
/// returns the results **in index order**. A lone worker runs on the
/// calling thread; more run on scoped threads while the caller waits.
///
/// # Errors
///
/// [`WorkerPanic`] if any task panicked; remaining workers stop pulling
/// new items once a panic is observed, and the smallest failing index is
/// reported.
///
/// # Examples
///
/// ```
/// use goc_analysis::ensemble::executor::run_indexed;
/// let squares = run_indexed(5, 2, |i| i * i).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
///
/// let err = run_indexed(4, 2, |i| {
///     assert!(i != 2, "boom");
///     i
/// })
/// .unwrap_err();
/// assert_eq!(err.index, 2);
/// ```
pub fn run_indexed<R, F>(count: usize, threads: usize, task: F) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<WorkerPanic>> = Mutex::new(None);
    // One slot per item; a worker only ever touches the slot of an index
    // it claimed from the counter, so the locks are uncontended.
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let worker = || {
        while !failed.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                break;
            }
            // `AssertUnwindSafe`: the closure only writes through the
            // per-index slot below on success, so a panic leaves no
            // broken shared state behind.
            match catch_unwind(AssertUnwindSafe(|| task(index))) {
                Ok(r) => *slots[index].lock().expect("slot lock is panic-free") = Some(r),
                Err(payload) => {
                    let mut slot = first_panic.lock().expect("panic slot is panic-free");
                    if slot.as_ref().is_none_or(|p| index < p.index) {
                        *slot = Some(WorkerPanic {
                            index,
                            message: panic_message(payload),
                        });
                    }
                    failed.store(true, Ordering::Relaxed);
                }
            }
        }
    };
    if threads == 1 {
        worker();
    } else {
        // The caller waits instead of working as one of the `threads`:
        // measured on 2 cores, a helper spawned beside a busy caller
        // often started only after the caller's first task, so 15–22% of
        // 2-task batches ran serially (5% with the caller waiting).
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    if let Some(panic) = first_panic.into_inner().expect("panic slot is panic-free") {
        return Err(panic);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock is panic-free")
                .expect("every slot filled by the executor")
        })
        .collect())
}

/// Runs `f` over `items` on up to `threads` workers (see
/// [`run_indexed`]), returning outputs in input order.
///
/// # Panics
///
/// If `f` panics on some item, the panic is re-raised on the caller's
/// thread with the failing item's index and the original message.
///
/// # Examples
///
/// ```
/// use goc_analysis::parallel_map;
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed(items.len(), threads, |i| f(&items[i])).unwrap_or_else(|panic| panic!("{panic}"))
}

/// The number of worker threads to use by default: the available
/// parallelism minus one (leave a core for the OS), at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

/// Derives the `index`-th replica's RNG seed from a root seed: one
/// SplitMix64 hop per index, so replicas get independent streams and the
/// derivation is a pure function of `(root, index)` — never of which
/// worker thread ran the replica.
///
/// # Examples
///
/// ```
/// use goc_analysis::ensemble::executor::replica_seed;
/// assert_ne!(replica_seed(7, 0), replica_seed(7, 1));
/// assert_eq!(replica_seed(7, 3), replica_seed(7, 3));
/// ```
pub fn replica_seed(root: u64, index: usize) -> u64 {
    let mut z = root.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(37, threads, |i| i * 3).unwrap();
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
        let empty = run_indexed(0, 4, |i| i).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn panic_reports_the_failing_index_sequential_and_parallel() {
        for threads in [1, 4] {
            let err = run_indexed(16, threads, |i| {
                if i == 5 {
                    panic!("item {i} exploded");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.index, 5, "threads={threads}");
            assert!(err.message.contains("item 5 exploded"));
            assert!(err.to_string().contains("worker panicked on item 5"));
        }
    }

    #[test]
    fn smallest_failing_index_wins() {
        // Every item panics; whatever interleaving happens, the reported
        // index can only be one a worker actually claimed, and the drain
        // keeps the smallest seen. With 1 thread it is exactly 0.
        let err = run_indexed(8, 1, |i: usize| -> usize { panic!("{i}") }).unwrap_err();
        assert_eq!(err.index, 0);
    }

    #[test]
    fn string_and_str_payloads_survive() {
        let err =
            run_indexed(1, 1, |_| -> usize { panic!("{}", String::from("owned")) }).unwrap_err();
        assert_eq!(err.message, "owned");
    }

    #[test]
    fn panicked_tasks_start_but_never_finish() {
        // One worker claims in index order: items 0..=3 start, 0..3
        // finish, and nothing after the panic is ever claimed.
        let started = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let err = run_indexed(8, 1, |i| {
            started.fetch_add(1, Ordering::Relaxed);
            assert!(i != 3, "boom");
            finished.fetch_add(1, Ordering::Relaxed);
            i
        })
        .unwrap_err();
        assert_eq!(err.index, 3);
        assert_eq!(started.into_inner(), 4);
        assert_eq!(finished.into_inner(), 3);
    }

    #[test]
    fn a_lone_worker_is_the_caller_and_a_pool_is_spawned() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            // The first `threads` tasks meet at a barrier. A worker holds
            // one task at a time, so every worker runs one of them.
            let barrier = std::sync::Barrier::new(threads);
            let ids = run_indexed(16, threads, |i| {
                if i < threads {
                    barrier.wait();
                }
                std::thread::current().id()
            })
            .unwrap();
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), threads, "threads={threads}");
            assert_eq!(
                ids.contains(&caller),
                threads == 1,
                "threads={threads}: only a lone worker runs on the caller"
            );
        }
    }

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(&[5], 4, |&x: &i32| x + 1);
        assert_eq!(out, vec![6]);
        let empty: Vec<i32> = parallel_map(&[], 4, |x: &i32| *x);
        assert!(empty.is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn panics_carry_the_failing_index() {
        let items: Vec<u32> = (0..20).collect();
        let err = run_indexed(items.len(), 4, |i| {
            let x = items[i];
            assert!(x != 13, "unlucky");
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 13);
        assert!(err.message.contains("unlucky"));
    }

    #[test]
    #[should_panic(expected = "worker panicked on item 2")]
    fn parallel_map_reraises_with_index() {
        parallel_map(&[0u32, 1, 2], 1, |&x| {
            assert!(x != 2, "boom");
            x
        });
    }

    #[test]
    fn replica_seeds_are_spread() {
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| replica_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed collisions in the first 1000");
        // Different roots give different streams.
        assert_ne!(replica_seed(1, 0), replica_seed(2, 0));
    }
}
