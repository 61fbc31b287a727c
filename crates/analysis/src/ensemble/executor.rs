//! The workspace's **one parallel substrate**: a work-stealing indexed
//! executor over `std::thread::scope`.
//!
//! Both the Monte-Carlo replica ensemble ([`crate::ensemble::run`]) and
//! the experiment sweep runner ([`crate::sweep::parallel_map`]) dispatch
//! through [`run_indexed`]; there is no other thread-spawning code in
//! the workspace. The contract:
//!
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

use goc_telemetry::{Counter, Registry};

/// Telemetry handles for the executor's scheduling decisions — lock-free
/// counters ticked from inside the worker loop (one relaxed increment
/// per event; detached and free when the registry is disabled).
///
/// A task is **stolen** when the worker that claimed it is not the
/// worker that would own its index under a static round-robin partition
/// (`index % threads`): zero when the workers advance in lockstep,
/// growing exactly when dynamic claiming absorbs load imbalance — the
/// property the work-stealing counter exists to provide.
#[derive(Debug, Clone)]
pub struct ExecutorMetrics {
    /// Tasks claimed by a worker (`goc_ensemble_replicas_started_total`).
    pub started: Counter,
    /// Tasks that ran to completion without panicking
    /// (`goc_ensemble_replicas_finished_total`).
    pub finished: Counter,
    /// Tasks claimed off another worker's static share
    /// (`goc_ensemble_steals_total`).
    pub stolen: Counter,
}

impl ExecutorMetrics {
    /// Registers the ensemble executor's counter family on `registry`.
    /// (The fields are public, so a different subsystem riding
    /// [`run_indexed_recorded`] can assemble its own names instead.)
    pub fn register(registry: &Registry) -> Self {
        ExecutorMetrics {
            started: registry.counter("goc_ensemble_replicas_started_total"),
            finished: registry.counter("goc_ensemble_replicas_finished_total"),
            stolen: registry.counter("goc_ensemble_steals_total"),
        }
    }
}

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
/// returns the results **in index order**.
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
    run_indexed_recorded(count, threads, task, None)
}

/// [`run_indexed`] with scheduling telemetry: every claim, completion,
/// and steal ticks the corresponding [`ExecutorMetrics`] counter. With
/// `None` (what [`run_indexed`] passes) the loop is byte-for-byte the
/// uninstrumented one.
///
/// # Errors
///
/// As [`run_indexed`].
pub fn run_indexed_recorded<R, F>(
    count: usize,
    threads: usize,
    task: F,
    metrics: Option<&ExecutorMetrics>,
) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(count.max(1));
    if threads <= 1 || count <= 1 {
        // Sequential fast path with the same panic contract (one worker
        // owns every index, so nothing is ever stolen).
        let mut out = Vec::with_capacity(count);
        for index in 0..count {
            if let Some(metrics) = metrics {
                metrics.started.inc();
            }
            match catch_unwind(AssertUnwindSafe(|| task(index))) {
                Ok(r) => {
                    if let Some(metrics) = metrics {
                        metrics.finished.inc();
                    }
                    out.push(r);
                }
                Err(payload) => {
                    return Err(WorkerPanic {
                        index,
                        message: panic_message(payload),
                    })
                }
            }
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_panic: Mutex<Option<WorkerPanic>> = Mutex::new(None);
    // One slot per item; a worker only ever touches the slot of an index
    // it claimed from the counter, so the locks are uncontended.
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (next, failed, first_panic) = (&next, &failed, &first_panic);
            let (slots, task) = (&slots, &task);
            scope.spawn(move || loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                if let Some(metrics) = metrics {
                    metrics.started.inc();
                    if index % threads != worker {
                        metrics.stolen.inc();
                    }
                }
                // `AssertUnwindSafe`: the closure only writes through the
                // per-index slot below on success, so a panic leaves no
                // broken shared state behind.
                match catch_unwind(AssertUnwindSafe(|| task(index))) {
                    Ok(r) => {
                        *slots[index].lock().expect("slot lock is panic-free") = Some(r);
                        if let Some(metrics) = metrics {
                            metrics.finished.inc();
                        }
                    }
                    Err(payload) => {
                        let mut slot = first_panic.lock().expect("panic slot is panic-free");
                        if slot.as_ref().is_none_or(|p| index < p.index) {
                            *slot = Some(WorkerPanic {
                                index,
                                message: panic_message(payload),
                            });
                        }
                        failed.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
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
    fn metrics_count_claims_completions_and_steals() {
        for threads in [1, 4] {
            let registry = Registry::new();
            let metrics = ExecutorMetrics::register(&registry);
            let out = run_indexed_recorded(40, threads, |i| i, Some(&metrics)).unwrap();
            assert_eq!(out.len(), 40);
            let snap = registry.snapshot();
            assert_eq!(
                snap.counter("goc_ensemble_replicas_started_total"),
                Some(40)
            );
            assert_eq!(
                snap.counter("goc_ensemble_replicas_finished_total"),
                Some(40)
            );
            let steals = snap.counter("goc_ensemble_steals_total").unwrap();
            assert!(steals <= 40, "steals bounded by claims");
            if threads == 1 {
                assert_eq!(steals, 0, "one worker owns every index");
            }
        }
    }

    #[test]
    fn panicked_tasks_start_but_never_finish() {
        let registry = Registry::new();
        let metrics = ExecutorMetrics::register(&registry);
        let err = run_indexed_recorded(
            8,
            1,
            |i| {
                assert!(i != 3, "boom");
                i
            },
            Some(&metrics),
        )
        .unwrap_err();
        assert_eq!(err.index, 3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("goc_ensemble_replicas_started_total"), Some(4));
        assert_eq!(
            snap.counter("goc_ensemble_replicas_finished_total"),
            Some(3)
        );
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
