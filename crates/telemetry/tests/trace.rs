//! Concurrency properties of the flight recorder, and the Chrome-trace
//! export schema.
//!
//! The recorder's contract under contention: writer threads (one
//! [`TraceLane`] each) never produce a torn record — a snapshot raced
//! against live writers only ever sees whole `(kind, phase, nanos,
//! correlation)` tuples — every lane's retained window respects its
//! capacity, the `dropped` counter accounts for every overwritten
//! record exactly, and a disabled recorder emits nothing no matter how
//! many threads hammer it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use goc_telemetry::trace::{TraceEventKind, TracePhase, TraceRecorder, TraceSnapshot};
use proptest::prelude::*;

/// Encodes writer `t`'s `i`-th record so any mix-up is detectable: the
/// correlation names the writer and sequence, and the kind/phase are a
/// pure function of it — a torn word/correlation pairing decodes to a
/// mismatched tuple.
fn expected_kind(correlation: u64) -> TraceEventKind {
    TraceEventKind::ALL[(correlation % TraceEventKind::ALL.len() as u64) as usize]
}

fn write_plan(t: u64, i: u64, per_thread: u64) -> u64 {
    t * per_thread + i
}

fn assert_untorn(snap: &TraceSnapshot) {
    for event in &snap.events {
        assert_eq!(
            event.kind,
            expected_kind(event.correlation),
            "kind must match the correlation it was written with"
        );
        assert_eq!(event.phase, TracePhase::Instant);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn contending_writers_never_tear_and_drops_account_exactly(
        threads in 1u64..6,
        per_thread in 1u64..3000,
        capacity in 1usize..512,
    ) {
        let recorder = TraceRecorder::new(capacity);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let recorder = recorder.clone();
                std::thread::spawn(move || {
                    let lane = recorder.lane();
                    for i in 0..per_thread {
                        let corr = write_plan(t, i, per_thread);
                        lane.instant(expected_kind(corr), corr);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer threads do not panic");
        }
        let snap = recorder.snapshot();
        assert_untorn(&snap);
        // Quiescent accounting is exact: every written record was
        // either retained or counted as dropped.
        let written = threads * per_thread;
        prop_assert_eq!(snap.events.len() as u64 + snap.dropped, written);
        // Each lane's retained window respects its capacity...
        for lane in 0..threads as usize {
            let kept = snap.events.iter().filter(|e| e.lane == lane).count();
            prop_assert!(kept <= capacity, "lane {lane} kept {kept} > {capacity}");
        }
        // ...and each writer's retained records are its *newest*, in
        // write order (per-lane timestamps are monotone).
        for t in 0..threads {
            let range = (t * per_thread)..((t + 1) * per_thread);
            let mut correlations: Vec<u64> = snap
                .events
                .iter()
                .filter(|e| range.contains(&e.correlation))
                .map(|e| e.correlation)
                .collect();
            let newest = range.end - correlations.len() as u64;
            correlations.sort_unstable();
            prop_assert_eq!(correlations, (newest..range.end).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn snapshots_raced_against_writers_see_only_whole_records(
        threads in 1u64..4,
        per_thread in 200u64..2000,
    ) {
        // Tiny rings force constant overwrite while the main thread
        // drains mid-flight: no snapshot may ever contain a torn tuple.
        let recorder = TraceRecorder::new(8);
        let done = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let recorder = recorder.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let lane = recorder.lane();
                    for i in 0..per_thread {
                        let corr = write_plan(t, i, per_thread);
                        lane.instant(expected_kind(corr), corr);
                    }
                    done.store(true, Ordering::Release);
                })
            })
            .collect();
        while !done.load(Ordering::Acquire) {
            assert_untorn(&recorder.snapshot());
        }
        for h in handles {
            h.join().expect("writer threads do not panic");
        }
        let snap = recorder.snapshot();
        assert_untorn(&snap);
        prop_assert_eq!(snap.events.len() as u64 + snap.dropped, threads * per_thread);
    }

    #[test]
    fn disabled_recorders_emit_nothing_under_contention(
        threads in 1u64..6,
        per_thread in 1u64..2000,
    ) {
        let recorder = TraceRecorder::disabled();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let recorder = recorder.clone();
                std::thread::spawn(move || {
                    let lane = recorder.lane();
                    for i in 0..per_thread {
                        lane.instant(expected_kind(t + i), t + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer threads do not panic");
        }
        let snap = recorder.snapshot();
        prop_assert!(!snap.enabled);
        prop_assert!(snap.events.is_empty());
        prop_assert_eq!(snap.dropped, 0);
    }
}

/// The Chrome Trace Event Format dump must parse as JSON and carry
/// every retained record back out: name ↔ kind, ph ↔ phase, tid ↔
/// lane, ts ↔ nanos (µs at 3 decimals), args.correlation ↔
/// correlation, and the dropped count in otherData.
#[test]
fn chrome_export_round_trips_every_event() {
    let recorder = TraceRecorder::new(4);
    let lane = recorder.lane();
    lane.instant(TraceEventKind::ReplicaStart, 7); // overwritten below; dropped = 1
    {
        let _serve = lane.span(TraceEventKind::RequestServe, 42);
        lane.instant(TraceEventKind::RequestAdmit, 42);
    }
    lane.instant(TraceEventKind::ReplicaFinish, u64::MAX);
    let snap = recorder.snapshot();
    assert_eq!(snap.events.len(), 4);
    assert_eq!(snap.dropped, 1);

    let json = snap.to_chrome_json();
    let value = serde_json::parse_value(&json).expect("chrome dump parses as JSON");
    assert_eq!(
        value.get("displayTimeUnit"),
        Some(&serde_json::Value::String("ms".into()))
    );
    assert_eq!(
        value.get("otherData").and_then(|o| o.get("dropped")),
        Some(&serde_json::Value::Int(1))
    );
    let serde_json::Value::Array(events) = value.get("traceEvents").expect("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert_eq!(events.len(), snap.events.len());
    for (json_event, event) in events.iter().zip(&snap.events) {
        assert_eq!(
            json_event.get("name"),
            Some(&serde_json::Value::String(event.kind.name().into()))
        );
        assert_eq!(
            json_event.get("ph"),
            Some(&serde_json::Value::String(event.phase.chrome_ph().into()))
        );
        assert_eq!(
            json_event.get("cat"),
            Some(&serde_json::Value::String("goc".into()))
        );
        assert_eq!(json_event.get("pid"), Some(&serde_json::Value::Int(1)));
        assert_eq!(
            json_event.get("tid"),
            Some(&serde_json::Value::Int(event.lane as i128))
        );
        let Some(&serde_json::Value::Float(ts)) = json_event.get("ts") else {
            panic!("ts must be a float");
        };
        assert!(
            (ts - event.nanos as f64 / 1e3).abs() <= 1e-3,
            "ts is microseconds at 3 decimals"
        );
        assert_eq!(
            json_event.get("args").and_then(|a| a.get("correlation")),
            Some(&serde_json::Value::Int(event.correlation as i128))
        );
        // Instants carry the scope field; span boundaries must not.
        let scope = json_event.get("s");
        if event.phase == TracePhase::Instant {
            assert_eq!(scope, Some(&serde_json::Value::String("t".into())));
        } else {
            assert_eq!(scope, None);
        }
    }
    // Begin precedes end for the serve span, and the instant nests
    // between them — the timeline reconstructs from the dump order.
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("args").and_then(|a| a.get("correlation")) == Some(&serde_json::Value::Int(42))
        })
        .map(|e| match e.get("ph") {
            Some(serde_json::Value::String(ph)) => ph.as_str(),
            _ => panic!("ph must be a string"),
        })
        .collect();
    assert_eq!(phases, vec!["B", "i", "E"]);
}

/// An empty snapshot still renders a valid, loadable document.
#[test]
fn chrome_export_of_an_empty_recorder_is_valid_json() {
    let json = TraceRecorder::disabled().snapshot().to_chrome_json();
    let value = serde_json::parse_value(&json).expect("empty dump parses");
    assert_eq!(
        value.get("traceEvents"),
        Some(&serde_json::Value::Array(Vec::new()))
    );
}
