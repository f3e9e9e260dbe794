//! Concurrency battery for the [`FlightRecorder`]: many threads record
//! span trees while other threads drain concurrently, and the ring's
//! invariants must hold throughout — occupancy never exceeds capacity,
//! every drained trace is well-parented, and nothing vanishes without
//! being counted as dropped. Plus the scope's histogram binding: a
//! latency sample and its span event are one measurement.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use icstar_telemetry::{FlightRecorder, Histogram, SpanEvent, TraceId};

/// Every span except the root must name a parent that is also present
/// in the drained set (drains are coherent cuts over whole traces, and
/// the capacity here is large enough that nothing is evicted).
fn assert_well_parented(trace: TraceId, spans: &[SpanEvent]) {
    let ids: HashSet<_> = spans.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), spans.len(), "duplicate span ids in {trace}");
    for span in spans {
        assert_eq!(span.trace, trace);
        if let Some(parent) = span.parent {
            assert!(
                ids.contains(&parent),
                "span {} of trace {trace} names missing parent {parent}",
                span.id
            );
        }
    }
}

#[test]
fn concurrent_recorders_and_drains_keep_traces_coherent() {
    const WRITERS: usize = 8;
    const TRACES_PER_WRITER: usize = 50;
    const SPANS_PER_TRACE: usize = 4; // root + 3 children

    // Big enough that no span is ever evicted: coherence is the thing
    // under test here, eviction accounting has its own test below.
    let rec = FlightRecorder::with_capacity(WRITERS * TRACES_PER_WRITER * SPANS_PER_TRACE + 64);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let rec = rec.clone();
            writers.push(scope.spawn(move || {
                let mut traces = Vec::with_capacity(TRACES_PER_WRITER);
                for _ in 0..TRACES_PER_WRITER {
                    let trace;
                    {
                        let root = rec.scope("job");
                        trace = root.context().trace;
                        let ctx = root.context();
                        for i in 0..SPANS_PER_TRACE - 2 {
                            let mut child = rec.scope_under(ctx, format!("shard[{i}]"));
                            child.set_tid(w as u32);
                        }
                        drop(rec.scope("check")); // nests via the TLS stack
                    }
                    traces.push(trace);
                }
                traces
            }));
        }

        // A reader hammering `recent` while writers run: it must never
        // observe more than capacity and never panic.
        let reader = scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                assert!(rec.recent(usize::MAX).len() <= rec.capacity());
                assert!(rec.len() <= rec.capacity());
                std::hint::spin_loop();
            }
        });

        let all_traces: Vec<Vec<TraceId>> =
            writers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap();

        // Drain every trace concurrently from fresh threads.
        let mut drains = Vec::new();
        for traces in all_traces {
            let rec = rec.clone();
            drains.push(scope.spawn(move || {
                for trace in traces {
                    let spans = rec.drain_trace(trace);
                    assert_eq!(spans.len(), SPANS_PER_TRACE, "trace {trace}");
                    assert_well_parented(trace, &spans);
                    assert!(rec.drain_trace(trace).is_empty(), "drain is a cut");
                }
            }));
        }
        for d in drains {
            d.join().unwrap();
        }
    });

    assert_eq!(rec.dropped(), 0, "capacity was sized to avoid eviction");
    assert_eq!(rec.len(), 0, "every span was drained");
}

#[test]
fn eviction_under_pressure_counts_every_lost_span() {
    const CAPACITY: usize = 32;
    const WRITERS: usize = 4;
    const SPANS_PER_WRITER: usize = 500;

    let rec = FlightRecorder::with_capacity(CAPACITY);
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let rec = rec.clone();
            scope.spawn(move || {
                let trace = rec.new_trace();
                for _ in 0..SPANS_PER_WRITER {
                    drop(rec.scope_in(trace, "s"));
                    assert!(rec.len() <= CAPACITY);
                }
            });
        }
    });
    let total = (WRITERS * SPANS_PER_WRITER) as u64;
    assert_eq!(
        rec.len() as u64 + rec.dropped(),
        total,
        "retained + dropped = recorded"
    );
    assert_eq!(rec.len(), CAPACITY, "ring full after sustained pressure");
}

#[test]
fn a_histogram_scope_records_one_sample_equal_to_its_span() {
    let rec = FlightRecorder::new();
    let h = Histogram::detached();
    let trace;
    {
        let mut work = rec.scope("work");
        work.set_histogram(h.clone());
        trace = work.context().trace;
        // An unbound scope records its event and touches no histogram.
        drop(rec.scope("plain"));
        std::hint::black_box(());
    } // recorded here, once
    assert_eq!(h.count(), 1);
    let spans = rec.spans_for(trace);
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].name, "work");
    assert_eq!(h.snapshot().sum, spans[1].dur_ns);

    // `finish` records exactly what drop would, returns the same
    // duration, and leaves nothing for drop to record again.
    let h = Histogram::detached();
    let mut work = rec.scope("finished");
    work.set_histogram(h.clone());
    let trace = work.context().trace;
    let dur = work.finish();
    assert_eq!(h.count(), 1);
    let spans = rec.spans_for(trace);
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].dur_ns, dur.as_nanos() as u64);
    assert_eq!(h.snapshot().sum, spans[0].dur_ns);

    // A detached scope closed on another thread records the same way.
    let h = Histogram::detached();
    let mut moved = rec.scope_detached(trace, None, "moved");
    moved.set_histogram(h.clone());
    assert_eq!(
        icstar_telemetry::current_context(),
        None,
        "detached: no nesting"
    );
    std::thread::spawn(move || drop(moved)).join().unwrap();
    let moved = rec.spans_for(trace).pop().unwrap();
    assert_eq!(moved.name, "moved");
    assert_eq!(h.snapshot().sum, moved.dur_ns);
}

#[test]
fn a_cancelled_scope_records_neither_sample_nor_event() {
    let rec = FlightRecorder::new();
    let h = Histogram::detached();
    let mut doomed = rec.scope("doomed");
    doomed.set_histogram(h.clone());
    doomed.cancel();
    assert_eq!(h.count(), 0);
    assert!(rec.is_empty());
    assert_eq!(icstar_telemetry::current_context(), None);
}
