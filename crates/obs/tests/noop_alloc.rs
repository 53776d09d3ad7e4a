//! The disabled tracer must cost nothing: zero heap allocations per
//! recorded event, for the standalone `Tracer` and `FlightRecorder`;
//! and the enabled flight recorder allocates only at construction.
//! (The same contract for `Comm` span marks in an untraced world is
//! pinned beside the runtime, in pvr-mpisim's `tests/barrier_alloc.rs`.)
//!
//! The counting allocator is the workspace's shared one
//! (`tests/support/alloc.rs`): its counts are per thread, so sibling
//! tests running beside this one cannot pollute the window. The miri CI
//! job runs this binary to check that allocator.

#[path = "../../../tests/support/alloc.rs"]
mod alloc;

#[test]
fn disabled_tracing_allocates_nothing_per_event() {
    // Standalone no-op tracer and flight recorder.
    let t = pvr_obs::Tracer::disabled();
    let fr = pvr_obs::FlightRecorder::disabled();
    let ((), calls, _) = alloc::counting(|| {
        for i in 0..1000u64 {
            t.begin(0, "stage");
            t.instant(0, "marker", pvr_obs::Args::one("v", i));
            {
                let _guard = t.span(1, "guarded");
            }
            t.end(0, "stage");
            fr.begin_frame();
            fr.instant(0, "frame.verdict", pvr_obs::Args::one("v", i));
            fr.metric(0, "composite.bytes", i);
            fr.fault(1, "rank.crash", pvr_obs::Args::two("rank", i, "stage", 1));
        }
    });
    assert_eq!(calls, 0, "disabled Tracer must not touch the heap");
    assert_eq!(t.events_recorded(), 0);
    assert_eq!(fr.events_recorded(), 0);
}

#[test]
fn enabled_flight_recorder_allocates_only_at_construction() {
    // Recording into the preallocated ring is an indexed store.
    let fr = pvr_obs::FlightRecorder::manual(64);
    let ((), calls, _) = alloc::counting(|| {
        for i in 0..1000u64 {
            fr.instant(0, "frame.verdict", pvr_obs::Args::one("v", i));
            fr.metric(0, "composite.bytes", i);
            fr.fault(1, "rank.straggle", pvr_obs::Args::two("rank", i, "ms", 20));
        }
    });
    assert_eq!(
        calls, 0,
        "enabled FlightRecorder must not allocate per event"
    );
    assert_eq!(fr.events_recorded(), 3000);
    assert_eq!(fr.len(), 64);
}
