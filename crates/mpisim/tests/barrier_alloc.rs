//! The crate's clock contract, pinned: an untraced world allocates
//! nothing per event. It keeps no vector clocks, so an untraced barrier
//! must not touch the heap — not one byte per rank per barrier, at any
//! world size. (It used to clone an `n`-word release clock on every rank
//! at every barrier: `3 · n² · 8` bytes a frame, 26 GB at 32K ranks.)
//! And it records no trace, so a rank's span marks cost nothing either.
//!
//! The event core runs every rank on the calling thread, the one the
//! counting allocator reads, so two worlds that differ only in how many
//! barriers each rank crosses differ in what those barriers allocated.

#[path = "../../../tests/support/alloc.rs"]
mod alloc;

/// `(calls, bytes)` allocated by an untraced 8-rank event world whose
/// ranks cross `barriers` barriers and do nothing else.
fn world_of(barriers: u64) -> (u64, u64) {
    let opts = pvr_mpisim::RunOptions::default().with_timeout(None);
    let (out, calls, bytes) = alloc::counting(|| {
        pvr_mpisim::World::run_opts(8, opts, move |comm| async move {
            for _ in 0..barriers {
                comm.barrier().await;
            }
        })
    });
    out.expect("a world of barriers completes");
    (calls, bytes)
}

#[test]
fn untraced_barrier_allocates_nothing() {
    // Whatever the first world of a process initializes lazily stays out
    // of the comparison.
    world_of(1);
    let (one, many) = (world_of(1), world_of(101));
    assert_eq!(
        many,
        one,
        "(calls, bytes): 100 more barriers on each of 8 ranks allocated, \
         {} bytes per rank per barrier",
        (many.1 as f64 - one.1 as f64) / 800.0
    );
}

#[test]
fn untraced_span_marks_allocate_nothing() {
    let opts = pvr_mpisim::RunOptions::default().with_timeout(None);
    let out = pvr_mpisim::World::run_opts(1, opts, |comm| async move {
        let ((), calls, _) = alloc::counting(|| {
            for i in 0..1000u64 {
                comm.span_begin("frame");
                comm.span_begin_v("io", i);
                comm.mark_instant("retransmit", i);
                comm.span_end("io");
                comm.span_end("frame");
            }
        });
        calls
    })
    .expect("a world of marks completes");
    assert_eq!(
        out.results[0], 0,
        "untraced Comm span marks must not touch the heap"
    );
}
