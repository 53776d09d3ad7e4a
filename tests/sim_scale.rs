//! Discrete-event scale smoke: the paper's rank counts on one machine.
//!
//! The Blue Gene/P study's end-to-end runs span 1K–32K cores. The
//! thread-per-rank executor topped out around a few hundred ranks (OS
//! threads, stacks, context switches); the event core makes a rank a
//! resumable task, so a 32K-rank world is a data structure. These tests
//! drive the *real* frame pipeline — two-phase-style reads, render,
//! direct-send compositing with the paper's improved compositor count,
//! gather — at n = 1024 and 4096 against an n = 64 reference, checking
//! frame and scheduler invariants at every size.
//!
//! The n = 4096 test is the CI gate; in optimized builds it also bounds
//! how what a frame allocates grows with the world. The full
//! 32,768-rank frame (the paper's largest configuration) runs the same
//! checks but takes minutes in debug builds, so it is `#[ignore]`d; run
//! it with `cargo test --release --test sim_scale -- --ignored
//! --nocapture` — it prints its wall time, messages, allocations and
//! bytes, and holds the wall to a stated budget in a release build.

#[path = "support/alloc.rs"]
mod alloc;
mod support;

use std::path::PathBuf;

use parallel_volume_rendering::core::pipeline::run_frame_mpi_sim;
use parallel_volume_rendering::core::scheduler::planned_messages;
use parallel_volume_rendering::core::{write_dataset, CompositorPolicy, FrameConfig, FrameResult};
use parallel_volume_rendering::mpisim::{RunOptions, SimStats};

/// One frame config per rank count: same grid, image, and transfer
/// function everywhere, so images are comparable across n.
fn cfg_at(n: usize) -> FrameConfig {
    let mut cfg = FrameConfig::small(64, 128, n);
    // The paper's compositor reduction: m = n up to 1K, capped after —
    // at 32K ranks direct-send needs the cap to stay message-feasible.
    cfg.policy = CompositorPolicy::Improved;
    cfg
}

fn dataset() -> PathBuf {
    support::fixture("pvr-sim-scale", "scale.raw", |p| {
        write_dataset(p, &cfg_at(64))
    })
}

/// What one frame asked of the allocator (the event core runs every
/// rank on the calling thread, which is the one counted).
struct Allocated {
    calls: u64,
    bytes: u64,
}

fn counted_frame_at(n: usize) -> (FrameResult, SimStats, Allocated) {
    let cfg = cfg_at(n);
    let path = dataset();
    // Large worlds legitimately exceed the default 120 s watchdog in
    // debug builds; the harness timeout is the backstop here.
    let opts = RunOptions::default().with_timeout(None);
    let (out, calls, bytes) = alloc::counting(|| run_frame_mpi_sim(&cfg, &path, opts));
    let (frame, sim) = out.unwrap_or_else(|e| panic!("n={n} frame failed: {e}"));
    let sim = sim.expect("event backend reports scheduler stats");
    (frame, sim, Allocated { calls, bytes })
}

fn frame_at(n: usize) -> (FrameResult, SimStats) {
    let (frame, sim, _) = counted_frame_at(n);
    (frame, sim)
}

/// Frame- and scheduler-level invariants every world size must satisfy.
fn check_scale_invariants(n: usize, frame: &FrameResult, sim: &SimStats, reference: &FrameResult) {
    let cfg = cfg_at(n);
    // The composited image is the same scene at every decomposition;
    // only f32 blend-order rounding across block boundaries may differ.
    assert_eq!(frame.image.size(), reference.image.size());
    let diff = frame.image.max_abs_diff(&reference.image);
    assert!(
        diff < 1e-3,
        "n={n}: image diverged from the 64-rank reference (max abs diff {diff})"
    );
    // Every rank rendered: sample counts scale with the scene, not n.
    assert!(frame.render_samples > 0, "n={n}: no samples rendered");
    // Direct-send actually exchanged fragments and the improved
    // compositor count was honored (messages >= renderers' fragments).
    assert!(frame.composite.bytes > 0, "n={n}: no fragment traffic");
    let m = cfg.compositors();
    assert!(m <= 2048, "improved policy caps compositors (got {m})");
    // Scheduler invariants: all n tasks lived in one address space,
    // virtual time advanced (timers and sends cost simulated time),
    // and no task was polled without progress pathologically often.
    assert_eq!(sim.peak_resident, n, "n={n}: all ranks resident at once");
    assert!(sim.messages > 0, "n={n}: no messages through the core");
    // A frame without a fault plan has no timed waits, so the virtual
    // clock only moves when timers fire (throttles, straggles, a
    // faulted frame's deadlines).
    if sim.timer_fires > 0 {
        assert!(
            sim.virtual_time > std::time::Duration::ZERO,
            "n={n}: timers fired but the virtual clock never advanced"
        );
    }
    // Every rank future is polled at least once (a poll may retire
    // many sends, so polls are far fewer than messages).
    assert!(
        sim.polls >= n as u64,
        "n={n}: only {} polls for {n} ranks",
        sim.polls
    );
}

#[test]
fn sim_scale_1024_matches_the_reference_frame() {
    let (reference, _) = frame_at(64);
    let (frame, sim) = frame_at(1024);
    check_scale_invariants(1024, &frame, &sim, &reference);
    // A fault-free frame sends what the scatter plan and the schedule
    // name — one scatter body per (window, destination), fragments,
    // tiles: 9 984 + 12 330 + 1 024 = 23 338 here — and nothing else,
    // and arms no timer: its links are pass-through and its receives
    // block.
    let planned = planned_messages(&cfg_at(1024)) as u64;
    assert_eq!((sim.messages, sim.timer_fires), (planned, 0));
}

/// The CI gate: the paper's mid-scale configuration must stay
/// runnable — and correct — on every commit.
#[test]
fn sim_scale_4096_is_the_ci_gate() {
    let (reference, _) = frame_at(64);
    let (frame, sim, at_4096) = counted_frame_at(4096);
    check_scale_invariants(4096, &frame, &sim, &reference);
    // Doubling the ranks over a fixed volume may not more than double
    // what a frame allocates: nothing in it may cost ranks² (an untraced
    // barrier once cloned an n-word clock per rank: 222 → 584 MB, 2.63×).
    // Measured: 81 → 122 MB, 1.50×. Optimized builds only — the CI job's
    // — so the debug tier pays for one large frame, not two.
    if !cfg!(debug_assertions) {
        let (_, _, at_2048) = counted_frame_at(2048);
        assert!(
            at_4096.bytes <= 2 * at_2048.bytes,
            "a 4096-rank frame allocates {} bytes, a 2048-rank one {}",
            at_4096.bytes,
            at_2048.bytes
        );
    }
}

/// Wall budget of the 32K-rank frame in a release build. On record
/// (2-vCPU box, release): 1.3–1.4 s, and 2.1–2.3 s before an executed
/// frame stopped paying per rank² — room for a slower, loaded runner,
/// none for a return of anything quadratic.
const RELEASE_BUDGET_32K: std::time::Duration = std::time::Duration::from_secs(10);

/// The paper's largest world. Ignored by default (minutes in debug,
/// where only the old five-minute bar applies).
#[test]
#[ignore = "32K ranks: run explicitly with --ignored (release recommended)"]
fn sim_scale_32768_renders_the_paper_scale() {
    let (reference, _) = frame_at(64);
    let t0 = std::time::Instant::now();
    let (frame, sim, allocated) = counted_frame_at(32768);
    let wall = t0.elapsed();
    check_scale_invariants(32768, &frame, &sim, &reference);
    let planned = planned_messages(&cfg_at(32768)) as u64;
    assert_eq!((sim.messages, sim.timer_fires), (planned, 0));
    println!(
        "32K-rank frame: {wall:?} wall, {planned} messages, {} allocations, {:.1} MB allocated",
        allocated.calls,
        allocated.bytes as f64 / 1e6
    );
    let budget = if cfg!(debug_assertions) {
        std::time::Duration::from_secs(300)
    } else {
        RELEASE_BUDGET_32K
    };
    assert!(
        wall < budget,
        "32K-rank frame took {wall:?} (budget {budget:?})"
    );
}
