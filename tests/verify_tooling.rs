//! End-to-end checks of the verification layer against the real
//! pipeline: deadlocks become reports (not hangs), and frames are
//! bit-identical under perturbed, replayed and guided wildcard-match
//! orders.

mod support;

use std::sync::Arc;

use parallel_volume_rendering::core::{
    drive_frame, write_dataset, Driver, FrameConfig, FrameResult, IoMode,
};
use parallel_volume_rendering::mpisim::trace::{swappable_wildcards, ReplayLog, TraceLog};
use parallel_volume_rendering::mpisim::{MatchPolicy, RunError, RunOptions, World};

fn frame_cfg() -> FrameConfig {
    let mut cfg = FrameConfig::small(16, 24, 8);
    cfg.variable = 2;
    cfg.io = IoMode::NetCdfUntuned;
    cfg
}

fn frame_dataset(cfg: &FrameConfig) -> std::path::PathBuf {
    support::fixture("pvr-verify", "verify.nc", |p| write_dataset(p, cfg))
}

/// One message-passing frame under explicit runtime options — traced,
/// with a perturbed wildcard-match order, or replaying a recorded one.
/// Returns the frame and, when `opts.trace` is set, the message trace.
fn mpi_frame(
    cfg: &FrameConfig,
    path: &std::path::Path,
    opts: RunOptions,
) -> (FrameResult, Option<TraceLog>) {
    let out = drive_frame(cfg, Some(path), Driver::mpi(opts)).unwrap();
    (out.frame, out.trace)
}

#[test]
fn recv_cycle_is_reported_with_the_cycle_named() {
    // 0 waits on 1, 1 waits on 2, 2 waits on 0: a classic recv cycle.
    let err = World::run_opts(3, RunOptions::default(), |mut comm| async move {
        let next = (comm.rank() + 1) % 3;
        let _ = comm.recv_from(next, 1).await;
    })
    .unwrap_err();
    assert!(err.is_deadlock(), "expected deadlock, got: {err}");
    let report = err.report();
    for rank in 0..3 {
        assert!(
            report.contains(&format!("rank {rank}")),
            "cycle report missing rank {rank}: {report}"
        );
    }
}

#[test]
fn stall_without_detection_is_reported_not_hung() {
    let opts = RunOptions::default()
        .no_deadlock_detection()
        .with_timeout(Some(std::time::Duration::from_millis(200)));
    let err = World::run_opts(2, opts, |mut comm| async move {
        if comm.rank() == 0 {
            let _ = comm.recv_from(1, 9).await; // never sent
        }
    })
    .unwrap_err();
    assert!(
        matches!(err, RunError::Stalled { .. }),
        "expected stall, got: {err}"
    );
    assert!(err.report().contains("rank 0"), "{}", err.report());
}

#[test]
fn frame_is_bit_identical_under_perturbed_match_orders() {
    let cfg = frame_cfg();
    let path = frame_dataset(&cfg);
    let (base, _) = mpi_frame(&cfg, &path, RunOptions::default());
    for policy in [
        MatchPolicy::Arrival,
        MatchPolicy::Perturb(1),
        MatchPolicy::Perturb(42),
        MatchPolicy::Perturb(0xDEAD_BEEF),
    ] {
        let (frame, _) = mpi_frame(&cfg, &path, RunOptions::default().policy(policy.clone()));
        assert_eq!(
            frame.image, base.image,
            "composited image must be bit-identical under {policy:?}"
        );
    }
}

#[test]
fn recorded_frame_replays_bit_identically_with_injected_swaps() {
    let cfg = frame_cfg();
    let path = frame_dataset(&cfg);
    let (base, trace) = mpi_frame(&cfg, &path, RunOptions::default().traced());
    let trace = trace.expect("traced run yields a trace");

    // The frame's fragment fan-in uses wildcard receives; the trace
    // must record them.
    assert!(
        trace.wildcard_count() > 0,
        "frame should exercise wildcard receives"
    );

    // Replay the recorded order exactly, then with injected
    // out-of-order wildcard matches: the image must never change
    // (compositors sort fragments before blending).
    let log = ReplayLog::from_trace(&trace);
    let (replayed, _) = mpi_frame(
        &cfg,
        &path,
        RunOptions::default().policy(MatchPolicy::Replay(Arc::new(log.clone()))),
    );
    assert_eq!(
        replayed.image, base.image,
        "exact replay must reproduce the frame"
    );

    let mut swaps = 0;
    for (rank, i) in swappable_wildcards(&trace).into_iter().take(3) {
        let swapped = log.swapped(rank, i).expect("racing pair must be swappable");
        let (frame, _) = mpi_frame(
            &cfg,
            &path,
            RunOptions::default().policy(MatchPolicy::Replay(Arc::new(swapped))),
        );
        assert_eq!(
            frame.image, base.image,
            "swap at rank {rank} wildcard #{i} changed the image"
        );
        swaps += 1;
    }
    assert!(
        swaps > 0,
        "expected at least one racing (swappable) wildcard pair"
    );
}

#[test]
fn guided_and_replay_agree_on_a_complete_log_of_the_frame() {
    // A log covering every wildcard of the run leaves `Guided` nothing
    // to decide past its prefix, so it must force exactly what `Replay`
    // forces: the same image and the same per-rank event streams,
    // clocks included. The explorer's counterexamples and the profiled
    // frame's canonical replay both rest on this.
    let cfg = frame_cfg();
    assert_eq!(cfg.nprocs, 8);
    let path = frame_dataset(&cfg);
    let (_, trace) = mpi_frame(&cfg, &path, RunOptions::default().traced());
    let log = Arc::new(ReplayLog::canonical(
        &trace.expect("traced run yields a trace"),
    ));
    assert!(log.total_len() > 0, "the frame has wildcard receives");

    let run = |policy| {
        let (frame, trace) = mpi_frame(&cfg, &path, RunOptions::default().policy(policy).traced());
        (frame.image, trace.expect("traced run yields a trace"))
    };
    let (replay_image, replay_trace) = run(MatchPolicy::Replay(Arc::clone(&log)));
    let (guided_image, guided_trace) = run(MatchPolicy::Guided(log));
    assert_eq!(guided_image, replay_image, "images differ");
    for rank in 0..cfg.nprocs {
        assert!(
            guided_trace
                .events_for(rank)
                .eq(replay_trace.events_for(rank)),
            "rank {rank}: event streams differ"
        );
    }
}
