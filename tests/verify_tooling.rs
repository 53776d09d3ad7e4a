//! End-to-end checks of the verification layer against the real
//! pipeline: deadlocks become reports (not hangs), frames are
//! bit-identical under perturbed and replayed wildcard-match orders,
//! and recorded frame traces pass the offline race/ordering audits.

mod support;

use std::sync::Arc;

use parallel_volume_rendering::core::{
    drive_frame, write_dataset, Driver, FrameConfig, FrameResult, IoMode,
};
use parallel_volume_rendering::mpisim::trace::{ReplayLog, TraceLog};
use parallel_volume_rendering::mpisim::{MatchPolicy, RunError, RunOptions, World};
use parallel_volume_rendering::verify;

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
    // must record them, and the offline ordering audit must be clean.
    assert!(
        trace.wildcard_count() > 0,
        "frame should exercise wildcard receives"
    );
    assert!(verify::check_non_overtaking(&trace).is_empty());

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
    for (rank, i) in verify::swappable_wildcards(&trace).into_iter().take(3) {
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
fn injected_order_dependence_is_caught_by_the_probe() {
    // Sanity-check the probe against the pipeline's own message shape:
    // a fan-in that *concatenates* (order-dependent) must be flagged,
    // while the same fan-in that *sorts by sender* (what the
    // compositors do with fragments) must pass.
    let fan_in = |sorted: bool| {
        move |mut comm: parallel_volume_rendering::mpisim::Comm| async move {
            if comm.rank() == 0 {
                let mut got: Vec<(usize, Vec<u8>)> = Vec::with_capacity(3);
                for _ in 0..3 {
                    got.push(comm.recv_any(4).await);
                }
                if sorted {
                    got.sort_by_key(|(src, _)| *src);
                }
                got.into_iter().flat_map(|(_, d)| d).collect::<Vec<u8>>()
            } else {
                comm.send(0, 4, vec![comm.rank() as u8; comm.rank()]).await;
                Vec::new()
            }
        }
    };
    let probe = verify::OrderProbe::default();
    let bad = verify::probe_order_independence(4, fan_in(false), &probe).unwrap();
    assert!(
        !bad.order_independent(),
        "unsorted fan-in must be order-dependent"
    );
    let good = verify::probe_order_independence(4, fan_in(true), &probe).unwrap();
    assert!(
        good.order_independent(),
        "sorted fan-in diverged: {:?}",
        good.divergences
    );
}
