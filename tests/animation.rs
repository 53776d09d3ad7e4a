//! Time-step pipelining invariants (see `DESIGN.md` §11).
//!
//! The contract under test:
//!
//! * **Pipelining changes wall clock, never pixels**: on both
//!   executors, a pipelined `run_animation` produces frames
//!   bit-identical to running each file through the single-frame entry
//!   points independently — prefetched bytes are the same bytes, tag
//!   epochs keep adjacent frames' traffic disjoint.
//! * **Faults stay inside their frame**: a rank crash while the next
//!   frame is already prefetched degrades only the crashing frame; the
//!   neighbours stay complete and bit-identical to their fault-free
//!   runs.
//! * **The multi-frame tag table passes the tag-discipline lint** for
//!   any animation length.

use parallel_volume_rendering::core::pipeline::{run_frame, run_frame_mpi, tags};
use parallel_volume_rendering::core::scheduler::{FrameTags, EPOCH_STRIDE};
use parallel_volume_rendering::core::{
    drive_frame, run_animation, write_animation, AnimFaults, AnimOptions, CompositorPolicy, Driver,
    FrameConfig,
};
use parallel_volume_rendering::faults::{FaultPlan, RankAction, RankFault, RecoveryPolicy, Stage};
use parallel_volume_rendering::render::image::Image;
use proptest::prelude::*;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-anim-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn test_cfg(nprocs: usize, seed: u64) -> FrameConfig {
    let mut cfg = FrameConfig::small(16, 24, nprocs);
    cfg.seed = seed;
    cfg.variable = 2;
    cfg.policy = CompositorPolicy::Fixed(nprocs.div_ceil(2).min(4));
    cfg
}

/// The per-step config `write_animation` derived frame `t`'s file from.
fn step_cfg(cfg: &FrameConfig, t: usize) -> FrameConfig {
    let mut step = *cfg;
    step.seed = cfg.seed.wrapping_add(t as u64);
    step
}

fn assert_same_image(a: &Image, b: &Image, what: &str) {
    assert_eq!(a.pixels(), b.pixels(), "{what}: images differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Rayon executor: pipelined animation frames are bit-identical to
    /// independent single-frame runs of the same files.
    #[test]
    fn rayon_animation_matches_independent_frames(seed in 0u64..10_000, nprocs in 4usize..=8) {
        let cfg = test_cfg(nprocs, seed);
        let dir = tmp_dir(&format!("rayon-{seed}-{nprocs}"));
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        let anim = run_animation(&cfg, &paths, &AnimOptions::rayon()).unwrap();
        for (t, (frame, path)) in anim.frames.iter().zip(&paths).enumerate() {
            let solo = run_frame(&step_cfg(&cfg, t), Some(path));
            assert_same_image(&frame.result.image, &solo.image, &format!("rayon frame {t}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Message-passing executor: the pipelined multi-frame world (one
    /// world, tag epochs, window prefetch) is bit-identical to
    /// independent single-frame worlds, and to its own sequential mode.
    #[test]
    fn mpi_animation_matches_independent_frames(seed in 0u64..10_000, nprocs in 4usize..=8) {
        let cfg = test_cfg(nprocs, seed);
        let dir = tmp_dir(&format!("mpi-{seed}-{nprocs}"));
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        let pipe = run_animation(&cfg, &paths, &AnimOptions::mpi()).unwrap();
        let seq = run_animation(&cfg, &paths, &AnimOptions::mpi().sequential()).unwrap();
        for (t, (frame, path)) in pipe.frames.iter().zip(&paths).enumerate() {
            let solo = run_frame_mpi(&step_cfg(&cfg, t), path);
            assert_same_image(&frame.result.image, &solo.image, &format!("mpi frame {t}"));
            assert_same_image(
                &frame.result.image,
                &seq.frames[t].result.image,
                &format!("mpi seq-vs-pipe frame {t}"),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A rank crash in the middle frame — announced *after* that rank has
/// already prefetched the following frame's windows — is contained to
/// the crashing frame, which *heals* via orphan-block adoption
/// (DESIGN.md §14). Every frame, crashed or not, stays fully complete
/// and bit-identical to its fault-free run.
#[test]
fn crash_during_prefetched_frame_heals_and_stays_contained() {
    let cfg = test_cfg(8, 4011);
    let dir = tmp_dir("crash");
    let paths = write_animation(&dir, &cfg, 4).unwrap();
    // Frame 1 crashes rank 2 at the render stage: by then the Read
    // stage has completed and frame 2's prefetch is in flight.
    let crash = FaultPlan {
        seed: 1,
        ranks: vec![RankFault {
            rank: 2,
            stage: Stage::Render,
            action: RankAction::Crash,
        }],
        ..FaultPlan::default()
    };
    let faults = AnimFaults {
        plans: vec![
            FaultPlan::none(),
            crash,
            FaultPlan::none(),
            FaultPlan::none(),
        ],
        policy: RecoveryPolicy::fast_test(),
    };
    let anim = run_animation(&cfg, &paths, &AnimOptions::mpi().with_faults(faults)).unwrap();
    assert_eq!(anim.frames.len(), 4);

    let maps: Vec<_> = anim
        .frames
        .iter()
        .map(|f| {
            f.completeness
                .as_ref()
                .expect("ft animation frames carry completeness")
        })
        .collect();
    let rec = anim.frames[1].result.timing.recovery;
    assert_eq!(rec.crashed_ranks, 1);
    assert!(
        rec.adopted_blocks >= 1,
        "the crashed frame heals via adoption"
    );
    for t in 0..4 {
        assert!(
            maps[t].fully_complete(),
            "frame {t} must be complete (healed if crashed), got {}",
            maps[t].frame_fraction()
        );
        let solo = run_frame_mpi(&step_cfg(&cfg, t), &paths[t]);
        assert_same_image(
            &anim.frames[t].result.image,
            &solo.image,
            &format!("frame {t} around/at the crash"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault plans run where ranks exist. A rayon animation asked to run one
/// returns the typed error a rayon `drive_frame` returns for the same
/// request, before any frame runs.
#[test]
fn rayon_animation_refuses_fault_plans_like_drive_frame() {
    let cfg = test_cfg(4, 9);
    let dir = tmp_dir("rayon-faults");
    let paths = write_animation(&dir, &cfg, 2).unwrap();
    let faults = AnimFaults {
        plans: vec![FaultPlan::none(); 2],
        policy: RecoveryPolicy::fast_test(),
    };
    let anim = run_animation(
        &cfg,
        &paths,
        &AnimOptions::rayon().with_faults(faults.clone()),
    );
    let frame = drive_frame(
        &cfg,
        Some(&paths[0]),
        Driver::rayon().faults(&faults.plans[0], &faults.policy),
    );
    let (Err(anim), Err(frame)) = (anim, frame) else {
        panic!("a rayon fault plan must be refused");
    };
    assert_eq!(anim.to_string(), frame.to_string());
    assert!(anim.to_string().contains("message-passing"), "{anim}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A throttled store slows a message-passing animation in wall-clock
/// time — the clock `AnimResult::wall` reports and a prefetch thread
/// pays the same floor in — not in the simulator's virtual time, where
/// a sequential animation would look free next to a pipelined one.
#[test]
fn throttled_mpi_sequential_animation_is_slower_in_wall_time() {
    let cfg = test_cfg(4, 77);
    let dir = tmp_dir("throttle");
    let frames = 2;
    let paths = write_animation(&dir, &cfg, frames).unwrap();
    let opts = AnimOptions::mpi().sequential();
    let free = run_animation(&cfg, &paths, &opts).unwrap();
    // Four ranks share one aggregator, which reads at least the 16³
    // f32 variable every frame.
    let bytes_per_sec = 100_000.0;
    let floor = frames as f64 * (16 * 16 * 16 * 4) as f64 / bytes_per_sec;
    let slow = run_animation(&cfg, &paths, &opts.throttled(bytes_per_sec)).unwrap();
    assert!(
        slow.wall >= floor && slow.wall > free.wall,
        "throttled {:.3}s, floor {floor:.3}s, unthrottled {:.3}s",
        slow.wall,
        free.wall
    );
    for (t, (a, b)) in slow.frames.iter().zip(&free.frames).enumerate() {
        assert_same_image(&a.result.image, &b.result.image, &format!("frame {t}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The epoch tag table of any animation passes the same tag-discipline
/// lint as the single-frame table, and frame 0 is exactly the legacy
/// tag set.
#[test]
fn animation_tag_epochs_pass_the_lint() {
    for frames in [1usize, 2, 6, 32] {
        let table = FrameTags::table(frames);
        assert_eq!(table.len(), frames * tags::ALL.len());
        let report = parallel_volume_rendering::verify::lint_tags(&table);
        assert!(report.ok(), "{frames} frames: {:?}", report.violations);
    }
    // Frame 0 == legacy constants; epochs never collide.
    let f0 = FrameTags::for_frame(0);
    assert_eq!(f0.fragment, tags::FRAGMENT);
    assert_eq!(f0.tile, tags::TILE);
    let f1 = FrameTags::for_frame(1);
    assert_eq!(f1.fragment, tags::FRAGMENT + EPOCH_STRIDE);
    assert_eq!(FrameTags::base_of(f1.tile), tags::TILE);
    assert_eq!(FrameTags::frame_of(f1.tile), 1);
}
