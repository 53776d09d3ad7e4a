//! Recovery invariants for the fault-tolerant pipeline.
//!
//! The contract under test (see `DESIGN.md` §"Fault model & recovery"):
//!
//! * **Transient faults heal exactly**: any fault the recovery budget
//!   covers (dropped attempts < retry limit, stragglers < stage
//!   deadline, down servers with live replicas) yields a frame
//!   bit-identical to the fault-free run, completeness exactly 1.0.
//! * **Single permanent crashes heal**: any one non-root rank crash,
//!   at any stage, produces a frame bit-identical to the fault-free run
//!   — survivors adopt the orphan block and compositors re-open tiles
//!   for the late fragments.
//! * **Permanent faults beyond the healing contract degrade, never
//!   hang**: unrecoverable loss terminates within its deadlines with
//!   completeness < 1.0 attributed to tiles, and replays exactly.
//! * **No plan can hang the world**: random seeded `FaultPlan`s on
//!   n ≤ 16 always complete — never a deadlock report, never a
//!   watchdog stall (`FrameError::Runtime`).
//!
//! Faults run on the message-passing executor, the one place ranks
//! exist to lose.

use parallel_volume_rendering::compositing::completeness::CompletenessMap;
use parallel_volume_rendering::core::pipeline::{run_frame_mpi, tags, write_dataset};
use parallel_volume_rendering::core::{
    drive_frame, CompositorPolicy, Driver, FrameConfig, FrameError, FrameResult,
};
use parallel_volume_rendering::faults::{
    FaultPlan, LinkAction, LinkFault, Pat, RankAction, RankFault, RecoveryPolicy, ServerAction,
    ServerFault, Stage,
};
use proptest::prelude::*;

/// A fault frame: `drive_frame` on the message-passing executor +
/// `.faults(..)`, which always reports per-tile completeness.
struct FtFrame {
    frame: FrameResult,
    completeness: CompletenessMap,
}

fn fault_frame(
    cfg: &FrameConfig,
    path: &std::path::Path,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
) -> Result<FtFrame, FrameError> {
    let driver = Driver::mpi(parallel_volume_rendering::mpisim::RunOptions::default());
    let out = drive_frame(cfg, Some(path), driver.faults(plan, policy))?;
    Ok(FtFrame {
        frame: out.frame,
        completeness: out.completeness.expect("fault frames report completeness"),
    })
}

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-faultrec-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

fn test_cfg(nprocs: usize) -> FrameConfig {
    let mut cfg = FrameConfig::small(16, 24, nprocs);
    cfg.variable = 2;
    cfg.policy = CompositorPolicy::Fixed(nprocs.div_ceil(2).min(4));
    cfg
}

/// Transient drops + a straggler recover to the exact fault-free frame.
#[test]
fn transient_faults_heal_bit_identically() {
    let cfg = test_cfg(8);
    let p = tmp("transient.raw");
    write_dataset(&p, &cfg).unwrap();
    let plain = run_frame_mpi(&cfg, &p);
    let plan = FaultPlan {
        seed: 17,
        links: vec![
            LinkFault {
                src: Pat::Is(1),
                dst: Pat::Any,
                tag: Some(tags::FRAGMENT),
                action: LinkAction::DropFirst(2),
            },
            LinkFault {
                src: Pat::Any,
                dst: Pat::Is(2),
                tag: Some(tags::TILE),
                action: LinkAction::CorruptFirst(1),
            },
        ],
        ranks: vec![RankFault {
            rank: 4,
            stage: Stage::Io,
            action: RankAction::StraggleMs(25),
        }],
        ..FaultPlan::default()
    };
    let ft = fault_frame(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
    assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
    assert!(ft.completeness.fully_complete());
    assert!(ft.frame.timing.recovery.retries > 0);
    assert_eq!(ft.frame.timing.recovery.timeouts, 0);
    std::fs::remove_file(&p).ok();
}

/// A permanently-down server without replica failover loses data:
/// the run still terminates, reports completeness < 1.0, and the
/// degradation replays exactly.
#[test]
fn permanent_server_loss_degrades_and_is_typed() {
    let cfg = test_cfg(8);
    let p = tmp("permanent.raw");
    write_dataset(&p, &cfg).unwrap();
    let plan = FaultPlan {
        seed: 23,
        servers: vec![ServerFault {
            server: 0,
            action: ServerAction::Down,
        }],
        ..FaultPlan::default()
    };
    let mut policy = RecoveryPolicy::fast_test();
    policy.io_failover = false;

    let ft = fault_frame(&cfg, &p, &plan, &policy).unwrap();
    assert!(!ft.completeness.fully_complete());
    assert!(ft.completeness.frame_fraction() < 1.0);
    assert!(ft.frame.io.unrecovered_bytes > 0);

    let again = fault_frame(&cfg, &p, &plan, &policy).unwrap();
    assert_eq!(
        again.completeness.frame_fraction(),
        ft.completeness.frame_fraction(),
        "degradation must replay exactly from (seed, plan)"
    );
    // With failover restored the same plan is fully recoverable.
    let healed = fault_frame(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
    assert!(healed.completeness.fully_complete());
    assert!(healed.frame.io.failover_bytes > 0);
    std::fs::remove_file(&p).ok();
}

/// Fault plans survive their own JSON round trip, so a sweep written
/// to disk replays the exact same faults.
#[test]
fn fault_plans_round_trip_through_json() {
    for seed in [0u64, 7, 99, 12345] {
        let plan = FaultPlan::sample(seed, 12, 8);
        let json = plan.to_json();
        assert_eq!(FaultPlan::from_json(&json).as_ref(), Ok(&plan), "{json}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any single non-root crash, at any stage, heals bit-identically:
    /// the orphan block is adopted, late fragments are re-blended, and
    /// no pixel differs from the fault-free run.
    #[test]
    fn any_single_crash_heals_bit_identically(
        seed in 0u64..1_000_000,
        nprocs in 2usize..=16,
        rank_pick in 0usize..64,
        stage_pick in 0usize..3,
    ) {
        let rank = 1 + rank_pick % (nprocs - 1);
        let stage = [Stage::Io, Stage::Render, Stage::Composite][stage_pick];
        let cfg = test_cfg(nprocs);
        let p = tmp(&format!("crash-{seed}-{nprocs}-{rank}-{stage_pick}.raw"));
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed,
            ranks: vec![RankFault { rank, stage, action: RankAction::Crash }],
            ..FaultPlan::default()
        };
        let ft = fault_frame(&cfg, &p, &plan, &RecoveryPolicy::fast_test()).unwrap();
        std::fs::remove_file(&p).ok();
        prop_assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "rank {} crash at stage {} must heal without a pixel trace",
            rank, stage_pick
        );
        prop_assert!(ft.completeness.fully_complete(), "completeness");
        prop_assert!(ft.frame.timing.recovery.adopted_blocks >= 1, "adoption");
        prop_assert_eq!(ft.frame.timing.error_bound, 0.0, "full heal has no error");
    }

    /// Two simultaneous non-root crashes heal or degrade — never a
    /// deadlock, never a watchdog stall — and whenever the frame comes
    /// out fully complete it is bit-identical to the fault-free run.
    #[test]
    fn double_crashes_heal_or_degrade_never_deadlock(
        seed in 0u64..1_000_000,
        nprocs in 3usize..=16,
        picks in (0usize..64, 0usize..64, 0usize..3, 0usize..3),
    ) {
        let (a_pick, b_pick, sa, sb) = picks;
        let a = 1 + a_pick % (nprocs - 1);
        let b = 1 + b_pick % (nprocs - 1);
        prop_assume!(a != b);
        let stages = [Stage::Io, Stage::Render, Stage::Composite];
        let cfg = test_cfg(nprocs);
        let p = tmp(&format!("double-{seed}-{nprocs}-{a}-{b}.raw"));
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed,
            ranks: vec![
                RankFault { rank: a, stage: stages[sa], action: RankAction::Crash },
                RankFault { rank: b, stage: stages[sb], action: RankAction::Crash },
            ],
            ..FaultPlan::default()
        };
        let res = fault_frame(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        std::fs::remove_file(&p).ok();
        match res {
            Ok(ft) => {
                let f = ft.completeness.frame_fraction();
                prop_assert!((0.0..=1.0).contains(&f), "completeness {} out of range", f);
                prop_assert_eq!(ft.frame.timing.recovery.crashed_ranks, 2);
                if ft.completeness.fully_complete() {
                    prop_assert_eq!(
                        plain.image.pixels(),
                        ft.frame.image.pixels(),
                        "a fully-complete double-crash frame must be the true frame"
                    );
                }
            }
            Err(e) => prop_assert!(false, "double crash ({a}, {b}) must not hang: {e}"),
        }
    }

    /// No random seeded plan may hang the world: every run returns a
    /// frame (possibly degraded) — never a deadlock report or watchdog
    /// stall — and completeness is always a valid
    /// fraction consistent with whether ranks crashed.
    #[test]
    fn random_plans_never_deadlock(seed in 0u64..1_000_000, nprocs in 2usize..=16) {
        let cfg = test_cfg(nprocs);
        let p = tmp(&format!("prop-{seed}-{nprocs}.raw"));
        write_dataset(&p, &cfg).unwrap();
        let plan = FaultPlan::sample(seed, nprocs, 8);
        let res = fault_frame(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        std::fs::remove_file(&p).ok();
        match res {
            Ok(ft) => {
                let f = ft.completeness.frame_fraction();
                prop_assert!((0.0..=1.0).contains(&f), "completeness {f} out of range");
                let permanent_link_loss = plan
                    .links
                    .iter()
                    .any(|l| matches!(l.action, LinkAction::DropAll));
                // Sampled plans never crash rank 0, and a single
                // non-root crash is within the healing contract — so
                // up to one crash still demands a fully-complete frame.
                if ft.frame.timing.recovery.crashed_ranks <= 1
                    && !permanent_link_loss
                    && plan.server_faults(8).down.iter().all(|d| !d)
                {
                    prop_assert!(
                        ft.completeness.fully_complete(),
                        "≤1 crash and no down server must heal, yet completeness {f} (plan {})",
                        plan.to_json()
                    );
                }
            }
            Err(e) => prop_assert!(false, "plan {} deadlocked/stalled: {e}", plan.to_json()),
        }
    }
}
