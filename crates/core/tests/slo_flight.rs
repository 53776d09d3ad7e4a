//! End-to-end SLO + flight-recorder acceptance: an injected fault
//! plan must produce a `Violated` verdict attributed to the injection
//! site on the message-passing executor, where faults run, and the
//! anomaly dump of a manual-clock recorder must be byte-identical
//! across runs (pinned by a golden file; regenerate with
//! `PVR_UPDATE_GOLDEN=1`).

use std::path::PathBuf;

use pvr_core::config::CompositorPolicy;
use pvr_core::pipeline::{run_frame_mpi, write_dataset};
use pvr_core::slo::Cause;
use pvr_core::{drive_frame, DriveOutput, Driver, FrameConfig, Verdict};
use pvr_faults::{FaultPlan, RankAction, RankFault, RecoveryPolicy, Stage};
use pvr_mpisim::analysis::profile_from_trace;
use pvr_obs::{perfetto, FlightRecorder};

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-slo-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

fn test_cfg() -> FrameConfig {
    let mut cfg = FrameConfig::small(16, 24, 8);
    cfg.variable = 2;
    cfg.policy = CompositorPolicy::Fixed(4);
    cfg
}

fn straggle_plan() -> FaultPlan {
    FaultPlan {
        seed: 4,
        ranks: vec![RankFault {
            rank: 3,
            stage: Stage::Composite,
            action: RankAction::StraggleMs(1200),
        }],
        ..FaultPlan::default()
    }
}

fn crash_plan() -> FaultPlan {
    FaultPlan {
        seed: 13,
        ranks: vec![RankFault {
            rank: 5,
            stage: Stage::Render,
            action: RankAction::Crash,
        }],
        ..FaultPlan::default()
    }
}

/// One message-passing fault frame under the fast test policy,
/// mirrored onto `flight`.
fn fault_frame(
    cfg: &FrameConfig,
    p: &std::path::Path,
    plan: &FaultPlan,
    flight: &FlightRecorder,
) -> DriveOutput {
    let driver = Driver::mpi(pvr_mpisim::RunOptions::default())
        .faults(plan, &RecoveryPolicy::fast_test())
        .flight(flight);
    drive_frame(cfg, Some(p), driver).unwrap()
}

fn complete(out: &DriveOutput) -> bool {
    let map = out.completeness.as_ref();
    map.expect("fault frames report completeness")
        .fully_complete()
}

/// Compare `actual` against `tests/golden/<name>`; regenerate the file
/// when `PVR_UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("PVR_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); run with PVR_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "flight dump drifted from {}; if intentional, regenerate with PVR_UPDATE_GOLDEN=1",
        path.display()
    );
}

#[test]
fn mpi_straggler_violates_slo_at_the_injection_site() {
    let cfg = test_cfg();
    let p = tmp("mpi-straggle.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(256);
    let ft = fault_frame(&cfg, &p, &straggle_plan(), &flight);
    let slo = ft.frame.timing.slo.expect("ft frames carry a verdict");
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!(
        (slo.stage, slo.rank),
        (Some(2), Some(3)),
        "attribution must name the injected (stage, rank)"
    );
    assert_eq!(slo.cause, Some(Cause::Straggler));
    // The violation dumped the ring.
    let dumps = flight.take_dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].reason, "slo-violation");
    assert!(dumps[0].json.contains("\"name\":\"rank.straggle\""));
    assert!(dumps[0].json.contains("\"name\":\"frame.slo\""));
    std::fs::remove_file(&p).ok();
}

#[test]
fn mpi_crash_is_attributed_even_though_recovery_healed_it() {
    let cfg = test_cfg();
    let p = tmp("mpi-crash.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(256);
    let ft = fault_frame(&cfg, &p, &crash_plan(), &flight);
    assert!(complete(&ft), "crash healed");
    let slo = ft.frame.timing.slo.expect("ft frames carry a verdict");
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!((slo.stage, slo.rank), (Some(1), Some(5)));
    assert_eq!(slo.cause, Some(Cause::Crash));
    let dumps = flight.take_dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].reason, "rank-crash");
    assert!(dumps[0].json.contains("\"name\":\"rank.crash\""));
    std::fs::remove_file(&p).ok();
}

#[test]
fn healthy_frames_are_not_anomalies() {
    let cfg = test_cfg();
    let p = tmp("healthy.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(64);
    let ft = fault_frame(&cfg, &p, &FaultPlan::none(), &flight);
    let slo = ft.frame.timing.slo.unwrap();
    // No incidents on a healthy plan; the cause can only be raw time.
    assert_ne!(slo.cause, Some(Cause::Crash));
    assert_ne!(slo.cause, Some(Cause::Straggler));
    assert!(
        flight.events_recorded() > 0,
        "the recorder is always on: verdicts land in the ring"
    );

    // An empty plan is the fault-free frame: same pixels, every tile
    // whole, nothing recovered.
    assert_eq!(
        ft.frame.image.pixels(),
        run_frame_mpi(&cfg, &p).image.pixels()
    );
    let map = ft.completeness.as_ref().unwrap();
    assert!(map.tiles.iter().all(|t| t.fraction() == 1.0));
    assert_eq!(ft.frame.timing.recovery, Default::default());

    // A faulted frame is traced like any other: the timeline validates,
    // the crashed rank's track carries the crash, and one survivor's
    // track carries the orphan's re-render.
    let traced = Driver::mpi(pvr_mpisim::RunOptions::default().traced());
    let driver = traced.faults(&crash_plan(), &RecoveryPolicy::fast_test());
    let healed = drive_frame(&cfg, Some(&p), driver).unwrap();
    assert!(complete(&healed));
    let profile = profile_from_trace(healed.trace.as_ref().expect("traced run"));
    perfetto::validate(&perfetto::to_json(&profile)).expect("faulted trace validates");
    let tracks_with = |name: &str| -> Vec<u32> {
        (0..cfg.nprocs as u32)
            .filter(|&r| profile.events_for(r).any(|e| e.name == name))
            .collect()
    };
    assert_eq!(tracks_with("rank.crash"), [5], "the crashed rank");
    let adopters = tracks_with("recover.adopted_block");
    assert_eq!(adopters.len(), 1, "one adopter");
    assert_ne!(adopters[0], 5);
    std::fs::remove_file(&p).ok();
}

#[test]
fn manual_clock_flight_dump_is_golden() {
    let cfg = test_cfg();
    let p = tmp("golden.raw");
    write_dataset(&p, &cfg).unwrap();
    let run = || {
        let flight = FlightRecorder::manual(64);
        fault_frame(&cfg, &p, &straggle_plan(), &flight);
        let dumps = flight.take_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "slo-violation");
        dumps[0].json.clone()
    };
    let a = run();
    assert_eq!(a, run(), "manual-clock dumps must be deterministic");
    assert_golden("flight_dump_straggler.json", &a);
    std::fs::remove_file(&p).ok();
}
