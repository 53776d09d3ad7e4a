//! End-to-end SLO + flight-recorder acceptance: an injected fault
//! plan must produce a `Violated` verdict attributed to the injection
//! site on BOTH executors, and the anomaly dump of a manual-clock
//! recorder must be byte-identical across runs (pinned by a golden
//! file; regenerate with `PVR_UPDATE_GOLDEN=1`).

use std::path::PathBuf;

use pvr_core::config::CompositorPolicy;
use pvr_core::pipeline::{run_frame, write_dataset};
use pvr_core::slo::Cause;
use pvr_core::{drive_frame, DriveOutput, Driver, FrameConfig, Verdict};
use pvr_faults::{FaultPlan, RankAction, RankFault, RecoveryPolicy, Stage};
use pvr_obs::span::EventKind;
use pvr_obs::{perfetto, FlightRecorder, Tracer};

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

/// One fault frame on `driver`'s executor under the fast test policy,
/// mirrored onto `flight`.
fn fault_frame(
    cfg: &FrameConfig,
    p: &std::path::Path,
    driver: Driver,
    plan: &FaultPlan,
    flight: &FlightRecorder,
) -> DriveOutput {
    let driver = driver
        .faults(plan, &RecoveryPolicy::fast_test())
        .flight(flight);
    drive_frame(cfg, Some(p), driver).unwrap()
}

fn mpi() -> Driver {
    Driver::mpi(pvr_mpisim::RunOptions::default())
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
    let ft = fault_frame(&cfg, &p, mpi(), &straggle_plan(), &flight);
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
    let ft = fault_frame(&cfg, &p, mpi(), &crash_plan(), &flight);
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
fn rayon_ft_matches_the_mpi_attribution_for_the_same_plans() {
    let cfg = test_cfg();
    let p = tmp("rayon-attr.raw");
    write_dataset(&p, &cfg).unwrap();

    // Straggler: hedged, so the wall clock never sees the 1.2 s — the
    // located incident must still violate and attribute.
    let off = FlightRecorder::disabled();
    let ft = fault_frame(&cfg, &p, Driver::rayon(), &straggle_plan(), &off);
    let slo = ft.frame.timing.slo.unwrap();
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!((slo.stage, slo.rank), (Some(2), Some(3)));
    assert_eq!(slo.cause, Some(Cause::Straggler));

    // Crash: healed bit-identically, still attributed to rank 5.
    let flight = FlightRecorder::wall(64);
    let ft = fault_frame(&cfg, &p, Driver::rayon(), &crash_plan(), &flight);
    assert!(complete(&ft), "crash healed");
    let slo = ft.frame.timing.slo.unwrap();
    assert_eq!(slo.verdict, Verdict::Violated);
    assert_eq!((slo.stage, slo.rank), (Some(1), Some(5)));
    assert_eq!(slo.cause, Some(Cause::Crash));
    assert_eq!(flight.take_dumps()[0].reason, "rank-crash");
    std::fs::remove_file(&p).ok();
}

#[test]
fn healthy_frames_are_not_anomalies() {
    let cfg = test_cfg();
    let p = tmp("healthy.raw");
    write_dataset(&p, &cfg).unwrap();
    let flight = FlightRecorder::wall(64);
    let ft = fault_frame(&cfg, &p, Driver::rayon(), &FaultPlan::none(), &flight);
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
        run_frame(&cfg, Some(&p)).image.pixels()
    );
    let map = ft.completeness.as_ref().unwrap();
    assert!(map.tiles.iter().all(|t| t.fraction() == 1.0));
    assert_eq!(ft.frame.timing.recovery, Default::default());

    // A faulted frame is traced like any other: the timeline validates
    // and the adopter's track carries the orphan's re-render next to its
    // own block.
    let tracer = Tracer::wall();
    let driver = Driver::rayon()
        .faults(&crash_plan(), &RecoveryPolicy::fast_test())
        .traced(&tracer);
    let healed = drive_frame(&cfg, Some(&p), driver).unwrap();
    assert!(complete(&healed));
    let profile = tracer.finish();
    perfetto::validate(&perfetto::to_json(&profile)).expect("faulted trace validates");
    let blocks = |track| {
        let on_track = profile.events_for(track);
        on_track
            .filter(|e| e.name == "render.block" && e.kind == EventKind::Begin)
            .count()
    };
    assert_eq!(blocks(5), 0, "the crashed rank renders nothing");
    let per_track: Vec<usize> = (0..cfg.nprocs as u32).map(blocks).collect();
    assert_eq!(per_track.iter().sum::<usize>(), cfg.nprocs);
    assert_eq!(
        per_track.iter().filter(|&&n| n == 2).count(),
        1,
        "one adopter"
    );
    std::fs::remove_file(&p).ok();
}

#[test]
fn manual_clock_flight_dump_is_golden() {
    let cfg = test_cfg();
    let p = tmp("golden.raw");
    write_dataset(&p, &cfg).unwrap();
    let run = || {
        let flight = FlightRecorder::manual(64);
        fault_frame(&cfg, &p, Driver::rayon(), &straggle_plan(), &flight);
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
