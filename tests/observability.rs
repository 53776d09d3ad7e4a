//! Cross-crate observability contract: tracing the pipeline is
//! optional, cheap, and — on the message-passing executor — exactly
//! reproducible.
//!
//! * The disabled tracer records nothing while the traced entry points
//!   produce the same frame as the plain ones.
//! * A wall-clock tracer through the rayon executor yields a
//!   schema-valid Perfetto timeline carrying every stage.
//! * `run_frame_mpi_profiled` (trace → canonical replay → profile) is
//!   **byte-for-byte deterministic**, which the golden files under
//!   `tests/golden/` pin across commits. Regenerate them with
//!   `PVR_UPDATE_GOLDEN=1 cargo test --test observability` after an
//!   intentional schedule or exporter change.

use std::path::{Path, PathBuf};

use parallel_volume_rendering::core::pipeline::run_frame_traced;
use parallel_volume_rendering::core::{
    run_frame, run_frame_mpi_profiled, write_dataset, CompositorPolicy, FrameConfig,
};
use parallel_volume_rendering::obs::analysis::imbalance_csv;
use parallel_volume_rendering::obs::perfetto::SchemaError;
use parallel_volume_rendering::obs::{
    critical_path, imbalance, json, perfetto, Tracer, Trajectory,
};

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

/// The fixed-seed 8-rank frame every golden file is derived from.
fn golden_cfg() -> FrameConfig {
    let mut cfg = FrameConfig::small(16, 24, 8);
    cfg.variable = 2;
    cfg.policy = CompositorPolicy::Fixed(4);
    cfg
}

/// Compare `actual` against the checked-in golden file, or rewrite it
/// when `PVR_UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("PVR_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with PVR_UPDATE_GOLDEN=1",
            name
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden copy; if the change is intentional, \
         regenerate with PVR_UPDATE_GOLDEN=1"
    );
}

#[test]
fn disabled_tracer_records_nothing_and_preserves_the_frame() {
    let mut cfg = FrameConfig::small(20, 24, 4);
    cfg.variable = 2;
    let tracer = Tracer::disabled();
    let traced = run_frame_traced(&cfg, None, &tracer);
    let plain = run_frame(&cfg, None);
    assert_eq!(tracer.events_recorded(), 0, "disabled tracer is a no-op");
    assert_eq!(traced.image.pixels(), plain.image.pixels());
}

#[test]
fn wall_tracer_exports_a_valid_timeline_of_the_rayon_pipeline() {
    let mut cfg = FrameConfig::small(20, 24, 4);
    cfg.variable = 2;
    let p = tmp("wall.raw");
    write_dataset(&p, &cfg).unwrap();
    let tracer = Tracer::wall();
    let _ = run_frame_traced(&cfg, Some(&p), &tracer);
    std::fs::remove_file(&p).ok();

    let profile = tracer.finish();
    let json = perfetto::to_json(&profile);
    let events = perfetto::validate(&json).expect("well-nested timeline");
    assert!(events > 0);
    // Umbrella stages on track 0, leaf spans per worker track.
    for stage in ["frame", "io", "render", "composite"] {
        assert!(
            !profile.span_durations(stage).is_empty(),
            "stage {stage} missing from the wall profile"
        );
    }
    assert_eq!(
        profile.span_durations("render.block").len(),
        cfg.nprocs,
        "one render.block span per rank"
    );
    assert!(!profile.span_durations("io.window").is_empty());
    assert!(!profile.span_durations("composite.tile").is_empty());
}

#[test]
fn profiled_mpi_frame_is_byte_for_byte_deterministic() {
    let cfg = golden_cfg();
    let p = tmp("det.raw");
    write_dataset(&p, &cfg).unwrap();
    let a = run_frame_mpi_profiled(&cfg, &p).unwrap();
    let b = run_frame_mpi_profiled(&cfg, &p).unwrap();
    std::fs::remove_file(&p).ok();

    assert_eq!(a.frame.image.pixels(), b.frame.image.pixels());
    assert_eq!(
        perfetto::to_json(&a.profile),
        perfetto::to_json(&b.profile),
        "canonical replay must neutralize thread scheduling"
    );
    assert_eq!(
        critical_path(&a.trace).to_csv(),
        critical_path(&b.trace).to_csv()
    );
}

#[test]
fn profiled_mpi_frame_matches_the_golden_files() {
    let cfg = golden_cfg();
    let p = tmp("golden.raw");
    write_dataset(&p, &cfg).unwrap();
    let run = run_frame_mpi_profiled(&cfg, &p).unwrap();
    std::fs::remove_file(&p).ok();

    let json = perfetto::to_json(&run.profile);
    perfetto::validate(&json).expect("schema-valid golden trace");
    assert_golden("profile_8rank.trace.json", &json);

    let cp = critical_path(&run.trace);
    assert_eq!(cp.per_rank.iter().sum::<u64>(), cp.makespan);
    assert_golden("profile_8rank.critical_path.csv", &cp.to_csv());

    let im = imbalance(&run.profile, &["io", "render", "composite"]);
    assert_golden("profile_8rank.imbalance.csv", &imbalance_csv(&im));
}

/// Every committed JSON artifact parses with the workspace's one JSON
/// reader, and the schema validator returns for each trace-shaped one
/// what it has always returned: the golden profile's 92 events, and a
/// refusal of the flight dumps' counter (`C`) events, which the
/// validator's phase rules do not cover.
#[test]
fn committed_json_artifacts_parse_and_traces_validate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &Path| {
        let text = std::fs::read_to_string(root.join(rel)).expect("committed artifact");
        json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", rel.display()));
        text
    };
    let golden_dump = "crates/core/tests/golden/flight_dump_straggler.json";
    let mut dumps = vec![PathBuf::from(golden_dump)];
    let mut benches = 0;
    for entry in std::fs::read_dir(root.join("results")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let rel = Path::new("results").join(&name);
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            Trajectory::from_json(&read(&rel)).unwrap_or_else(|e| panic!("{name}: {e}"));
            benches += 1;
        } else if name.starts_with("flight_dump_") && name.ends_with(".json") {
            dumps.push(rel);
        }
    }
    assert!(benches >= 5, "only {benches} BENCH_*.json found");
    assert!(dumps.len() >= 4, "only {} flight dumps found", dumps.len());
    let refused = Err(SchemaError("unknown phase type 'C'".into()));
    for rel in &dumps {
        let validated = perfetto::validate(&read(rel));
        assert_eq!(validated, refused, "{}", rel.display());
    }
    let profile = read(Path::new("tests/golden/profile_8rank.trace.json"));
    assert_eq!(perfetto::validate(&profile), Ok(84));
}
