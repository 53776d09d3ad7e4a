//! The message-passing pipeline: real ranks, real messages.
//!
//! ```text
//! cargo run --release --example mpi_pipeline [grid] [ranks] [--profile out.trace.json]
//! ```
//!
//! Runs the frame twice — once on the data-parallel executor, once on
//! the mpisim message-passing executor where aggregators scatter I/O
//! windows and renderers ship pixel fragments to compositors over
//! channels — and verifies the two images agree to the last bit of
//! floating point.
//!
//! With `--profile <file>`, the message-passing frame runs under the
//! deterministic two-pass profiler instead and exports a Perfetto
//! timeline (open it at <https://ui.perfetto.dev>), plus a critical-path
//! and per-stage imbalance report on stdout.

use parallel_volume_rendering::core::pipeline::{run_frame_mpi, run_frame_mpi_profiled};
use parallel_volume_rendering::core::{
    run_frame, write_dataset, CompositorPolicy, FrameConfig, IoMode,
};
use parallel_volume_rendering::obs::{critical_path, imbalance, perfetto};

fn arg(i: usize, default: usize) -> usize {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// `--profile <file>` anywhere on the command line.
fn profile_arg() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--profile")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

fn main() {
    let grid = arg(1, 48);
    let ranks = arg(2, 16);

    let mut cfg = FrameConfig::small(grid, 160, ranks);
    cfg.variable = 2;
    cfg.io = IoMode::NetCdfTuned;
    cfg.policy = CompositorPolicy::Fixed((ranks / 2).max(1));

    let dir = std::env::temp_dir().join("pvr-mpi-example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("step.nc");
    write_dataset(&path, &cfg).expect("write dataset");

    println!("running data-parallel executor ({ranks} logical ranks)...");
    let a = run_frame(&cfg, Some(&path));
    println!("  {}", a.timing);

    println!("running message-passing executor ({ranks} ranks on one event loop)...");
    let b = if let Some(out) = profile_arg() {
        let run = run_frame_mpi_profiled(&cfg, &path).expect("profiled frame");
        let json = perfetto::to_json(&run.profile);
        perfetto::validate(&json).expect("schema-valid trace");
        std::fs::write(&out, &json).expect("write trace");
        println!("  wrote {} ({} bytes)", out.display(), json.len());

        let cp = critical_path(&run.trace);
        println!(
            "  critical path: makespan {} logical ticks over {} segments",
            cp.makespan,
            cp.segments.len()
        );
        if let Some((rank, ticks)) = cp.dominant_rank() {
            println!("  dominant rank {rank} carries {ticks} ticks");
        }
        for r in imbalance(&run.profile, &["io", "render", "composite"]) {
            println!(
                "  {:<9} imbalance max/mean = {:.2}",
                r.name,
                r.factor_milli as f64 / 1000.0
            );
        }
        run.frame
    } else {
        run_frame_mpi(&cfg, &path)
    };
    println!("  {}", b.timing);
    println!(
        "  fragment bytes shipped renderer->compositor: {}",
        b.composite.bytes
    );

    let diff = a.image.max_abs_diff(&b.image);
    println!("max image difference: {diff:e}");
    assert!(diff < 1e-6, "executors disagree");
    println!("images agree — the message-passing pipeline reproduces the frame.");

    b.image
        .write_ppm(std::path::Path::new("mpi_pipeline.ppm"), [0.0, 0.0, 0.0])
        .unwrap();
    println!("wrote mpi_pipeline.ppm");
    std::fs::remove_file(&path).ok();
}
