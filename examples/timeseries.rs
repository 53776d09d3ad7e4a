//! Time-series rendering: successive time steps of the evolving
//! supernova, each written to and read back from storage — the workload
//! the paper instruments ("reading time steps from storage").
//!
//! ```text
//! cargo run --release --example timeseries [steps] [grid] [ranks]
//! ```
//!
//! Writes `timeseries_<step>.ppm` frames and prints a per-step timing
//! table plus totals, mirroring the frame-time accounting of Figure 3.

use parallel_volume_rendering::core::{run_frame, write_dataset, FrameConfig, IoMode};

fn arg(i: usize, default: usize) -> usize {
    std::env::args()
        .nth(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let steps = arg(1, 4);
    let grid = arg(2, 80);
    let ranks = arg(3, 16);

    let dir = std::env::temp_dir().join("pvr-timeseries");
    std::fs::create_dir_all(&dir).expect("temp dir");

    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9}",
        "step", "io(s)", "render(s)", "comp(s)", "total(s)"
    );
    let mut total = 0.0;
    for step in 0..steps {
        let mut cfg = FrameConfig::small(grid, 256, ranks);
        cfg.variable = 2;
        cfg.io = IoMode::Raw;
        // Evolve the dataset: the paper's step 1530 is t = 0.
        cfg.seed = 1530;
        let t = step as f32 * 5.0;

        // Write this time step (in production the simulation wrote it).
        let path = dir.join(format!("step-{step}.raw"));
        {
            use parallel_volume_rendering::formats::{write_file, Subvolume};
            use parallel_volume_rendering::volume::{voxel_centre, ScalarField, SupernovaField};
            let field = SupernovaField::at_time(cfg.seed, t).variable(2);
            let layout = cfg.io.layout(cfg.grid);
            let [nx, ny, nz] = cfg.grid;
            // One z-plane a slab, synthesized a row at a time.
            let fill = |slab: &Subvolume, values: &mut [f32]| {
                let z = voxel_centre(slab.offset[2], nz);
                for (y, row) in values.chunks_exact_mut(nx).enumerate() {
                    field.sample_row(0, nx, voxel_centre(y, ny), z, row);
                }
            };
            write_file(&path, layout.as_ref(), fill).expect("write step");
        }

        let r = run_frame(&cfg, Some(&path));
        println!(
            "{step:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            r.timing.io,
            r.timing.render,
            r.timing.composite,
            r.timing.total()
        );
        total += r.timing.total();
        r.image
            .write_ppm(
                std::path::Path::new(&format!("timeseries_{step}.ppm")),
                [0.0; 3],
            )
            .unwrap();
        std::fs::remove_file(&path).ok();
    }
    println!(
        "\n{steps} time steps in {total:.2} s ({:.2} s/frame)",
        total / steps as f64
    );
    let _ = write_dataset; // referenced for doc discoverability
}
