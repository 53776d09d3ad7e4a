//! `render_bench` — the ray-kernel microbenchmark.
//!
//! Renders one 128³ supernova block (the paper's per-process block size
//! at 1120³ / 8³ processes is comparable) with both kernels, each forced
//! through `render_block_with_grid`:
//!
//! * **reference** — the plain per-sample loop (`fast_path: false`), no
//!   macrocells, no termination: the oracle, and the only other kernel
//!   that ships;
//! * **packet** — the 8-lane lockstep march with macrocell/LUT
//!   empty-space skipping and the default bitwise termination gate.
//!
//! The `kernel_choice` sweep asks which of the two `render_block` should
//! run: over block geometries (cubic owned edges 4…64 and a 2:1 slab,
//! 0.25…4 pixels per cell, steps 1 and 4, both maps below) it times the
//! packet path, macrocell build included, against the reference loop and
//! reports the regret of the kernel `render_block` picks — its time over
//! the faster one's. `--ci` gates the largest regret at 1.25
//! (DESIGN §17.7).
//!
//! Each renders the block twice: under the velocity map, whose
//! transparent plateau lets the march skip two thirds of the samples,
//! and under `TransferFunction::hot_density`, which leaves nothing to
//! skip — there every sample is fetched, classified and blended, so
//! `packet_vs_reference_dense` is the per-sample cost of the lane step
//! alone.
//!
//! The same rounds time the per-block preparation a frame pays before
//! the first ray — the macrocell build (`macrocell_build_mvox_per_s`)
//! and the packet kernel's per-render skip bake (`skip_bake_ms`).
//!
//! Both must produce **bit-identical** images; the packet kernel's
//! deterministic counters (packets launched, lane-utilization
//! numerator/denominator, skips) are exact-gated. Timed comparisons are
//! interleaved round-robin within one process (best-of-N per kernel),
//! the only protocol that yields stable ratios on noisy machines; the
//! ratio (`packet_vs_reference`) still rides a wide relative band and
//! the wall clocks are info-only.
//!
//! A bounded-termination render (`RenderOpts::bounded`) checks the
//! reported per-pixel error bound against the actual deviation from the
//! exact image, and a best-case thread-scaling harness (independent
//! block renders fanned over the shim pool at 1 vs all cores) reports
//! `scaling_efficiency`.
//!
//! Writes `results/BENCH_render.json` and a `render_bench.csv` summary.
//! `--ci` runs a single timed round (three for the sweep) and exits
//! nonzero if any correctness gate fails; `--packets` prints the
//! packet-kernel detail section and the `kernel_choice` table.

use std::time::Instant;

use pvr_bench::{check, write_trajectory, CsvOut};
use pvr_core::{run_frame, FrameConfig};
use pvr_formats::Subvolume;
use pvr_obs::bench::Trajectory;
use pvr_obs::Registry;
use pvr_render::raycast::{RenderOpts, RenderStats, Termination};
use pvr_render::{
    render_block, render_block_with_grid, BlockDomain, Camera, Image, TransferFunction, Vec3,
};
use pvr_volume::{MacrocellGrid, SupernovaField, Volume};
use rayon::ThreadPoolBuilder;

const BLOCK: usize = 128;

/// Floor of `packet_vs_reference_dense`: the lane step alone against the
/// reference loop, nothing skipped.
const DENSE_FLOOR: f64 = 1.6;

/// Ceiling of `kernel_choice_max_regret`: on no sweep row may the kernel
/// `render_block` picks be this much slower than the faster of the two.
const REGRET_CEILING: f64 = 1.25;

fn block_volume() -> Volume {
    // X velocity of the synthetic supernova — the variable and transfer
    // function of the paper's Figure 1.
    let f = SupernovaField::new(1530).variable(2);
    Volume::from_field(&f, [BLOCK; 3])
}

struct Kernel {
    name: &'static str,
    tf: TransferFunction,
    opts: RenderOpts,
}

struct Measured {
    best: f64,
    stats: RenderStats,
    image: Image,
}

/// Time every task interleaved round-robin: one run of each per round,
/// best-of-`iters` per task. Interleaving shares any machine slowdown
/// across all tasks, so the *ratios* stay meaningful even when the
/// absolute clocks are noisy.
fn best_of_interleaved(iters: usize, tasks: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; tasks.len()];
    for _ in 0..iters {
        for (task, b) in tasks.iter_mut().zip(&mut best) {
            let t = Instant::now();
            task();
            *b = b.min(t.elapsed().as_secs_f64());
        }
    }
    best
}

/// The whole block rendered with `opts`, pasted into a full image.
fn render_image(
    volume: &Volume,
    grid: &MacrocellGrid,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (Image, RenderStats) {
    let dom = BlockDomain::whole(volume.dims());
    let (sub, stats) = render_block_with_grid(volume, Some(grid), &dom, cam, tf, opts);
    let (w, h) = cam.image_size();
    let mut img = Image::new(w, h);
    img.paste(&sub);
    (img, stats)
}

/// Per-block preparation cost, in seconds.
struct Prep {
    /// `MacrocellGrid::build` of the block.
    build: f64,
    /// The packet kernel's per-render skip bake.
    bake: f64,
}

/// Time every kernel, and the block preparation that precedes them in
/// a frame, in the same interleaved rounds.
///
/// The skip bake has no entry point of its own, so it is measured as a
/// difference: the packet kernel bakes its skip field over the whole
/// *stored* block before it casts a ray, the reference loop does not,
/// and a block that *owns* only a 4³ sliver of what it stores casts a
/// few dozen rays either way — at the real camera's ray density, so the
/// bake sees the real lane spreads.
fn bench_kernels(
    volume: &Volume,
    grid: &MacrocellGrid,
    cam: &Camera,
    kernels: &[Kernel; 4],
    iters: usize,
) -> (Vec<Measured>, Prep) {
    let render = |k: &Kernel| render_image(volume, grid, cam, &k.tf, &k.opts);
    let sliver = BlockDomain {
        owned: Subvolume::new([BLOCK / 2; 3], [4; 3]),
        ..BlockDomain::whole(volume.dims())
    };
    let [reference, packet, ..] = kernels;
    let render_sliver = |opts: &RenderOpts| {
        std::hint::black_box(render_block_with_grid(
            volume,
            Some(grid),
            &sliver,
            cam,
            &packet.tf,
            opts,
        ));
    };

    // One warm-up render of each, kept as the kernel's image/stats.
    let warm: Vec<(Image, RenderStats)> = kernels.iter().map(render).collect();

    let mut time_build = || {
        std::hint::black_box(MacrocellGrid::build(std::hint::black_box(volume)));
    };
    let mut time_baked = || render_sliver(&packet.opts);
    let mut time_unbaked = || render_sliver(&reference.opts);
    let mut time_kernels: Vec<_> = kernels
        .iter()
        .map(|k| {
            move || {
                std::hint::black_box(render(k));
            }
        })
        .collect();
    let mut tasks: Vec<&mut dyn FnMut()> =
        vec![&mut time_build, &mut time_baked, &mut time_unbaked];
    tasks.extend(time_kernels.iter_mut().map(|t| t as &mut dyn FnMut()));
    let best = best_of_interleaved(iters, &mut tasks);
    let [build, baked, unbaked, kernel_best @ ..] = &best[..] else {
        unreachable!("three preparation tasks precede the kernels")
    };

    let measured = warm
        .into_iter()
        .zip(kernel_best)
        .map(|((image, stats), &best)| Measured { best, stats, image })
        .collect();
    let prep = Prep {
        build: *build,
        bake: (baked - unbaked).max(0.0),
    };
    (measured, prep)
}

/// One row of the kernel-choice sweep: a block geometry, the kernel
/// `render_block` picked for it, and both kernels' best times.
struct ChoiceRow {
    geometry: String,
    march: bool,
    packet: f64,
    reference: f64,
}

impl ChoiceRow {
    /// The picked kernel's time over the faster kernel's.
    fn regret(&self) -> f64 {
        let picked = if self.march {
            self.packet
        } else {
            self.reference
        };
        picked / self.packet.min(self.reference)
    }
}

/// The kernel-choice sweep (DESIGN §17.7): one block inside a 128³
/// supernova grid, under both maps — cubic owned edges 4…64 and a 2:1
/// slab, 0.25, 1 and 4 pixels per cell (64³ and the slab skip 4), ray
/// steps 1 and 4. Each row times the packet path, macrocell build
/// included, against the reference loop, interleaved, best of `iters`;
/// a render under a millisecond is repeated until one timing spans ≈ 1 ms,
/// and a row whose regret exceeds the ceiling is timed again, best of
/// `3 × iters` more, before it counts. The pick is read off `render_block`'s counters, which equal exactly
/// one kernel's.
fn kernel_choice(iters: usize) -> Vec<ChoiceRow> {
    const GRID: usize = 128;
    // `Camera::orthographic` spans 1.1 grid diagonals across the image.
    let cells_across = 1.1 * (3.0f64).sqrt() * GRID as f64;
    let view = Vec3::new(0.25, -0.2, -0.95);
    let maps = [
        ("velocity", 2, TransferFunction::supernova_velocity()),
        ("hot_density", 0, TransferFunction::hot_density()),
    ];
    let mut rows = Vec::new();
    for (map, variable, tf) in &maps {
        let field = SupernovaField::new(1530).variable(*variable);
        for shape in [[4; 3], [8; 3], [16; 3], [32; 3], [64; 3], [64, 64, 32]] {
            let owned = Subvolume::new([GRID * 2 / 5; 3], shape);
            let stored = Subvolume::new(owned.offset.map(|o| o - 1), shape.map(|s| s + 2));
            let volume = Volume::from_field_window(&field, [GRID; 3], stored.offset, stored.shape);
            let dom = BlockDomain {
                grid: [GRID; 3],
                owned,
                stored,
            };
            for ppc in [0.25, 1.0, 4.0] {
                if shape[0] == 64 && ppc > 1.0 {
                    continue;
                }
                let width = (ppc * cells_across).round() as usize;
                let cam = Camera::orthographic([GRID; 3], view, width, width);
                for step in [1.0, 4.0] {
                    let opts = RenderOpts {
                        step,
                        ..RenderOpts::default()
                    };
                    let render = |grid: Option<&MacrocellGrid>| {
                        render_block_with_grid(&volume, grid, &dom, &cam, tf, &opts).1
                    };
                    let packet_stats = render(Some(&MacrocellGrid::build(&volume)));
                    let picked = render_block(&volume, &dom, &cam, tf, &opts).1;
                    let t = Instant::now();
                    let reference_stats = render(None);
                    let reps = (1e-3 / t.elapsed().as_secs_f64().max(1e-7)).ceil() as usize;
                    let mut packet = || {
                        for _ in 0..reps {
                            let grid = MacrocellGrid::build(&volume);
                            std::hint::black_box(render(Some(&grid)));
                        }
                    };
                    let mut reference = || {
                        for _ in 0..reps {
                            std::hint::black_box(render(None));
                        }
                    };
                    let mut tasks: [&mut dyn FnMut(); 2] = [&mut packet, &mut reference];
                    let best = best_of_interleaved(iters, &mut tasks);
                    let mut row = ChoiceRow {
                        geometry: format!(
                            "{}x{}x{} {ppc} px/cell step {step} {map}",
                            shape[0], shape[1], shape[2]
                        ),
                        march: picked == packet_stats && picked != reference_stats,
                        packet: best[0] / reps as f64,
                        reference: best[1] / reps as f64,
                    };
                    // A row over the ceiling is timed again before it
                    // counts: on a shared machine a neighbour can slow one
                    // kernel through every round of a short best-of.
                    if row.regret() > REGRET_CEILING {
                        let again = best_of_interleaved(3 * iters, &mut tasks);
                        row.packet = row.packet.min(again[0] / reps as f64);
                        row.reference = row.reference.min(again[1] / reps as f64);
                    }
                    rows.push(row);
                }
            }
        }
    }
    rows
}

fn bits_equal(a: &Image, b: &Image) -> bool {
    a.pixels()
        .iter()
        .zip(b.pixels())
        .all(|(p, q)| (0..4).all(|c| p[c].to_bits() == q[c].to_bits()))
}

/// Best-case thread scaling: fan `2 × cores` independent copies of the
/// packet-kernel block render over the shim pool at one thread and at
/// all cores. No shared state, no compositing — an upper bound on what
/// thread scaling can ever deliver on this machine, which is exactly
/// what makes shortfalls in the full pipeline attributable.
fn best_case_scaling(
    volume: &Volume,
    grid: &MacrocellGrid,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (usize, f64, f64) {
    use rayon::prelude::*;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dom = BlockDomain::whole(volume.dims());
    let tasks = 2 * threads;
    let run = |cap: usize| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(cap)
            .build()
            .expect("scaling pool");
        let t = Instant::now();
        pool.install(|| {
            (0..tasks).into_par_iter().for_each(|_| {
                let (sub, _) = render_block_with_grid(volume, Some(grid), &dom, cam, tf, opts);
                std::hint::black_box(sub);
            });
        });
        t.elapsed().as_secs_f64()
    };
    // Warm-up (page in everything), then one pass per pool size.
    run(threads);
    let t1 = run(1);
    let tn = run(threads);
    let speedup = t1 / tn.max(1e-12);
    (threads, speedup, speedup / threads as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ci = args.iter().any(|a| a == "--ci");
    let packets_detail = args.iter().any(|a| a == "--packets");
    let iters = if ci { 1 } else { 5 };

    // --- Kernels: one 128^3 block, both ways, interleaved. -----------
    let volume = block_volume();
    let cam = Camera::orthographic([BLOCK; 3], Vec3::new(0.3, -0.2, 0.93), 256, 256);
    let tf = TransferFunction::supernova_velocity();
    let reference_opts = RenderOpts {
        fast_path: false,
        ..RenderOpts::exact()
    };
    let packet_opts = RenderOpts::default(); // 8 lanes, bitwise termination
    let dense = TransferFunction::hot_density();
    let kernel = |name, tf: &TransferFunction, opts| Kernel {
        name,
        tf: tf.clone(),
        opts,
    };
    let kernels = [
        kernel("reference", &tf, reference_opts),
        kernel("packet", &tf, packet_opts),
        kernel("reference_dense", &dense, reference_opts),
        kernel("packet_dense", &dense, packet_opts),
    ];

    println!("# render_bench: {BLOCK}^3 supernova block, 256^2 rays, best of {iters} interleaved");
    let grid = MacrocellGrid::build(&volume);
    let (m, prep) = bench_kernels(&volume, &grid, &cam, &kernels, iters);
    let [reference, packet, reference_dense, packet_dense] = &m[..] else {
        unreachable!("four kernels")
    };

    // Skipping and lanes alone (no termination gate), untimed.
    let (exact_img, _) = render_image(&volume, &grid, &cam, &tf, &RenderOpts::exact());
    let bit_identical_kernel = bits_equal(&reference.image, &exact_img);
    let bit_identical_packet = bits_equal(&reference.image, &packet.image);
    let bit_identical_packet_dense = bits_equal(&reference_dense.image, &packet_dense.image);
    let samples = reference.stats.samples;
    let skip_fraction = packet.stats.skipped_samples as f64 / samples as f64;
    // The gated ratio: the packet kernel vs the only other kernel that
    // ships, both timed in this process.
    let packet_vs_reference = reference.best / packet.best.max(1e-12);
    let packet_vs_reference_dense = reference_dense.best / packet_dense.best.max(1e-12);
    let lane_utilization = packet.stats.lane_utilization().unwrap_or(0.0);

    for (k, mm) in kernels.iter().zip(&m) {
        println!(
            "  {:9}  {:8.2} ms   {:>9} samples  {:>9} skipped",
            k.name,
            mm.best * 1e3,
            mm.stats.samples,
            mm.stats.skipped_samples
        );
    }
    println!(
        "  packet vs reference: {packet_vs_reference:.2}x, \
         with nothing to skip {packet_vs_reference_dense:.2}x"
    );
    let macrocell_build_mvox_per_s = (BLOCK * BLOCK * BLOCK) as f64 / 1e6 / prep.build;
    let skip_bake_ms = prep.bake * 1e3;
    println!(
        "  block preparation: macrocell build {:.2} ms ({macrocell_build_mvox_per_s:.0} Mvox/s), \
         skip bake {skip_bake_ms:.2} ms",
        prep.build * 1e3
    );

    // --- Which kernel each block gets: the rule against both timings. --
    let choice = kernel_choice(if ci { 3 } else { 7 });
    let max_regret = choice.iter().map(ChoiceRow::regret).fold(1.0, f64::max);
    let marched = choice.iter().filter(|r| r.march).count();
    println!(
        "  kernel choice: {} geometries, {marched} marched, max regret {max_regret:.3}",
        choice.len()
    );

    if packets_detail {
        println!("# kernel_choice (geometry / rule pick / t_packet / t_reference / regret)");
        for r in &choice {
            println!(
                "  {:38} {:9} {:10.1} us {:10.1} us  {:.3}",
                r.geometry,
                if r.march { "march" } else { "reference" },
                r.packet * 1e6,
                r.reference * 1e6,
                r.regret()
            );
        }
        let s = &packet.stats;
        println!("# packet kernel detail (8 lanes, bitwise termination)");
        println!("  packets launched     {}", s.packets);
        println!("  rays                 {}", s.rays);
        println!(
            "  eval lanes / slots   {} / {}  (utilization {:.3})",
            s.packet_eval_lanes, s.packet_eval_slots, lane_utilization
        );
        println!("  skipped samples      {}", s.skipped_samples);
        println!("  terminated rays      {}", s.terminated_rays);
    }

    // --- Bounded termination: the reported bound must hold. ----------
    let (bounded_img, bstats) = render_image(&volume, &grid, &cam, &tf, &RenderOpts::bounded(0.98));
    let bounded_dev = bounded_img.max_abs_diff(&reference.image);
    let bounded_ok = bstats.error_bound > 0.0 && bounded_dev <= bstats.error_bound as f64;

    // --- Best-case thread scaling of the packet kernel. --------------
    let (scaling_threads, scaling_speedup, scaling_efficiency) =
        best_case_scaling(&volume, &grid, &cam, &tf, &RenderOpts::default());
    println!(
        "  best-case scaling: {scaling_speedup:.2}x on {scaling_threads} threads \
         (efficiency {scaling_efficiency:.2})"
    );

    // --- End to end: a small frame, honest sparse exchange bytes. ----
    // The default config runs the packet kernel with the bitwise gate;
    // the reference-loop frame must match it bit for bit.
    let mut cfg = FrameConfig::small(64, 192, 8);
    cfg.variable = 2;
    let frame_fast = run_frame(&cfg, None);
    let mut cfg_reference = cfg;
    cfg_reference.fast_path = false;
    cfg_reference.termination = Termination::Off;
    let frame_reference = run_frame(&cfg_reference, None);
    let bit_identical_frame = bits_equal(&frame_reference.image, &frame_fast.image);
    let comp = &frame_fast.composite;

    // A bounded-mode frame must report a nonzero bound that covers its
    // actual deviation from the exact frame. The threshold is low:
    // blocks here are 32^3, so per-block ray segments accumulate far
    // less opacity than the 128^3 kernel bench above.
    let mut cfg_bounded = cfg;
    cfg_bounded.termination = Termination::Bounded { alpha: 0.35 };
    let frame_bounded = run_frame(&cfg_bounded, None);
    let frame_bounded_dev = frame_bounded.image.max_abs_diff(&frame_reference.image);
    let frame_bounded_ok = frame_bounded.render_error_bound > 0.0
        && frame_bounded_dev <= frame_bounded.render_error_bound;

    // --- Metrics through the observability registry. ------------------
    let reg = Registry::new();
    reg.counter_add("render.samples", "block", packet.stats.samples);
    reg.counter_add("render.skip", "block", packet.stats.skipped_samples);
    reg.counter_add("render.packets", "block", packet.stats.packets);
    reg.counter_add("render.eval_lanes", "block", packet.stats.packet_eval_lanes);
    reg.counter_add("render.eval_slots", "block", packet.stats.packet_eval_slots);
    reg.counter_add("render.terminated", "block", packet.stats.terminated_rays);
    reg.counter_add("render.skip", "frame", frame_fast.render_skipped);
    reg.counter_add("render.packets", "frame", frame_fast.render_packets);
    reg.counter_add("composite.sparse_bytes", "frame", comp.bytes);
    reg.counter_add("composite.dense_bytes", "frame", comp.dense_bytes);
    print!("{}", reg.snapshot().to_text());

    let mut csv = CsvOut::create(
        "render_bench",
        "kernel,secs,samples,skipped,samples_per_sec",
    );
    for (k, mm) in kernels.iter().zip(&m) {
        csv.row(&format!(
            "{},{:.6},{},{},{:.0}",
            k.name,
            mm.best,
            mm.stats.samples,
            mm.stats.skipped_samples,
            mm.stats.samples as f64 / mm.best
        ));
    }

    // The trajectory artifact: every deterministic count is an exact
    // gate, in-process timing ratios ride wide relative bands (the same
    // machine run-to-run, not cross-machine), wall-clock is info-only.
    let mut traj = Trajectory::new("render");
    traj.exact("block", BLOCK as f64)
        .exact("samples", samples as f64)
        .exact("bit_identical_kernel", bit_identical_kernel as u8 as f64)
        .exact("bit_identical_packet", bit_identical_packet as u8 as f64)
        .exact(
            "bit_identical_packet_dense",
            bit_identical_packet_dense as u8 as f64,
        )
        .exact("bit_identical_frame", bit_identical_frame as u8 as f64)
        .exact("packet_packets", packet.stats.packets as f64)
        .exact("packet_eval_lanes", packet.stats.packet_eval_lanes as f64)
        .exact("packet_eval_slots", packet.stats.packet_eval_slots as f64)
        .exact(
            "packet_skipped_samples",
            packet.stats.skipped_samples as f64,
        )
        .exact(
            "packet_terminated_rays",
            packet.stats.terminated_rays as f64,
        )
        .exact(
            "packet_dense_skipped_samples",
            packet_dense.stats.skipped_samples as f64,
        )
        .exact("bounded_error_within_bound", bounded_ok as u8 as f64)
        .exact(
            "frame_bounded_error_within_bound",
            frame_bounded_ok as u8 as f64,
        )
        .exact("frame_render_samples", frame_fast.render_samples as f64)
        .exact("frame_render_skipped", frame_fast.render_skipped as f64)
        .exact("frame_render_packets", frame_fast.render_packets as f64)
        .exact("frame_composite_bytes", comp.bytes as f64)
        .exact("frame_composite_dense_bytes", comp.dense_bytes as f64)
        .exact("frame_sparse_messages", comp.sparse_messages as f64)
        .exact("frame_messages", comp.messages as f64)
        .rel("skip_fraction", skip_fraction, 0.01)
        .rel("lane_utilization", lane_utilization, 0.02)
        .rel("packet_vs_reference", packet_vs_reference, 0.5)
        .rel("packet_vs_reference_dense", packet_vs_reference_dense, 0.5)
        .info("iters", iters as f64)
        .info("kernel_choice_max_regret", max_regret)
        .info("reference_secs", reference.best)
        .info("packet_secs", packet.best)
        .info("reference_dense_secs", reference_dense.best)
        .info("packet_dense_secs", packet_dense.best)
        .info("reference_samples_per_sec", samples as f64 / reference.best)
        .info("packet_samples_per_sec", samples as f64 / packet.best)
        .info("macrocell_build_mvox_per_s", macrocell_build_mvox_per_s)
        .info("skip_bake_ms", skip_bake_ms)
        .info("bounded_error_bound", bstats.error_bound as f64)
        .info("scaling_threads", scaling_threads as f64)
        .info("scaling_speedup", scaling_speedup)
        .info("scaling_efficiency", scaling_efficiency)
        .table(
            "kernels",
            &["kernel", "secs", "samples", "skipped"],
            kernels
                .iter()
                .zip(&m)
                .map(|(k, mm)| {
                    vec![
                        k.name.into(),
                        format!("{:.6}", mm.best),
                        mm.stats.samples.to_string(),
                        mm.stats.skipped_samples.to_string(),
                    ]
                })
                .collect(),
        )
        .table(
            "kernel_choice",
            &["geometry", "pick", "t_packet", "t_reference", "regret"],
            choice
                .iter()
                .map(|r| {
                    vec![
                        r.geometry.clone(),
                        if r.march { "march" } else { "reference" }.into(),
                        format!("{:.7}", r.packet),
                        format!("{:.7}", r.reference),
                        format!("{:.3}", r.regret()),
                    ]
                })
                .collect(),
        );
    write_trajectory(&traj);

    // --- Gates. -------------------------------------------------------
    check(
        "packet march without a termination gate is bit-identical to the reference loop",
        bit_identical_kernel,
        "256^2 pixels compared bitwise",
    );
    check(
        "packet kernel (8 lanes, bitwise gate) is bit-identical to the reference loop",
        bit_identical_packet,
        "256^2 pixels compared bitwise",
    );
    check(
        "with nothing to skip, the packet kernel is bit-identical to the reference loop",
        bit_identical_packet_dense && packet_dense.stats.skipped_samples == 0,
        &format!(
            "256^2 pixels compared bitwise, {} samples skipped",
            packet_dense.stats.skipped_samples
        ),
    );
    check(
        "fast path is bit-identical end to end (packet frame vs reference frame)",
        bit_identical_frame,
        "192^2 pixels compared bitwise",
    );
    check(
        "macrocell/LUT classification skips work",
        skip_fraction > 0.0,
        &format!("{:.1}% of samples skipped", 100.0 * skip_fraction),
    );
    check(
        "packet kernel keeps lanes busy",
        lane_utilization > 0.5,
        &format!("utilization {lane_utilization:.3}"),
    );
    check(
        "bounded termination honors its reported error bound (block)",
        bounded_ok,
        &format!(
            "max deviation {bounded_dev:.3e} <= bound {:.3e}",
            bstats.error_bound
        ),
    );
    check(
        "bounded termination honors its reported error bound (frame)",
        frame_bounded_ok,
        &format!(
            "max deviation {frame_bounded_dev:.3e} <= bound {:.3e}",
            frame_bounded.render_error_bound
        ),
    );
    check(
        "sparse exchange ships fewer bytes than dense",
        comp.bytes < comp.dense_bytes,
        &format!(
            "{} sparse vs {} dense ({} of {} messages sparse)",
            comp.bytes, comp.dense_bytes, comp.sparse_messages, comp.messages
        ),
    );
    // The measured in-process ratio lands around 3x on the reference
    // machine (recorded in the trajectory); the hard floor is set below
    // that so machine noise cannot flake the job while a packet kernel
    // that stopped paying for itself still fails it.
    check(
        "packet kernel beats the reference loop by 2.0x+",
        packet_vs_reference >= 2.0,
        &format!("{packet_vs_reference:.2}x measured"),
    );
    check(
        &format!(
            "with nothing to skip, the packet kernel beats the reference loop by {DENSE_FLOOR}x+"
        ),
        packet_vs_reference_dense >= DENSE_FLOOR,
        &format!("{packet_vs_reference_dense:.2}x measured"),
    );

    check(
        &format!("render_block's kernel is within {REGRET_CEILING}x of the faster one"),
        max_regret <= REGRET_CEILING,
        &format!(
            "max regret {max_regret:.3} over {} geometries",
            choice.len()
        ),
    );

    // Correctness gates are hard failures everywhere; the ratio floor
    // gates too (it is an in-process ratio, not a wall clock). Absolute
    // throughput and scaling are machine-dependent and only reported.
    let ok = bit_identical_kernel
        && bit_identical_packet
        && bit_identical_packet_dense
        && packet_dense.stats.skipped_samples == 0
        && bit_identical_frame
        && skip_fraction > 0.0
        && lane_utilization > 0.5
        && bounded_ok
        && frame_bounded_ok
        && packet_vs_reference >= 2.0
        && packet_vs_reference_dense >= DENSE_FLOOR
        && max_regret <= REGRET_CEILING
        && comp.bytes < comp.dense_bytes;
    if !ok {
        std::process::exit(1);
    }
}
