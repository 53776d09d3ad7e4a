//! The traced pass: the frame rebuilt as explicit calls into each
//! layer's public functions, one span around each call, plus the
//! microbenchmarks of layers no real frame isolates. A layer's number is
//! its span's self time; its counts are read where the work happens.
//!
//! The replica must produce the image the real executor produces, bit
//! for bit — otherwise its layer numbers describe some other frame.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::Path;
use std::time::Instant;

use pvr_bgp::{FlowSim, FlowSpec, Machine, MachineConfig};
use pvr_compositing::directsend::DirectSendStats;
use pvr_compositing::{build_schedule, composite_direct_send, ImagePartition, Schedule};
use pvr_core::pipeline::{default_view, render_opts, run_frame_mpi_sim, transfer_for};
use pvr_core::{
    compositor_rank, laptop_aggregators, run_animation, run_frame, run_frame_traced, FrameConfig,
    FrameTiming, PerfModel,
};
use pvr_formats::Subvolume;
use pvr_mpisim::{Comm, RunOptions, SimStats, World};
use pvr_obs::span::EventKind;
use pvr_obs::{perfetto, Tracer};
use pvr_pfs::twophase::{two_phase_execute, RankRequest, ScatterPlan};
use pvr_render::raycast::{footprint, render_block_with_grid, BlockDomain, RenderStats};
use pvr_render::{Camera, Image, PixelRect};
use pvr_volume::{BlockDecomposition, MacrocellGrid, Volume};

use crate::measure::reference_kernel_s;
use crate::spans::{self, Recorder, Span};
use crate::stats::{self, median, Metrics};
use crate::workload::{anim_options, image_hash, one_thread, with_threads, Fixture, Workload};

/// Every per-layer metric in `BENCHMARK.json` order: name, unit, and
/// whether it is exact — a count (or a ratio of counts) that must be
/// identical between two runs of one seed. A traced run reports all of
/// them; a layer the workload bypasses reports 0 work and 0 seconds.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("formats.runs_plan_s", "s", false),
    ("formats.placed_runs", "count", true),
    ("formats.decode_s", "s", false),
    ("formats.write_mb_per_s", "MB/s", false),
    ("pfs.plan_s", "s", false),
    ("pfs.read_s", "s", false),
    ("pfs.physical_bytes", "B", true),
    ("pfs.useful_bytes", "B", true),
    ("pfs.data_density", "ratio", true),
    ("pfs.accesses", "count", true),
    ("pfs.exchange_bytes", "B", true),
    ("pfs.physical_mb_per_s", "MB/s", false),
    ("pfs.useful_mb_per_s", "MB/s", false),
    ("volume.macrocell_build_s", "s", false),
    ("volume.macrocell_mvox_per_s", "Mvox/s", false),
    ("render.block_s", "s", false),
    ("render.block_max_over_mean", "ratio", false),
    ("render.samples", "count", true),
    ("render.skipped_frac", "ratio", true),
    ("render.rays", "count", true),
    ("render.packets", "count", true),
    ("render.lane_util", "ratio", true),
    ("render.terminated_rays", "count", true),
    ("render.eval_msamples_per_s", "Msamples/s", false),
    ("render.ns_per_ray", "ns", false),
    ("compositing.schedule_s", "s", false),
    ("compositing.blend_s", "s", false),
    ("compositing.messages", "count", true),
    ("compositing.wire_bytes", "B", true),
    ("compositing.dense_bytes", "B", true),
    ("compositing.sparse_msg_frac", "ratio", true),
    ("compositing.mpixels_per_s", "Mpx/s", false),
    ("mpisim.world_s", "s", false),
    ("mpisim.exchange_s", "s", false),
    ("mpisim.events_per_s", "1/s", false),
    ("mpisim.polls", "count", false),
    ("mpisim.messages", "count", true),
    ("mpisim.timer_fires", "count", true),
    ("mpisim.peak_resident", "count", true),
    ("bgp.flowsim_s", "s", false),
    ("bgp.flows", "count", true),
    ("bgp.flows_per_s", "1/s", false),
    ("bgp.net_makespan_s", "s", true),
    ("core.io_s", "s", false),
    ("core.render_s", "s", false),
    ("core.composite_s", "s", false),
    ("core.stage_sum_over_wall", "ratio", false),
    ("core.layers_over_wall", "ratio", false),
    ("core.glue_s", "s", false),
    ("core.io_hidden_frac", "ratio", false),
    ("core.perfmodel_io_s", "s", false),
    ("core.perfmodel_schedule_s", "s", false),
    ("core.sim_total_s", "s", true),
    ("obs.trace_overhead_frac", "ratio", false),
    ("obs.spans_per_frame", "count", true),
    ("obs.export_s", "s", false),
    ("shim-rayon.scaling_eff", "ratio", false),
    ("shim-rayon.threads", "count", true),
    ("bench.ref_s", "s", false),
    ("bench.nproc", "count", true),
    ("bench.replica_bit_identical", "count", true),
    ("bench.span_overhead_frac", "ratio", false),
];

/// Spans on the real frame's path: their self times are the layers that
/// must add up to the frame. `pfs.plan` and `compositing.schedule` are
/// timed beside the frame, not in it — the data-parallel executor plans
/// inside `two_phase_execute` and never builds a message schedule.
const ON_PATH: [&str; 6] = [
    "formats.runs_plan",
    "pfs.read",
    "formats.decode",
    "volume.macrocell_build",
    "render.block",
    "compositing.blend",
];
const MODEL_ON_PATH: [&str; 3] = [
    "core.perfmodel_io",
    "core.perfmodel_schedule",
    "core.perfmodel_composite",
];

/// Replica operations per traced run: at least, and at most.
const MIN_OPS: usize = 3;
const MAX_OPS: usize = 10;
/// Share of `--seconds` the replica loop may use before the fixed-size
/// microbenchmarks run.
const LOOP_SHARE: f64 = 0.5;
/// Interleaved traced/untraced frame pairs behind `obs.trace_overhead_frac`.
const OBS_PAIRS: usize = 10;
/// The exchange microbenchmark: rounds, compositors each rank feeds, and
/// payload bytes — the direct-send shape of `bench_sim`.
const EXCHANGE_ROUNDS: usize = 4;
const EXCHANGE_FANOUT: usize = 8;
const EXCHANGE_BYTES: usize = 64;
/// Reconcile tolerance printed beside the two `_over_wall` ratios.
const RECONCILE_TOLERANCE: f64 = 0.15;

/// Counts of one replica frame that must repeat bit for bit for a seed.
#[derive(Debug, Clone, PartialEq, Default)]
struct Exact {
    placed_runs: u64,
    physical_bytes: u64,
    useful_bytes: u64,
    accesses: u64,
    exchange_bytes: u64,
    voxels: u64,
    render: RenderStats,
    composite: DirectSendStats,
    image_hash: u64,
}

/// Wall seconds of one block render per rank, and the frame's counts.
struct ReplicaFrame {
    exact: Exact,
    block_s: Vec<f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One frame through the layers' public functions, in the order the
/// data-parallel executor calls them.
fn replica_frame(cfg: &FrameConfig, path: &Path, rec: &Recorder) -> ReplicaFrame {
    let layout = cfg.io.layout(cfg.grid);
    assert!(layout.collective(), "the workloads read collectively");
    let var = cfg.file_variable();
    let naggr = laptop_aggregators(cfg.nprocs);
    let hints = cfg.io.hints(cfg.grid);
    let mut exact = Exact::default();
    let mut block_s = Vec::with_capacity(cfg.nprocs);

    let (requests, footprints, partition) = rec.span("frame", || {
        let (stored, owned, requests) = rec.span("formats.runs_plan", || {
            let decomp = BlockDecomposition::new(cfg.grid, cfg.nprocs);
            let blocks = decomp.blocks();
            let ghost = if cfg.shading { 2 } else { 1 };
            let stored: Vec<Subvolume> =
                blocks.iter().map(|b| decomp.with_ghost(b, ghost)).collect();
            let owned: Vec<Subvolume> = blocks.iter().map(|b| b.sub).collect();
            let requests: Vec<RankRequest> = stored
                .iter()
                .map(|sub| {
                    let mut runs = Vec::new();
                    layout.placed_runs(var, sub, &mut |r| runs.push(r));
                    RankRequest {
                        runs,
                        out_elems: sub.num_elements(),
                    }
                })
                .collect();
            (stored, owned, requests)
        });
        exact.placed_runs = requests.iter().map(|r| r.runs.len() as u64).sum();

        let read = rec.span("pfs.read", || {
            let mut file = File::open(path).expect("set-up wrote the dataset");
            two_phase_execute(&mut file, &requests, naggr, &hints).expect("collective read")
        });
        exact.physical_bytes = read.plan.physical_bytes;
        exact.useful_bytes = read.plan.useful_bytes;
        exact.accesses = read.plan.accesses.len() as u64;
        exact.exchange_bytes = read.exchange_bytes;

        let volumes: Vec<Volume> = rec.span("formats.decode", || {
            let endian = layout.endian();
            read.rank_bytes
                .iter()
                .zip(&stored)
                .map(|(bytes, sub)| {
                    let data = bytes
                        .chunks_exact(4)
                        .map(|c| endian.decode([c[0], c[1], c[2], c[3]]))
                        .collect();
                    Volume::from_data(sub.shape, data)
                })
                .collect()
        });
        exact.voxels = stored.iter().map(|s| s.num_elements() as u64).sum();

        let grids: Vec<Option<MacrocellGrid>> = rec.span("volume.macrocell_build", || {
            volumes
                .iter()
                .map(|v| cfg.fast_path.then(|| MacrocellGrid::build(v)))
                .collect()
        });

        let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
        let tf = transfer_for(cfg);
        let opts = render_opts(cfg);
        let mut subs = Vec::with_capacity(cfg.nprocs);
        for rank in 0..cfg.nprocs {
            let dom = BlockDomain {
                grid: cfg.grid,
                owned: owned[rank],
                stored: stored[rank],
            };
            let ((sub, st), secs) = timed(|| {
                rec.span("render.block", || {
                    render_block_with_grid(
                        &volumes[rank],
                        grids[rank].as_ref(),
                        &dom,
                        &camera,
                        &tf,
                        &opts,
                    )
                })
            });
            exact.render.merge(&st);
            block_s.push(secs);
            subs.push(sub);
        }

        let partition = ImagePartition::new(cfg.image.0, cfg.image.1, cfg.compositors());
        let (image, composite): (Image, DirectSendStats) = rec.span("compositing.blend", || {
            composite_direct_send(&subs, partition)
        });
        exact.image_hash = image_hash(&image);
        exact.composite = composite;

        let footprints: Vec<PixelRect> = owned
            .iter()
            .map(|o| footprint(&camera, o.offset, o.end(), cfg.image))
            .collect();
        (requests, footprints, partition)
    });

    // Beside the frame: the planners the message-passing executor and
    // the performance model run once per frame.
    rec.span("pfs.plan", || {
        std::hint::black_box(ScatterPlan::build(&requests, naggr, &hints));
    });
    rec.span("compositing.schedule", || {
        std::hint::black_box(build_schedule(&footprints, partition));
    });
    ReplicaFrame { exact, block_s }
}

/// What the real executor reported for one operation, timed from
/// outside.
struct RealOp {
    /// Wall seconds per frame.
    wall_s: f64,
    timing: FrameTiming,
    sim: Option<SimStats>,
    io_hidden_frac: f64,
    identities: Vec<u64>,
}

fn real_op(fx: &Fixture) -> RealOp {
    let cfg = &fx.cfg;
    match fx.workload {
        Workload::Sim2048 => {
            let ((frame, sim), wall_s) = timed(|| {
                one_thread(|| run_frame_mpi_sim(cfg, &fx.paths[0], RunOptions::default()))
                    .expect("a fault-free frame cannot fail")
            });
            RealOp {
                wall_s,
                timing: frame.timing,
                sim,
                io_hidden_frac: 0.0,
                identities: vec![image_hash(&frame.image)],
            }
        }
        Workload::AnimSlowstore => {
            let anim = run_animation(cfg, &fx.paths, &anim_options())
                .expect("a fault-free animation cannot degrade");
            let of = |f: fn(&FrameTiming) -> f64| {
                median(
                    &anim
                        .frames
                        .iter()
                        .map(|a| f(&a.result.timing))
                        .collect::<Vec<_>>(),
                )
            };
            RealOp {
                wall_s: anim.wall / anim.frames.len() as f64,
                timing: FrameTiming {
                    io: of(|t| t.io),
                    render: of(|t| t.render),
                    composite: of(|t| t.composite),
                    ..Default::default()
                },
                sim: None,
                io_hidden_frac: anim.io_hidden_fraction(),
                identities: anim
                    .frames
                    .iter()
                    .map(|a| image_hash(&a.result.image))
                    .collect(),
            }
        }
        _ => {
            let (frame, wall_s) = timed(|| one_thread(|| run_frame(cfg, Some(&fx.paths[0]))));
            RealOp {
                wall_s,
                timing: frame.timing,
                sim: None,
                io_hidden_frac: 0.0,
                identities: vec![image_hash(&frame.image)],
            }
        }
    }
}

/// Result of a traced run, beside its metrics.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Per-layer values by name; everything not set stays 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Metrics {
        let mut metrics = Metrics::new();
        for (name, unit, _) in PER_LAYER {
            stats::put(
                &mut metrics,
                name,
                self.0.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        metrics
    }
}

/// Median over frames of a span name's per-frame self seconds.
fn layer_s(by_frame: &BTreeMap<&'static str, BTreeMap<u32, f64>>, name: &str) -> f64 {
    by_frame.get(name).map_or(0.0, |frames| {
        median(&frames.values().copied().collect::<Vec<_>>())
    })
}

/// Print where the real frame's wall time went, layer by layer, and
/// how close the layers come to adding up to it. `reconciles` is false
/// where they are not expected to: the message-passing frame does work
/// no layer call covers, and animated frames overlap.
fn print_ledger(wall: f64, stage_sum: Option<f64>, layers: &[(&str, f64)], reconciles: bool) {
    eprintln!("  real frame {wall:.5} s; layer self times as a share of it:");
    for (name, secs) in layers {
        eprintln!(
            "    {name:<26} {secs:>10.6} s {:>6.1} %",
            100.0 * secs / wall
        );
    }
    let verdict = |r: f64| match (reconciles, (r - 1.0).abs() <= RECONCILE_TOLERANCE) {
        (false, _) => "not expected to reconcile on this workload",
        (true, true) => "within tolerance",
        (true, false) => "OUTSIDE tolerance",
    };
    let tol = RECONCILE_TOLERANCE * 100.0;
    let r = layers.iter().map(|l| l.1).sum::<f64>() / wall;
    eprintln!("    layers / wall = {r:.3} (±{tol:.0} %: {})", verdict(r));
    if let Some(stages) = stage_sum {
        let r = stages / wall;
        eprintln!(
            "    stage sum / wall = {r:.3} (±{tol:.0} %: {})",
            verdict(r)
        );
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether the replica loop runs another pass.
fn another_pass(ops: usize, started: Instant, seconds: f64) -> bool {
    ops < MIN_OPS || (ops < MAX_OPS && started.elapsed().as_secs_f64() < seconds * LOOP_SHARE)
}

/// The traced pass of one workload.
pub fn run(fx: &Fixture, seconds: f64) -> (Metrics, Traced) {
    let mut layers = Layers(BTreeMap::new());
    layers.set("bench.ref_s", reference_kernel_s());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    layers.set("bench.nproc", nproc as f64);
    layers.set(
        "formats.write_mb_per_s",
        ratio(fx.written_bytes as f64 / 1e6, fx.write_s),
    );

    let traced = if fx.workload == Workload::Model512 {
        model_pass(fx, seconds, &mut layers)
    } else {
        frame_pass(fx, seconds, &mut layers)
    };
    (layers.into_metrics(), traced)
}

fn frame_pass(fx: &Fixture, seconds: f64, layers: &mut Layers) -> Traced {
    let cfg = &fx.cfg;
    let rec = Recorder::new(true);
    let off = Recorder::new(false);
    let started = Instant::now();
    let mut first: Vec<Exact> = Vec::new();
    let mut block_ratio = Vec::new();
    let mut real = Vec::new();
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut identical) = (0u64, 0u64, true);

    let mut ops = 0;
    while another_pass(ops, started, seconds) {
        for (t, path) in fx.paths.iter().enumerate() {
            rec.set_frame((ops * fx.paths.len() + t) as u32);
            let (frame, with_spans) = timed(|| one_thread(|| replica_frame(cfg, path, &rec)));
            let (_, without) = timed(|| one_thread(|| replica_frame(cfg, path, &off)));
            on_s.push(with_spans);
            off_s.push(without);
            attempted += 1;
            // Hard checks: the replica is the real frame, and its counts
            // repeat exactly from one pass to the next.
            let same_image = frame.exact.image_hash == fx.expect[t];
            let same_counts = first.get(t).is_none_or(|f| *f == frame.exact);
            if !(same_image && same_counts) {
                failed += 1;
                identical &= same_image;
                eprintln!(
                    "  replica frame {t} of pass {ops}: image identical {same_image}, counts repeat {same_counts}"
                );
            }
            if ops == 0 {
                first.push(frame.exact);
            }
            let mean = frame.block_s.iter().sum::<f64>() / frame.block_s.len() as f64;
            block_ratio.push(frame.block_s.iter().fold(0.0, |m: f64, &s| m.max(s)) / mean);
        }
        let op = real_op(fx);
        attempted += op.identities.len() as u64;
        failed += fx.failed_frames(&op.identities) as u64;
        real.push(op);
        ops += 1;
    }

    let spans = rec.finish();
    let by_frame = spans::self_seconds_by_frame(&spans);
    let s = |name: &str| layer_s(&by_frame, name);
    let exact = &first[0];
    let of_real = |f: fn(&RealOp) -> f64| median(&real.iter().map(f).collect::<Vec<_>>());
    let wall = of_real(|r| r.wall_s);
    let on_path: Vec<(&str, f64)> = ON_PATH.iter().map(|n| (*n, s(n))).collect();
    let stage_sum = of_real(|r| r.timing.total());
    print_ledger(
        wall,
        Some(stage_sum),
        &on_path,
        fx.workload.is_rayon_frame(),
    );
    let on_path: f64 = on_path.iter().map(|l| l.1).sum();

    layers.set("formats.runs_plan_s", s("formats.runs_plan"));
    layers.set("formats.placed_runs", exact.placed_runs as f64);
    layers.set("formats.decode_s", s("formats.decode"));
    layers.set("pfs.plan_s", s("pfs.plan"));
    layers.set("pfs.read_s", s("pfs.read"));
    layers.set("pfs.physical_bytes", exact.physical_bytes as f64);
    layers.set("pfs.useful_bytes", exact.useful_bytes as f64);
    layers.set(
        "pfs.data_density",
        ratio(exact.useful_bytes as f64, exact.physical_bytes as f64),
    );
    layers.set("pfs.accesses", exact.accesses as f64);
    layers.set("pfs.exchange_bytes", exact.exchange_bytes as f64);
    layers.set(
        "pfs.physical_mb_per_s",
        ratio(exact.physical_bytes as f64 / 1e6, s("pfs.read")),
    );
    layers.set(
        "pfs.useful_mb_per_s",
        ratio(exact.useful_bytes as f64 / 1e6, s("pfs.read")),
    );
    layers.set("volume.macrocell_build_s", s("volume.macrocell_build"));
    layers.set(
        "volume.macrocell_mvox_per_s",
        ratio(exact.voxels as f64 / 1e6, s("volume.macrocell_build")),
    );
    let r = &exact.render;
    layers.set("render.block_s", s("render.block"));
    layers.set("render.block_max_over_mean", median(&block_ratio));
    layers.set("render.samples", r.samples as f64);
    layers.set(
        "render.skipped_frac",
        ratio(r.skipped_samples as f64, r.samples as f64),
    );
    layers.set("render.rays", r.rays as f64);
    layers.set("render.packets", r.packets as f64);
    layers.set("render.lane_util", r.lane_utilization().unwrap_or(0.0));
    layers.set("render.terminated_rays", r.terminated_rays as f64);
    layers.set(
        "render.eval_msamples_per_s",
        ratio(
            (r.samples - r.skipped_samples) as f64 / 1e6,
            s("render.block"),
        ),
    );
    layers.set(
        "render.ns_per_ray",
        ratio(s("render.block") * 1e9, r.rays as f64),
    );
    let c = &exact.composite;
    layers.set("compositing.schedule_s", s("compositing.schedule"));
    layers.set("compositing.blend_s", s("compositing.blend"));
    layers.set("compositing.messages", c.messages as f64);
    layers.set("compositing.wire_bytes", c.bytes as f64);
    layers.set("compositing.dense_bytes", c.dense_bytes as f64);
    layers.set(
        "compositing.sparse_msg_frac",
        ratio(c.sparse_messages as f64, c.messages as f64),
    );
    layers.set(
        "compositing.mpixels_per_s",
        ratio(
            c.dense_bytes as f64 / pvr_compositing::WIRE_BYTES_PER_PIXEL as f64 / 1e6,
            s("compositing.blend"),
        ),
    );
    layers.set("core.io_s", of_real(|r| r.timing.io));
    layers.set("core.render_s", of_real(|r| r.timing.render));
    layers.set("core.composite_s", of_real(|r| r.timing.composite));
    layers.set("core.stage_sum_over_wall", stage_sum / wall);
    layers.set("core.layers_over_wall", on_path / wall);
    layers.set("core.glue_s", wall - on_path);
    layers.set("core.io_hidden_frac", of_real(|r| r.io_hidden_frac));
    layers.set("bench.replica_bit_identical", identical as u8 as f64);
    layers.set(
        "bench.span_overhead_frac",
        median(&on_s) / median(&off_s) - 1.0,
    );

    if let Some(sim) = real.last().and_then(|r| r.sim) {
        layers.set("mpisim.polls", sim.polls as f64);
        layers.set("mpisim.messages", sim.messages as f64);
        layers.set("mpisim.timer_fires", sim.timer_fires as f64);
        layers.set("mpisim.peak_resident", sim.peak_resident as f64);
        let same = real.iter().all(|r| {
            r.sim.is_some_and(|o| {
                (o.messages, o.timer_fires, o.peak_resident)
                    == (sim.messages, sim.timer_fires, sim.peak_resident)
            })
        });
        if !same {
            failed += 1;
            eprintln!("  event-core counts differ between frames of one seed");
        }
        event_core_microbench(cfg.nprocs, cfg.compositors(), layers);
    }
    if fx.workload.is_rayon_frame() {
        tracing_overhead(cfg, &fx.paths[0], layers);
        thread_scaling(cfg, &fx.paths[0], nproc_threads(), layers);
    }
    Traced {
        attempted,
        failed,
        spans,
    }
}

/// The capacity-planning path: the model's three priced stages, and the
/// flow simulator on the flows the composite stage hands it.
fn model_pass(fx: &Fixture, seconds: f64, layers: &mut Layers) -> Traced {
    let cfg = &fx.cfg;
    let pm = PerfModel::default();
    let rec = Recorder::new(true);
    let started = Instant::now();
    let mut real_s = Vec::new();
    let (mut attempted, mut failed, mut identical) = (0u64, 0u64, true);
    let mut first: Option<(usize, u64, u64)> = None;
    let footprints = model_footprints(cfg);
    let partition = ImagePartition::new(cfg.image.0, cfg.image.1, cfg.compositors());

    let mut ops = 0;
    while another_pass(ops, started, seconds) {
        rec.set_frame(ops as u32);
        let (schedule, total_s, fluid_s) = rec.span("frame", || {
            let io = rec.span("core.perfmodel_io", || pm.simulate_io(cfg));
            let (render_s, _) = pm.simulate_render(cfg);
            let schedule = rec.span("core.perfmodel_schedule", || pm.schedule_for(cfg));
            let composite = rec.span("core.perfmodel_composite", || {
                pm.simulate_composite(cfg, &schedule)
            });
            (
                schedule,
                io.seconds + render_s + composite.seconds,
                composite.fluid_seconds,
            )
        });
        let report = flow_phase(cfg, &pm, &schedule, &rec);
        rec.span("compositing.schedule", || {
            std::hint::black_box(build_schedule(&footprints, partition));
        });
        attempted += 1;
        // The replica prices the frame the model prices, and its flow
        // phase is the one inside the composite stage.
        let counts = (
            report.messages,
            report.net_makespan.to_bits(),
            total_s.to_bits(),
        );
        let same_frame = total_s.to_bits() == fx.expect[0];
        identical &= same_frame && report.net_makespan.to_bits() == fluid_s.to_bits();
        if !same_frame || first.is_some_and(|f| f != counts) {
            failed += 1;
            eprintln!("  model replica {ops}: simulated seconds differ from the real call");
        }
        first.get_or_insert(counts);

        let (d, s) = timed(|| fx.run_op());
        attempted += 1;
        failed += fx.failed_frames(&d.identities()) as u64;
        real_s.push(s);
        ops += 1;
    }

    let spans = rec.finish();
    let by_frame = spans::self_seconds_by_frame(&spans);
    let s = |name: &str| layer_s(&by_frame, name);
    let (flows, makespan_bits, total_bits) = first.expect("at least one model frame ran");
    let wall = median(&real_s);
    let on_path: Vec<(&str, f64)> = MODEL_ON_PATH.iter().map(|n| (*n, s(n))).collect();
    print_ledger(wall, None, &on_path, true);
    eprintln!(
        "    bgp.flowsim (the flow phase alone) {:.6} s {:.1} %",
        s("bgp.flowsim"),
        100.0 * s("bgp.flowsim") / wall
    );
    let on_path: f64 = on_path.iter().map(|l| l.1).sum();
    layers.set("compositing.schedule_s", s("compositing.schedule"));
    layers.set("bgp.flowsim_s", s("bgp.flowsim"));
    layers.set("bgp.flows", flows as f64);
    layers.set("bgp.flows_per_s", ratio(flows as f64, s("bgp.flowsim")));
    layers.set("bgp.net_makespan_s", f64::from_bits(makespan_bits));
    layers.set("core.perfmodel_io_s", s("core.perfmodel_io"));
    layers.set("core.perfmodel_schedule_s", s("core.perfmodel_schedule"));
    layers.set("core.sim_total_s", f64::from_bits(total_bits));
    layers.set("core.layers_over_wall", on_path / wall);
    layers.set("core.glue_s", wall - on_path);
    layers.set("bench.replica_bit_identical", identical as u8 as f64);
    Traced {
        attempted,
        failed,
        spans,
    }
}

fn model_footprints(cfg: &FrameConfig) -> Vec<PixelRect> {
    let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    BlockDecomposition::new(cfg.grid, cfg.nprocs)
        .blocks()
        .iter()
        .map(|b| footprint(&camera, b.sub.offset, b.sub.end(), cfg.image))
        .collect()
}

/// Run the flow simulator on the composite stage's flows: the
/// schedule's messages between the torus nodes of renderer and
/// compositor, sizes on the model's 10 % geometric grid.
fn flow_phase(
    cfg: &FrameConfig,
    pm: &PerfModel,
    schedule: &Schedule,
    rec: &Recorder,
) -> pvr_bgp::SimReport {
    let machine = Machine::new(MachineConfig::vn(cfg.nprocs));
    let (n, m) = (cfg.nprocs, schedule.partition.m());
    let specs: Vec<FlowSpec> = schedule
        .messages
        .iter()
        .map(|msg| {
            let bytes = msg.wire_bytes();
            let quantized = if bytes > 16 {
                let k = (bytes as f64).ln() / 1.1f64.ln();
                1.1f64.powf(k.round()) as u64
            } else {
                bytes
            };
            FlowSpec::new(
                machine.node_of_rank(msg.renderer),
                machine.node_of_rank(compositor_rank(msg.compositor, n, m)),
                quantized,
            )
        })
        .collect();
    rec.span("bgp.flowsim", || {
        FlowSim::with_params(machine.torus(), pm.net).run(&specs)
    })
}

type BoxFut<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

/// The event core alone: `n` ranks that only meet at a barrier, and a
/// direct-send-shaped exchange in which every rank feeds
/// [`EXCHANGE_FANOUT`] of `m` compositors per round.
fn event_core_microbench(n: usize, m: usize, layers: &mut Layers) {
    let opts = || RunOptions::default().with_timeout(None);
    let world_s: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                World::run_opts(n, opts(), |comm: Comm| -> BoxFut<()> {
                    Box::pin(async move { comm.barrier().await })
                })
                .expect("a barrier cannot deadlock")
            })
            .1
        })
        .collect();
    layers.set("mpisim.world_s", median(&world_s));

    let per_compositor = n * EXCHANGE_FANOUT / m;
    assert_eq!(per_compositor * m, n * EXCHANGE_FANOUT, "fan-in is uniform");
    let mut exchange_s = Vec::new();
    let mut events = 0;
    for _ in 0..3 {
        let (out, secs) = timed(|| {
            World::run_opts(n, opts(), move |mut comm: Comm| -> BoxFut<u64> {
                Box::pin(async move {
                    let me = comm.rank();
                    let mut sum = 0u64;
                    for round in 0..EXCHANGE_ROUNDS {
                        let tag = round as u32 + 1;
                        for j in 0..EXCHANGE_FANOUT {
                            comm.send((me + j) % m, tag, vec![me as u8; EXCHANGE_BYTES])
                                .await;
                        }
                        if me < m {
                            for _ in 0..per_compositor {
                                let (_, data) = comm.recv_any(tag).await;
                                sum += data.len() as u64;
                            }
                        }
                        comm.barrier().await;
                    }
                    sum
                })
            })
            .expect("the exchange cannot deadlock")
        });
        let received: u64 = out.results.iter().sum();
        assert_eq!(
            received,
            (n * EXCHANGE_FANOUT * EXCHANGE_ROUNDS * EXCHANGE_BYTES) as u64,
            "every fragment arrived"
        );
        let sim = out.sim.expect("the event core reports its counters");
        events = sim.polls + sim.messages + sim.timer_fires;
        exchange_s.push(secs);
    }
    let secs = median(&exchange_s);
    layers.set("mpisim.exchange_s", secs);
    layers.set("mpisim.events_per_s", events as f64 / secs);
}

/// What the repository's own span tracer costs a frame:
/// `run_frame_traced` with a wall-clock tracer against a disabled one,
/// in interleaved pairs.
fn tracing_overhead(cfg: &FrameConfig, path: &Path, layers: &mut Layers) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut profile = None;
    for _ in 0..OBS_PAIRS {
        let disabled = Tracer::disabled();
        off.push(timed(|| one_thread(|| run_frame_traced(cfg, Some(path), &disabled))).1);
        let tracer = Tracer::wall();
        on.push(timed(|| one_thread(|| run_frame_traced(cfg, Some(path), &tracer))).1);
        profile = Some(tracer.finish());
    }
    let profile = profile.expect("at least one traced frame ran");
    let opened = profile
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .count();
    let (json, export_s) = timed(|| perfetto::to_json(&profile));
    std::hint::black_box(json);
    layers.set("obs.trace_overhead_frac", median(&on) / median(&off) - 1.0);
    layers.set("obs.spans_per_frame", opened as f64);
    layers.set("obs.export_s", export_s);
}

/// Worker threads of the scaling measurement: every core, up to four.
fn nproc_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Parallel efficiency of the data-parallel stages: two frames each at
/// one and at `threads` workers, interleaved; Σt₁ / Σt_N / N. With one
/// core there is no parallel speed-up to report.
fn thread_scaling(cfg: &FrameConfig, path: &Path, threads: usize, layers: &mut Layers) {
    if threads < 2 {
        return;
    }
    let (mut t1, mut tn) = (0.0, 0.0);
    for _ in 0..2 {
        t1 += timed(|| with_threads(1, || run_frame(cfg, Some(path)))).1;
        tn += timed(|| with_threads(threads, || run_frame(cfg, Some(path)))).1;
    }
    layers.set("shim-rayon.scaling_eff", t1 / tn / threads as f64);
    layers.set("shim-rayon.threads", threads as f64);
}
