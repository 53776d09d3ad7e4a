//! The frozen benchmark's imports, pinned where tier-1 sees them.
//!
//! `benchmark/` is a package of its own that no later change may edit,
//! so a rename or signature change of anything it imports would only
//! show up when the ledger is next built. This test names every item
//! under *API surface* in `benchmark/README.md` with the signature the
//! benchmark calls it by; it checks types, not behaviour — if it
//! compiles, the benchmark's imports resolve.

// The signatures are the point: spelled out, not aliased.
#![allow(clippy::type_complexity)]

use std::fs::File;
use std::path::{Path, PathBuf};

use parallel_volume_rendering::bgp::{FlowSim, FlowSpec, Machine, MachineConfig, SimReport};
use parallel_volume_rendering::compositing::directsend::DirectSendStats;
use parallel_volume_rendering::compositing::{
    build_schedule, composite_direct_send, ImagePartition, Schedule, WIRE_BYTES_PER_PIXEL,
};
use parallel_volume_rendering::core::pipeline::{
    default_view, render_opts, run_frame_mpi_sim, transfer_for,
};
use parallel_volume_rendering::core::{
    compositor_rank, laptop_aggregators, run_animation, run_frame, run_frame_mpi, run_frame_traced,
    write_animation, write_dataset, AnimOptions, AnimResult, CompositorPolicy, FrameConfig,
    FrameResult, FrameTiming, IoMode, PerfModel,
};
use parallel_volume_rendering::formats::layout::FileLayout;
use parallel_volume_rendering::formats::{read_subvolume, Endian, Subvolume};
use parallel_volume_rendering::mpisim::{Comm, RunOptions, SimStats, World};
use parallel_volume_rendering::obs::perfetto::{to_json, validate};
use parallel_volume_rendering::obs::span::{EventKind, SpanEvent};
use parallel_volume_rendering::obs::{Args, Profile, Tracer};
use parallel_volume_rendering::pfs::twophase::{
    two_phase_execute, ExecResult, IoPlan, RankRequest, ScatterPlan,
};
use parallel_volume_rendering::pfs::CollectiveHints;
use parallel_volume_rendering::render::image::SubImage;
use parallel_volume_rendering::render::math::Vec3;
use parallel_volume_rendering::render::raycast::{
    footprint, render_block_with_grid, render_serial, BlockDomain, RenderOpts, RenderStats,
};
use parallel_volume_rendering::render::{Camera, Image, PixelRect, TransferFunction};
use parallel_volume_rendering::volume::{BlockDecomposition, MacrocellGrid, Volume};

#[test]
fn core_entry_points_keep_their_signatures() {
    let _: fn(&FrameConfig, Option<&Path>) -> FrameResult = run_frame;
    let _: fn(&FrameConfig, Option<&Path>, &Tracer) -> FrameResult = run_frame_traced;
    let _: fn(&FrameConfig, &Path) -> FrameResult = run_frame_mpi;
    // The benchmark `expect`s the result: any `Debug` error type does.
    fn sim_frame<E: std::fmt::Debug>(
        _: fn(&FrameConfig, &Path, RunOptions) -> Result<(FrameResult, Option<SimStats>), E>,
    ) {
    }
    sim_frame(run_frame_mpi_sim);
    fn animation<E: std::fmt::Debug>(
        _: fn(&FrameConfig, &[PathBuf], &AnimOptions) -> Result<AnimResult, E>,
    ) {
    }
    animation(run_animation);
    let _: fn(&Path, &FrameConfig) -> std::io::Result<u64> = write_dataset;
    let _: fn(&Path, &FrameConfig, usize) -> std::io::Result<Vec<PathBuf>> = write_animation;
    let _: fn(usize, usize, usize) -> usize = compositor_rank;
    let _: fn(usize) -> usize = laptop_aggregators;
    let _: fn() -> Vec3 = default_view;
    let _: fn(&FrameConfig) -> RenderOpts = render_opts;
    let _: fn(&FrameConfig) -> TransferFunction = transfer_for;
    let _: fn() -> AnimOptions = AnimOptions::rayon;
    let _: fn(AnimOptions, usize, usize) -> AnimOptions = AnimOptions::pools;
    let _: fn(AnimOptions, f64) -> AnimOptions = AnimOptions::throttled;
}

#[test]
fn core_types_keep_their_fields_and_methods() {
    let _: fn(usize, usize, usize) -> FrameConfig = FrameConfig::small;
    let _: fn(usize) -> FrameConfig = FrameConfig::paper_1120;
    let _: fn(&FrameConfig) -> usize = FrameConfig::compositors;
    let _: fn(&FrameConfig) -> usize = FrameConfig::file_variable;
    let cfg = FrameConfig {
        grid: [8, 8, 8],
        image: (8, 8),
        nprocs: 2,
        io: IoMode::Raw,
        policy: CompositorPolicy::Fixed(1),
        variable: 0,
        step: 1.0,
        seed: 1,
        shading: false,
        fast_path: true,
        ..FrameConfig::small(8, 8, 2)
    };
    assert_eq!(cfg.compositors(), 1);
    let _ = CompositorPolicy::Improved;

    let _: fn(IoMode, [usize; 3]) -> Box<dyn FileLayout> = IoMode::layout;
    let _: fn(IoMode, [usize; 3]) -> CollectiveHints = IoMode::hints;

    let model = PerfModel::default();
    let _ = model.net;
    let _ = PerfModel::simulate_io;
    let _: fn(&PerfModel, &FrameConfig) -> (f64, f64) = PerfModel::simulate_render;
    let _: fn(&PerfModel, &FrameConfig) -> Schedule = PerfModel::schedule_for;
    let _ = PerfModel::simulate_composite;
    let _ = |m: &PerfModel, c: &FrameConfig| -> f64 { m.simulate(c).timing.total() };

    let _ = |r: FrameResult| -> (Image, FrameTiming) { (r.image, r.timing) };
    let _ = |t: &FrameTiming| -> [f64; 4] { [t.io, t.render, t.composite, t.wall] };
    let _ = |a: AnimResult| -> (f64, f64, Vec<Image>) {
        let hidden = a.io_hidden_fraction();
        (
            a.wall,
            hidden,
            a.frames.into_iter().map(|f| f.result.image).collect(),
        )
    };
}

#[test]
fn pfs_and_formats_keep_their_signatures() {
    let _: fn(&mut File, &[RankRequest], usize, &CollectiveHints) -> std::io::Result<ExecResult> =
        two_phase_execute;
    let _: fn(&[RankRequest], usize, &CollectiveHints) -> ScatterPlan = ScatterPlan::build;
    let _ =
        |r: ExecResult| -> (Vec<Vec<u8>>, IoPlan, u64) { (r.rank_bytes, r.plan, r.exchange_bytes) };
    let _ =
        |p: &IoPlan| -> (u64, u64, usize) { (p.physical_bytes, p.useful_bytes, p.accesses.len()) };
    let _ = |sub: &Subvolume| -> RankRequest {
        RankRequest {
            runs: Vec::new(),
            out_elems: sub.num_elements(),
        }
    };
    let _: fn(&mut File, &dyn FileLayout, usize, &Subvolume) -> std::io::Result<Vec<f32>> =
        read_subvolume;
    let _ = |l: &dyn FileLayout, var: usize, sub: &Subvolume| -> (bool, usize) {
        let mut runs = Vec::new();
        l.placed_runs(var, sub, &mut |r| runs.push(r));
        (l.collective(), runs.len())
    };
    let _ = |l: &dyn FileLayout| -> Endian { l.endian() };
    let _: fn(Endian, [u8; 4]) -> f32 = Endian::decode;
}

#[test]
fn volume_render_and_compositing_keep_their_signatures() {
    let _: fn([usize; 3], usize) -> BlockDecomposition = BlockDecomposition::new;
    let _ = |d: &BlockDecomposition, ghost: usize| -> Vec<(Subvolume, Subvolume)> {
        let blocks = d.blocks();
        blocks
            .iter()
            .map(|b| (b.sub, d.with_ghost(b, ghost)))
            .collect()
    };
    let _: fn([usize; 3], Vec<f32>) -> Volume = Volume::from_data;
    let _: fn(&Volume) -> MacrocellGrid = MacrocellGrid::build;

    let _: fn([usize; 3], Vec3, usize, usize) -> Camera = Camera::orthographic;
    let _: fn(&Camera, [usize; 3], [usize; 3], (usize, usize)) -> PixelRect = footprint;
    let _: fn(
        &Volume,
        Option<&MacrocellGrid>,
        &BlockDomain,
        &Camera,
        &TransferFunction,
        &RenderOpts,
    ) -> (SubImage, RenderStats) = render_block_with_grid;
    let _: fn(&Volume, &Camera, &TransferFunction, &RenderOpts) -> (Image, RenderStats) =
        render_serial;
    let _ = |grid: [usize; 3], owned: Subvolume, stored: Subvolume| BlockDomain {
        grid,
        owned,
        stored,
    };
    let _: fn(&mut RenderStats, &RenderStats) = RenderStats::merge;
    let _ = |s: &RenderStats| -> [u64; 7] {
        [
            s.samples,
            s.skipped_samples,
            s.rays,
            s.packets,
            s.packet_eval_lanes,
            s.packet_eval_slots,
            s.terminated_rays,
        ]
    };

    let _: fn(usize, usize, usize) -> ImagePartition = ImagePartition::new;
    let _: fn(&[SubImage], ImagePartition) -> (Image, DirectSendStats) = composite_direct_send;
    let _: fn(&[PixelRect], ImagePartition) -> Schedule = build_schedule;
    let _: u64 = WIRE_BYTES_PER_PIXEL;
    let _ = |s: &DirectSendStats| -> (usize, u64, u64, usize) {
        (s.messages, s.bytes, s.dense_bytes, s.sparse_messages)
    };
}

#[test]
fn runtime_model_and_obs_keep_their_signatures() {
    let _ = |n: usize, opts: RunOptions| {
        World::run_opts(n, opts, |comm: Comm| async move {
            comm.barrier().await;
            comm.rank()
        })
        .map(|out| out.sim)
    };
    let _ =
        |s: &SimStats| -> [u64; 4] { [s.polls, s.messages, s.timer_fires, s.peak_resident as u64] };

    let _ = |n: usize, specs: &[FlowSpec], pm: &PerfModel| -> SimReport {
        let machine = Machine::new(MachineConfig::vn(n));
        FlowSim::with_params(machine.torus(), pm.net).run(specs)
    };

    let _: fn() -> Tracer = Tracer::wall;
    let _: fn() -> Tracer = Tracer::disabled;
    let _: fn(&Tracer) -> Profile = Tracer::finish;
    let _: fn(&Profile) -> String = to_json;
    let _ = |json: &str| validate(json).is_ok();
    let _: fn(&'static str, u64) -> Args = Args::one;
    let _ = |name: &'static str, ts: u64| SpanEvent {
        track: 0,
        name,
        kind: EventKind::Begin,
        ts,
        args: Args::one("frame", 0),
    };
    let _ = EventKind::End;
    let _: fn(Vec<(u32, String)>, Vec<SpanEvent>) -> Profile = Profile::from_parts;

    let _ = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map(|pool| pool.install(|| 0))
    };
}
