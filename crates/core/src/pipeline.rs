//! Real end-to-end execution at laptop scale.
//!
//! Two executors share every algorithmic component:
//!
//! * [`run_frame`] — data-parallel (rayon): ranks are logical; the
//!   two-phase collective read hits a real file, blocks render in
//!   parallel, direct-send compositing reduces the subimages.
//! * [`run_frame_mpi`] — message-passing (`pvr-mpisim`): ranks are
//!   tasks on the single-threaded event core, exchanging real byte
//!   messages for both the I/O scatter phase and the compositing
//!   fragments. Produces a bit-identical
//!   image to [`run_frame`] (asserted by integration tests), because
//!   both blend the same fragments in the same visibility order.
//!
//! Both are one-line configurations of [`drive_frame`], the frame API
//! in [`crate::scheduler`] (tracing, the flight recorder and — on the
//! message-passing executor — a fault plan are [`Driver`] modifiers); this module keeps the shared building blocks
//! (dataset synthesis, the message codecs around
//! `pvr_compositing::wire`'s fragment format, tags) and `FilePlan`, the
//! one plan of a frame's read: both executors read through it, and
//! both report its I/O statistics.
//! The frame's geometry lives in [`crate::scheduler::FrameShared`].

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use rayon::prelude::*;

use pvr_compositing::directsend::DirectSendStats;
use pvr_compositing::sparse::PieceScan;
use pvr_compositing::wire::{encode_fragment, push_words, with_header, Words};
use pvr_compositing::WireFragment;
use pvr_formats::extent::Extent;
use pvr_formats::layout::{FileLayout, PlacedRun};
use pvr_formats::rw::write_file;
use pvr_formats::{Endian, Subvolume, ELEM_SIZE};
use pvr_obs::Tracer;
use pvr_pfs::sieve::per_extent_plan;
use pvr_pfs::twophase::{decode_scatter, Access, ScatterPlan};
use pvr_pfs::IoThrottle;
use pvr_render::image::{Image, PixelRect, SubImage};
use pvr_render::math::Vec3;
use pvr_render::raycast::{RenderOpts, RenderStats, Shading};
use pvr_render::TransferFunction;
use pvr_volume::{voxel_centre, SupernovaField, Volume};

use crate::config::{FrameConfig, IoMode};
use crate::scheduler::{drive_frame, Driver, FrameShared};
use crate::timing::FrameTiming;

/// The default viewing direction for all experiments: a mildly oblique
/// orthographic view so block footprints genuinely straddle compositor
/// tiles (an exactly axis-aligned view would make footprints align with
/// tile boundaries and understate message counts).
pub fn default_view() -> Vec3 {
    Vec3::new(0.25, -0.2, -0.95)
}

/// I/O statistics of one real frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRunStats {
    pub useful_bytes: u64,
    pub physical_bytes: u64,
    pub accesses: usize,
    pub exchange_bytes: u64,
    /// useful / physical — the paper's data density.
    pub data_density: f64,
    /// Storage retries against faulted servers (fault-tolerant path).
    pub retries: u64,
    /// Extra bytes read from stripe replicas after primary failures.
    pub failover_bytes: u64,
    /// Requested bytes no server could provide (zero-filled in the
    /// output buffers).
    pub unrecovered_bytes: u64,
}

impl Default for IoRunStats {
    fn default() -> Self {
        IoRunStats {
            useful_bytes: 0,
            physical_bytes: 0,
            accesses: 0,
            exchange_bytes: 0,
            data_density: 1.0,
            retries: 0,
            failover_bytes: 0,
            unrecovered_bytes: 0,
        }
    }
}

/// Everything a real frame produces.
#[derive(Debug)]
pub struct FrameResult {
    pub image: Image,
    pub timing: FrameTiming,
    pub io: IoRunStats,
    /// Total scalar samples taken during rendering.
    pub render_samples: u64,
    /// Samples proven zero-opacity by the macrocell/LUT fast path and
    /// skipped without evaluation (a subset of `render_samples`; 0 when
    /// `fast_path` is off, and 0 from every block the kernel rule sends
    /// to the reference loop, DESIGN §17.7).
    pub render_skipped: u64,
    /// Eight-wide ray packets marched across all ranks (0 when
    /// `fast_path` is off and from blocks the kernel rule sends to the
    /// reference loop; tiles marched one lane at a time do not count).
    pub render_packets: u64,
    /// Lockstep lane-utilization counters summed over ranks: lanes that
    /// evaluated a sample / lane slots in rounds with at least one
    /// evaluating lane. See [`pvr_render::raycast::RenderStats`].
    pub render_eval_lanes: u64,
    pub render_eval_slots: u64,
    /// Rays whose accumulation terminated early (saturation gates).
    pub render_terminated: u64,
    /// Max over ranks of the conservative per-pixel, per-channel error
    /// bound introduced by [`pvr_render::raycast::Termination::Bounded`]
    /// (exactly `0.0` under `Off` and `Bitwise`).
    pub render_error_bound: f64,
    pub composite: DirectSendStats,
}

impl FrameResult {
    /// A frame from its parts; the render counters come from the
    /// kernel statistics merged over all ranks.
    pub(crate) fn new(
        image: Image,
        timing: FrameTiming,
        io: IoRunStats,
        render: &RenderStats,
        composite: DirectSendStats,
    ) -> FrameResult {
        FrameResult {
            image,
            timing,
            io,
            render_samples: render.samples,
            render_skipped: render.skipped_samples,
            render_packets: render.packets,
            render_eval_lanes: render.packet_eval_lanes,
            render_eval_slots: render.packet_eval_slots,
            render_terminated: render.terminated_rays,
            render_error_bound: render.error_bound as f64,
            composite,
        }
    }

    /// Fraction of lockstep lane slots that evaluated a sample, over
    /// the whole frame (`None` when the packet kernel never ran).
    pub fn lane_utilization(&self) -> Option<f64> {
        (self.render_eval_slots > 0)
            .then(|| self.render_eval_lanes as f64 / self.render_eval_slots as f64)
    }
}

/// Why [`drive_frame`] did not produce a frame. A frame that loses
/// content to faults is not an error: it completes, and its
/// [`crate::scheduler::DriveOutput::completeness`] says what is missing.
#[derive(Debug)]
pub enum FrameError {
    /// The message-passing world itself failed (deadlock report or
    /// watchdog stall) — with or without a fault plan this indicates a
    /// bug, and the recovery proptests assert it never happens.
    Runtime(pvr_mpisim::RunError),
    /// The dataset could not be opened or read in full — or, with kind
    /// `InvalidInput` and an empty path, the request cannot run at all
    /// (a message-passing frame without a dataset, a fault plan on the
    /// data-parallel executor).
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
}

impl FrameError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> FrameError {
        FrameError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    /// A frame request refused before anything runs: an `InvalidInput`
    /// error whose message names the fix.
    pub(crate) fn invalid_input(what: &str) -> FrameError {
        let source = std::io::Error::new(std::io::ErrorKind::InvalidInput, what);
        FrameError::io(Path::new(""), source)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Runtime(e) => write!(f, "runtime failure: {e}"),
            FrameError::Io { path, source } => {
                write!(f, "reading dataset {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Materialize the synthetic supernova dataset at `cfg.grid` resolution
/// in the on-disk format of `cfg.io`. Each slab is filled on the ambient
/// rayon pool a row at a time ([`SupernovaField::sample_row`]), every
/// variable of a voxel from one evaluation of the field's shared terms.
/// Returns bytes written.
pub fn write_dataset(path: &Path, cfg: &FrameConfig) -> std::io::Result<u64> {
    let layout = cfg.io.layout(cfg.grid);
    let field = SupernovaField::new(cfg.seed);
    let [nx, ny, nz] = cfg.grid;
    let nvars = layout.num_vars();
    // Raw mode stores the render variable extracted offline; the
    // multivariate formats store all five VH-1 variables.
    let only = (cfg.io == IoMode::Raw).then_some(cfg.variable);
    write_file(path, layout.as_ref(), |slab, values| {
        values
            .par_chunks_mut(nx * nvars)
            .enumerate()
            .for_each(|(row, out)| {
                let py = voxel_centre(row % ny, ny);
                let pz = voxel_centre(slab.offset[2] + row / ny, nz);
                field.sample_row(only, 0, nx, py, pz, out);
            });
    })
}

/// Decode a rank's raw bytes (on-disk order per placed runs) into a
/// volume over its stored region.
pub(crate) fn decode_volume(bytes: &[u8], sub: &Subvolume, endian: Endian) -> Volume {
    let mut data = vec![0.0f32; sub.num_elements()];
    endian.decode_slice(bytes, &mut data);
    Volume::from_data(sub.shape, data)
}

/// Run one frame for real (rayon executor). When `path` is `None`, the
/// I/O stage synthesizes block data procedurally instead of reading a
/// file (useful for render/composite-only experiments; I/O stats are
/// then zero). Panics, naming the file, when the dataset cannot be read;
/// [`drive_frame`] returns that as [`FrameError::Io`].
pub fn run_frame(cfg: &FrameConfig, path: Option<&Path>) -> FrameResult {
    run_frame_traced(cfg, path, &Tracer::disabled())
}

/// [`run_frame`] with wall-clock span tracing. Track `r` is logical
/// rank `r`; the driver's stage structure (`frame` > `io` / `render` /
/// `composite`) lands on track 0, per-window `io.window` spans on the
/// aggregator tracks, per-block `render.block` spans on each renderer's
/// track, and per-tile `composite.tile` spans on each compositor's
/// track. Collect the result with [`Tracer::finish`] and export with
/// [`pvr_obs::perfetto::to_json`]. A disabled tracer makes this
/// identical to [`run_frame`].
pub fn run_frame_traced(cfg: &FrameConfig, path: Option<&Path>, tracer: &Tracer) -> FrameResult {
    match drive_frame(cfg, path, Driver::rayon().traced(tracer)) {
        Ok(out) => out.frame,
        Err(e) => panic!("{e}"),
    }
}

/// Render options for a config.
pub fn render_opts(cfg: &FrameConfig) -> RenderOpts {
    RenderOpts {
        step: cfg.step,
        shading: cfg.shading.then(Shading::default),
        fast_path: cfg.fast_path,
        termination: cfg.termination,
    }
}

/// The transfer function for a config's variable.
pub fn transfer_for(cfg: &FrameConfig) -> TransferFunction {
    match cfg.variable {
        0 | 1 => TransferFunction::hot_density(),
        _ => TransferFunction::supernova_velocity(),
    }
}

pub(crate) fn synthesize_stage(cfg: &FrameConfig, stored: &[Subvolume]) -> Vec<Volume> {
    let field = SupernovaField::new(cfg.seed).variable(cfg.variable);
    stored
        .par_iter()
        .map(|sub| Volume::from_field_window(&field, cfg.grid, sub.offset, sub.shape))
        .collect()
}

/// How a frame's ranks read their blocks out of one dataset file: the
/// one place in this crate where a [`FrameConfig`] becomes a read. It
/// decides the layout, the variable, the byte order, the collective
/// hints and the aggregator count ([`FrameConfig::aggregators`]), and
/// holds the plan those give and what that plan reads. Built once per
/// file-backed frame by [`drive_frame`] and once per animation by
/// [`crate::anim::run_animation`], on both executors; the data-parallel
/// read ([`FilePlan::read`], also the animation's prefetch), the
/// message-passing scatter, a rank's independent read and every re-read
/// of a block go through it, and both executors report its
/// [`FilePlan::io`].
pub(crate) struct FilePlan {
    /// The file's layout and the variable the frame reads: a rank's
    /// placed runs are visited from them where a block is read
    /// ([`FilePlan::runs`]), so no per-rank copy of them is kept.
    layout: Box<dyn FileLayout>,
    var: usize,
    pub(crate) endian: Endian,
    /// Two-phase scatter plan (collective layouts only), which holds
    /// every rank's runs once, built from the lattice in file order.
    pub(crate) scatter: Option<ScatterPlan>,
    /// What the planned read moves: useful and physical bytes, accesses,
    /// data density and exchange bytes. The fault counters are zero; a
    /// faulted frame adds its own.
    pub(crate) io: IoRunStats,
}

impl FilePlan {
    pub(crate) fn new(cfg: &FrameConfig, shared: &FrameShared) -> FilePlan {
        let layout = cfg.io.layout(cfg.grid);
        let var = cfg.file_variable();
        let (scatter, io) = if layout.collective() {
            let (lattice, hints) = (&shared.lattice, cfg.io.hints(cfg.grid));
            let sp =
                ScatterPlan::from_lattice(layout.as_ref(), var, lattice, cfg.aggregators(), &hints);
            let io = IoRunStats {
                useful_bytes: sp.plan.useful_bytes,
                physical_bytes: sp.plan.physical_bytes,
                accesses: sp.plan.accesses.len(),
                exchange_bytes: sp.exchange_bytes,
                data_density: sp.plan.data_density(),
                ..IoRunStats::default()
            };
            (Some(sp), io)
        } else {
            // Independent reads: every rank fetches its own chunk runs,
            // and its runs tile its block ([`FilePlan::runs`]).
            let per_process: Vec<Vec<Extent>> = shared
                .stored
                .iter()
                .map(|sub| layout.physical_extents(var, sub))
                .collect();
            let plan = per_extent_plan(&per_process);
            let elems: usize = shared.stored.iter().map(Subvolume::num_elements).sum();
            let useful = elems as u64 * ELEM_SIZE;
            let io = IoRunStats {
                useful_bytes: useful,
                physical_bytes: plan.physical_bytes,
                accesses: plan.accesses.len(),
                data_density: useful as f64 / plan.physical_bytes.max(1) as f64,
                ..IoRunStats::default()
            };
            (None, io)
        };
        FilePlan {
            endian: layout.endian(),
            layout,
            var,
            scatter,
            io,
        }
    }

    /// The window accesses rank `rank` of `nranks` hosts as an
    /// aggregator, in plan order: none for a rank that hosts no
    /// aggregator, and none under independent reads. The plan lists its
    /// accesses aggregator by aggregator, and aggregator `j` sits on rank
    /// `j · nranks / naggr`, one rank each, in ascending order.
    pub(crate) fn windows(&self, rank: usize, nranks: usize) -> &[Access] {
        let Some(sp) = &self.scatter else {
            return &[];
        };
        let host = |a: &Access| sp.aggregator_rank(a.aggregator, nranks);
        let accesses = &sp.plan.accesses;
        let lo = accesses.partition_point(|a| host(a) < rank);
        let len = accesses[lo..].partition_point(|a| host(a) == rank);
        &accesses[lo..lo + len]
    }

    /// Visit the placed runs of block `sub`, checking as they go by that
    /// they tile its output `[0, n)` in order, each starting where the
    /// one before it ended — as every layout places them — so that every
    /// element is in exactly one run. Checked without allocating: a
    /// sorted copy of the runs here left 3 of 10 ledger runs of
    /// `render-sparse` with a peak RSS 3 MB higher.
    pub(crate) fn runs(&self, sub: &Subvolume, f: &mut dyn FnMut(PlacedRun)) {
        const UNTILED: &str = "a rank's placed runs do not tile its block in output order";
        let mut at = 0;
        self.layout.placed_runs(self.var, sub, &mut |r| {
            assert_eq!(r.out_start, at, "{UNTILED}");
            at += r.elems;
            f(r);
        });
        assert_eq!(at, sub.num_elements(), "{UNTILED}");
    }

    /// Read the stored regions of `shared`'s blocks out of the dataset at
    /// `path` into one volume per rank — the data-parallel executor's
    /// one dataset reader, in the form a prefetch thread can hand to a
    /// later frame. Collective layouts go through the two-phase engine
    /// under the scatter plan, which decodes each window piece straight
    /// into its rank's volume (one `io.window` span per access on
    /// `tracer`); HDF5-style layouts read independently, every rank
    /// fetching and decoding its own runs with no coordination. An
    /// optional [`IoThrottle`] floors the read, decode included, at a
    /// bandwidth, making I/O genuinely expensive for pipelining
    /// experiments.
    pub(crate) fn read(
        &self,
        shared: &FrameShared,
        path: &Path,
        tracer: &Tracer,
        throttle: Option<IoThrottle>,
    ) -> std::io::Result<Vec<Volume>> {
        let (stored, endian) = (&shared.stored, self.endian);
        let t0 = Instant::now();

        // Both reads below write every element of a rank's buffer exactly
        // once ([`FilePlan::runs`]), which is what lets `volume_buffer`
        // skip the zero fill.
        let (volumes, throttled_bytes) = if let Some(sp) = &self.scatter {
            let f = File::open(path)?;
            let mut data: Vec<Vec<f32>> = stored
                .iter()
                .map(|sub| volume_buffer(sub.num_elements()))
                .collect();
            let runs_of = |rank: usize, f: &mut dyn FnMut(PlacedRun)| self.runs(&stored[rank], f);
            decode_scatter(&f, sp, &runs_of, endian, &mut data, tracer)?;
            let largest = sp.plan.accesses.iter().map(|a| a.extent.len).max();
            spare_volumes().budget = largest.unwrap_or(0) as usize;
            let volumes = data
                .into_iter()
                .zip(stored)
                .map(|(d, sub)| Volume::from_data(sub.shape, d))
                .collect();
            (volumes, self.io.physical_bytes)
        } else {
            spare_volumes().budget = 0;
            let per_rank: Vec<std::io::Result<Volume>> = stored
                .par_iter()
                .map(|sub| {
                    let f = File::open(path)?;
                    let mut data = volume_buffer(sub.num_elements());
                    let (mut buf, mut read) = (Vec::new(), Ok(()));
                    self.runs(sub, &mut |run| {
                        if read.is_ok() {
                            buf.resize(run.elems * ELEM_SIZE as usize, 0);
                            let out = &mut data[run.out_start..run.out_start + run.elems];
                            read = f
                                .read_exact_at(&mut buf, run.file_offset)
                                .map(|()| endian.decode_slice(&buf, out));
                        }
                    });
                    read.map(|()| Volume::from_data(sub.shape, data))
                })
                .collect();
            let volumes = per_rank.into_iter().collect::<std::io::Result<_>>()?;
            (volumes, self.io.useful_bytes)
        };
        if let Some(t) = throttle {
            t.pad(throttled_bytes, t0);
        }
        Ok(volumes)
    }
}

/// Voxel buffers of the last data-parallel frame, kept for the next
/// [`FilePlan::read`] on whichever thread reads next. Without them the
/// allocator may hand a frame's volumes back to the OS when the frame
/// ends, and the next frame pays a page fault for every page of its
/// volumes. They are kept only when they fit in the last collective
/// read's largest window: the memory the window-buffered read held in
/// every frame, which the streaming read gives back.
struct SpareVolumes {
    /// Bytes of the last collective read's largest window.
    budget: usize,
    buffers: Vec<Vec<f32>>,
}

static SPARE_VOLUMES: Mutex<SpareVolumes> = Mutex::new(SpareVolumes {
    budget: 0,
    buffers: Vec::new(),
});

fn spare_volumes() -> std::sync::MutexGuard<'static, SpareVolumes> {
    // Every update leaves the buffers valid, so a poisoned lock is not
    // a broken one.
    SPARE_VOLUMES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A buffer of `n` voxels for a read that writes all of them
/// ([`FilePlan::runs`]): a spare one of that length as it is, unfilled, when
/// there is one; otherwise a zeroed one in a spare's capacity.
fn volume_buffer(n: usize) -> Vec<f32> {
    let spare = {
        let mut spare = spare_volumes();
        match spare.buffers.iter().rposition(|b| b.len() == n) {
            Some(i) => return spare.buffers.swap_remove(i),
            None => spare.buffers.pop(),
        }
    };
    let mut data = spare.unwrap_or_default();
    data.clear();
    data.reserve_exact(n);
    data.resize(n, 0.0);
    data
}

/// Keep a finished frame's voxel buffers for the next [`FilePlan::read`],
/// in place of any spare ones left, if they fit in the last collective
/// read's largest window; drop them otherwise.
pub(crate) fn recycle_volumes(volumes: Vec<Volume>) {
    let bytes: usize = volumes.iter().map(|v| size_of_val(v.data())).sum();
    let mut spare = spare_volumes();
    spare.buffers = if bytes <= spare.budget {
        volumes.into_iter().map(Volume::into_data).collect()
    } else {
        Vec::new()
    };
}

// ---------------------------------------------------------------------
// Message-passing executor
// ---------------------------------------------------------------------

/// Tags for the message-passing frame. Public so `pvr-verify`'s tag
/// discipline checks can assert that distinct pipeline stages never
/// share a tag (wildcard receives on one stage must not be able to
/// match another stage's traffic).
pub mod tags {
    pub const IO_SCATTER: u32 = 1;
    pub const FRAGMENT: u32 = 2;
    pub const TILE: u32 = 3;
    /// Ack tags of the fault-tolerant link protocol: each data
    /// stage has a dedicated ack channel so wildcard receives on data
    /// tags can never match acknowledgement traffic.
    pub const IO_ACK: u32 = 4;
    pub const FRAG_ACK: u32 = 5;
    pub const TILE_ACK: u32 = 6;
    /// Recovery-orchestrator tags (`crate::scheduler`): an adoption
    /// request asking a survivor to re-render a dead rank's block, the
    /// late fragment it ships back, the shared ack channel for both,
    /// and the frame-complete broadcast that releases lingering
    /// adopters.
    pub const ADOPT: u32 = 7;
    pub const LATE: u32 = 8;
    pub const REC_ACK: u32 = 9;
    pub const DONE: u32 = 10;

    /// All stage tags, for exhaustive discipline checks.
    pub const ALL: [(u32, &str); 10] = [
        (IO_SCATTER, "io-scatter"),
        (FRAGMENT, "fragment"),
        (TILE, "tile"),
        (IO_ACK, "io-ack"),
        (FRAG_ACK, "fragment-ack"),
        (TILE_ACK, "tile-ack"),
        (ADOPT, "adopt"),
        (LATE, "late"),
        (REC_ACK, "recovery-ack"),
        (DONE, "done"),
    ];
}

// The five message kinds of the frame protocol, one encode/decode pair
// each. Fault-free and faulted frames exchange the same bodies (a
// fault-free one reports `hole = 0`, `quality = 1`, `arrived =
// expected`); the reliable link adds its own frame around them.

/// Bytes of a scatter record's `[dst, len, hole]` header.
pub(crate) const PIECE_HEADER: usize = 24;

/// Scatter body: every piece of one window bound for one rank, each a
/// record `[dst, len, hole]` and `len` bytes bound for byte `dst` of the
/// receiver's buffer, `hole` of which no retry or replica could serve
/// (they travel as zeros). This appends one record.
pub(crate) fn push_piece(body: &mut Vec<u8>, dst: usize, hole: u64, bytes: &[u8]) {
    push_words(body, &[dst as u64, bytes.len() as u64, hole]);
    body.extend_from_slice(bytes);
}

/// Copy every record of rank `src`'s scatter body into `out`; returns
/// the `(pieces, bytes, hole bytes)` it carried. A record that runs past
/// the body or past `out` is a bug in the sender's plan: it panics,
/// naming the record.
pub(crate) fn unpack_pieces(body: &[u8], src: usize, out: &mut [u8]) -> (usize, u64, u64) {
    let mut h = Words(body);
    let (mut pieces, mut bytes, mut holes) = (0, 0, 0);
    while !h.0.is_empty() {
        let (dst, len, hole) = (h.index(), h.index(), h.u64());
        assert!(
            len <= h.0.len() && dst.checked_add(len).is_some_and(|end| end <= out.len()),
            "scatter record from rank {src}: dst {dst} + len {len} does not fit the {} bytes \
             left of its body and the receiver's buffer of {}",
            h.0.len(),
            out.len()
        );
        let (piece, rest) = h.0.split_at(len);
        out[dst..dst + len].copy_from_slice(piece);
        h.0 = rest;
        pieces += 1;
        bytes += len as u64;
        holes += hole;
    }
    (pieces, bytes, holes)
}

/// Fragment: `[quality]` — the fraction of the renderer's input bytes
/// that arrived intact — then the `piece` of the renderer's subimage
/// `sub` (a rect within `sub.rect`: its overlap with the destination
/// tile). Also returns the scan that sized it, which prices it.
pub fn encode_fragment_msg(
    quality: f64,
    renderer: usize,
    sub: &SubImage,
    piece: &PixelRect,
) -> (Vec<u8>, PieceScan) {
    encode_fragment(&[quality.to_bits()], renderer, sub, piece)
}

/// `(quality, fragment)` of a fragment message, the fragment read in
/// place.
pub(crate) fn fragment_of_msg(body: Vec<u8>) -> (f64, WireFragment) {
    let quality = Words(&body).f64();
    (quality, WireFragment::new(body, 8))
}

/// `(quality, renderer, fragment)` of a fragment message, decoded: the
/// oracle of what a compositor blends from the wire.
pub fn decode_fragment_msg(body: &[u8]) -> (f64, usize, SubImage) {
    let (quality, frag) = fragment_of_msg(body.to_vec());
    (quality, frag.renderer, frag.decode())
}

/// Finished tile: `[tile, expected, arrived]` — its quality-weighted
/// arrived area out of the expected one — then the blend.
pub(crate) fn encode_tile(tile: usize, expected: f64, arrived: f64, blend: &SubImage) -> Vec<u8> {
    let header = [tile as u64, expected.to_bits(), arrived.to_bits()];
    encode_fragment(&header, tile, blend, &blend.rect).0
}

pub(crate) fn decode_tile(body: Vec<u8>) -> (usize, f64, f64, WireFragment) {
    let mut h = Words(&body);
    let (tile, expected, arrived) = (h.index(), h.f64(), h.f64());
    (tile, expected, arrived, WireFragment::new(body, 24))
}

/// Adoption request: `[orphan, tile]`.
pub(crate) fn encode_adopt(orphan: usize, tile: usize) -> Vec<u8> {
    with_header(&[orphan as u64, tile as u64], 0)
}

pub(crate) fn decode_adopt(body: &[u8]) -> (usize, usize) {
    let mut h = Words(body);
    (h.index(), h.index())
}

/// Late reply: `[orphan, tile, 0, quality]` and the adopted block's
/// fragment of the tile — `(quality, re-render, its piece inside the
/// tile)` — or the refusal `[orphan, tile, 1]`.
pub(crate) fn encode_late(
    orphan: usize,
    tile: usize,
    frag: Option<(f64, &SubImage, PixelRect)>,
) -> Vec<u8> {
    let (orphan_w, tile_w) = (orphan as u64, tile as u64);
    match frag {
        Some((quality, sub, piece)) => {
            let header = [orphan_w, tile_w, 0, quality.to_bits()];
            encode_fragment(&header, orphan, sub, &piece).0
        }
        None => with_header(&[orphan_w, tile_w, 1], 0),
    }
}

pub(crate) fn decode_late(body: Vec<u8>) -> (usize, usize, Option<(f64, WireFragment)>) {
    let mut h = Words(&body);
    let (orphan, tile, refused) = (h.index(), h.index(), h.u64() != 0);
    if refused {
        return (orphan, tile, None);
    }
    let quality = h.f64();
    (orphan, tile, Some((quality, WireFragment::new(body, 32))))
}

/// Run one frame over real message passing (one task per rank on the
/// event core).
/// Requires a dataset file. Returns rank 0's result; the image is
/// identical to [`run_frame`]'s. Panics, naming the file, when the
/// dataset is missing or shorter than its layout; [`drive_frame`]
/// returns that as [`FrameError::Io`].
pub fn run_frame_mpi(cfg: &FrameConfig, path: &Path) -> FrameResult {
    match run_frame_mpi_sim(cfg, path, pvr_mpisim::RunOptions::default()) {
        Ok((frame, _)) => frame,
        Err(e) => panic!("mpi frame failed: {e}"),
    }
}

/// [`run_frame_mpi`] with explicit runtime options, also surfacing the
/// discrete-event scheduler's counters (polls, messages, timer fires,
/// virtual time, peak resident tasks, wall time) — the scale sweeps and
/// `bench_sim` read these to report events/sec at 32K ranks.
pub fn run_frame_mpi_sim(
    cfg: &FrameConfig,
    path: &Path,
    opts: pvr_mpisim::RunOptions,
) -> Result<(FrameResult, Option<pvr_mpisim::SimStats>), FrameError> {
    drive_frame(cfg, Some(path), Driver::mpi(opts)).map(|out| (out.frame, out.sim))
}

/// One fully profiled message-passing frame: the rendered frame, the
/// message trace it ran under, and the span/metric profile derived from
/// that trace.
pub struct ProfiledFrame {
    pub frame: FrameResult,
    pub trace: pvr_mpisim::trace::TraceLog,
    pub profile: pvr_obs::Profile,
}

/// Run one traced frame twice: pass 1 records the actual wildcard match
/// order, pass 2 replays its canonicalized form. The event core is
/// single-threaded and its default match policy deterministic, so pass 1
/// already repeats from run to run; what the canonical replay adds is an
/// order that does not move when an unrelated change reorders arrivals.
/// The canonical log maps every schedule in the same equivalence class
/// to one representative, so the exporters downstream (and the goldens
/// they are checked against) stay byte-for-byte the same.
pub fn run_frame_mpi_profiled(cfg: &FrameConfig, path: &Path) -> Result<ProfiledFrame, FrameError> {
    use pvr_mpisim::{trace::ReplayLog, MatchPolicy, RunOptions};
    let traced = |opts: RunOptions| {
        let out = drive_frame(cfg, Some(path), Driver::mpi(opts.traced()))?;
        Ok((out.frame, out.trace.expect("traced run yields a trace")))
    };
    let (_, recorded) = traced(RunOptions::default())?;
    let replay = std::sync::Arc::new(ReplayLog::canonical(&recorded));
    let (frame, trace) = traced(RunOptions::default().policy(MatchPolicy::Replay(replay)))?;
    let profile = pvr_mpisim::analysis::profile_from_trace(&trace);
    Ok(ProfiledFrame {
        frame,
        trace,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompositorPolicy;
    use pvr_pfs::twophase::RankRequest;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-core-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    /// Every message kind decodes to what was encoded, behind a header
    /// of the documented length — on a mostly transparent fragment (ships
    /// sparse) and on a full one (ships dense).
    #[test]
    fn wire_messages_round_trip() {
        let same = |a: &SubImage, b: &SubImage| {
            (a.rect, a.depth.to_bits(), &a.pixels) == (b.rect, b.depth.to_bits(), &b.pixels)
        };
        assert_eq!(encode_adopt(5, 2).len(), 16);
        assert_eq!(decode_adopt(&encode_adopt(5, 2)), (5, 2));
        let refusal = encode_late(5, 2, None);
        assert_eq!(refusal.len(), 24);
        assert!(matches!(decode_late(refusal), (5, 2, None)));

        let rect = pvr_render::image::PixelRect::new(3, 5, 6, 4);
        let mut sparse = SubImage::transparent(rect, 1.25);
        sparse.pixels[8] = [0.1, 0.2, 0.3, 0.4];
        sparse.pixels[9] = [0.5, 0.6, 0.7, 0.8];
        let mut dense = SubImage::transparent(rect, -2.5);
        for (i, p) in dense.pixels.iter_mut().enumerate() {
            *p = [i as f32, 0.5, 0.25, 1.0];
        }
        let plain = encode_fragment(&[], 9, &dense, &rect).0.len();
        assert!(encode_fragment(&[], 9, &sparse, &rect).0.len() < plain);
        for frag in [&sparse, &dense] {
            let bare = encode_fragment(&[], 9, frag, &rect).0.len();
            let (msg, scan) = encode_fragment_msg(0.75, 9, frag, &rect);
            assert_eq!(msg.len(), 8 + bare);
            assert_eq!(scan, PieceScan::of(frag, &rect));
            let (quality, renderer, got) = decode_fragment_msg(&msg);
            assert_eq!((quality, renderer), (0.75, 9));
            assert!(same(&got, frag));

            let msg = encode_tile(3, 24.0, 12.5, frag);
            assert_eq!(msg.len(), 24 + bare);
            let (tile, expected, arrived, got) = decode_tile(msg);
            assert_eq!((tile, expected, arrived), (3, 24.0, 12.5));
            assert!(same(&got.decode(), frag));

            let late = encode_late(5, 2, Some((0.5, frag, rect)));
            let (orphan, tile, got) = decode_late(late);
            let (quality, got) = got.expect("a fragment, not a refusal");
            assert_eq!((orphan, tile, quality), (5, 2, 0.5));
            assert!(same(&got.decode(), frag));
        }
    }

    /// A scatter body carries one, many or no records, empty ones
    /// included; each lands at its `dst` and is tallied on its own.
    #[test]
    fn scatter_bodies_round_trip_record_by_record() {
        let mut body = Vec::new();
        let mut out = [9u8; 12];
        assert_eq!(unpack_pieces(&body, 3, &mut out), (0, 0, 0));
        push_piece(&mut body, 8, 7, &[1, 2, 3]);
        assert_eq!(body.len(), PIECE_HEADER + 3);
        assert_eq!(unpack_pieces(&body, 3, &mut out), (1, 3, 7));
        assert_eq!(out, [9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 9]);
        push_piece(&mut body, 12, 0, &[]);
        push_piece(&mut body, 0, 2, &[4, 5, 6, 7]);
        assert_eq!(body.len(), 3 * PIECE_HEADER + 7);
        assert_eq!(unpack_pieces(&body, 3, &mut out), (3, 7, 9));
        assert_eq!(out, [4, 5, 6, 7, 9, 9, 9, 9, 1, 2, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "from rank 5: dst 0 + len 4 does not fit the 3 bytes")]
    fn scatter_record_longer_than_its_body_panics() {
        let mut body = Vec::new();
        push_piece(&mut body, 0, 0, &[1, 2, 3, 4]);
        body.pop();
        unpack_pieces(&body, 5, &mut [0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "from rank 5: dst 14 + len 4 does not fit the 4 bytes \
                               left of its body and the receiver's buffer of 16")]
    fn scatter_record_past_the_receivers_buffer_panics() {
        let mut body = Vec::new();
        push_piece(&mut body, 14, 0, &[1, 2, 3, 4]);
        unpack_pieces(&body, 5, &mut [0u8; 16]);
    }

    #[test]
    fn frame_from_file_matches_synthetic_frame() {
        // Reading the written dataset must give the same image as
        // sampling the field directly: both sample the same voxel
        // centres, so the volumes hold the same values. A grid that is
        // not a power of two is where the two once disagreed.
        let mut cfg = FrameConfig::small(24, 32, 8);
        cfg.variable = 2;
        let p = tmp("match.raw");
        write_dataset(&p, &cfg).unwrap();
        let from_file = run_frame(&cfg, Some(&p));
        let synthetic = run_frame(&cfg, None);
        assert_eq!(from_file.image, synthetic.image);
        assert!(from_file.io.useful_bytes > 0);
        assert!(
            (from_file.io.data_density - 1.0).abs() < 1e-9,
            "raw density"
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn all_io_modes_produce_the_same_image() {
        let mut base = FrameConfig::small(20, 24, 4);
        base.variable = 2;
        let mut reference: Option<Image> = None;
        for mode in IoMode::ALL {
            let mut cfg = base;
            cfg.io = mode;
            let p = tmp(&format!("mode.{}", mode.name()));
            write_dataset(&p, &cfg).unwrap();
            let res = run_frame(&cfg, Some(&p));
            match &reference {
                None => reference = Some(res.image),
                Some(r) => {
                    // netCDF stores big-endian f32: exact round trip.
                    let d = res.image.max_abs_diff(r);
                    assert!(d < 1e-6, "{}: diff {d}", mode.name());
                }
            }
            std::fs::remove_file(&p).ok();
        }
    }

    /// `FilePlan` reads a collective layout under the lattice's plan,
    /// with no request list; its volumes and statistics are those of
    /// `ScatterPlan::build` over the ranks' requests, decoded by
    /// `decode_scatter`, bit for bit, with one and two ghost layers.
    #[test]
    fn file_plan_reads_like_the_sorted_plan() {
        for (mode, shading) in [
            (IoMode::Raw, false),
            (IoMode::NetCdfUntuned, true),
            (IoMode::NetCdfTuned, false),
            (IoMode::NetCdf64, true),
        ] {
            let mut cfg = FrameConfig::small(20, 16, 12);
            (cfg.io, cfg.shading, cfg.variable) = (mode, shading, 3);
            let p = tmp(&format!("lattice.{}", mode.name()));
            write_dataset(&p, &cfg).unwrap();
            let shared = FrameShared::new(&cfg);
            let tracer = Tracer::disabled();
            let file = FilePlan::new(&cfg, &shared);
            let volumes = file.read(&shared, &p, &tracer, None).unwrap();

            let requests: Vec<RankRequest> = shared
                .stored
                .iter()
                .map(|sub| {
                    let mut runs = Vec::new();
                    file.runs(sub, &mut |r| runs.push(r));
                    let out_elems = sub.num_elements();
                    RankRequest { runs, out_elems }
                })
                .collect();
            let mut want: Vec<Vec<f32>> = requests.iter().map(|r| vec![0.0; r.out_elems]).collect();
            let sp = ScatterPlan::build(&requests, cfg.aggregators(), &cfg.io.hints(cfg.grid));
            let runs_of = |rank: usize, f: &mut dyn FnMut(PlacedRun)| {
                requests[rank].runs.iter().for_each(|&r| f(r))
            };
            let f = File::open(&p).unwrap();
            decode_scatter(&f, &sp, &runs_of, file.endian, &mut want, &tracer).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (got, want) in volumes.iter().zip(&want) {
                assert_eq!(bits(got.data()), bits(want), "{}", mode.name());
            }
            let io = file.io;
            assert_eq!(
                (
                    io.accesses,
                    io.physical_bytes,
                    io.useful_bytes,
                    io.exchange_bytes
                ),
                (
                    sp.plan.accesses.len(),
                    sp.plan.physical_bytes,
                    sp.plan.useful_bytes,
                    sp.exchange_bytes
                ),
                "{}",
                mode.name()
            );
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn io_mode_densities_are_ordered_like_figure_10() {
        let mut cfg = FrameConfig::small(32, 16, 8);
        cfg.variable = 2;
        let mut density = std::collections::HashMap::new();
        for mode in IoMode::ALL {
            let mut c = cfg;
            c.io = mode;
            let p = tmp(&format!("dens.{}", mode.name()));
            write_dataset(&p, &c).unwrap();
            let res = run_frame(&c, Some(&p));
            density.insert(mode, res.io.data_density);
            std::fs::remove_file(&p).ok();
        }
        // raw ~ 1; untuned netCDF worst; tuned strictly better than
        // untuned; netcdf-64 near raw.
        assert!(density[&IoMode::Raw] > 0.99);
        assert!(density[&IoMode::NetCdf64] > 0.9);
        assert!(density[&IoMode::NetCdfUntuned] < 0.35);
        assert!(density[&IoMode::NetCdfTuned] > density[&IoMode::NetCdfUntuned]);
        assert!(density[&IoMode::Hdf5] < 1.0 && density[&IoMode::Hdf5] > 0.3);
    }

    #[test]
    fn compositor_policy_does_not_change_the_image() {
        let mut cfg = FrameConfig::small(24, 40, 16);
        cfg.variable = 2;
        let a = run_frame(&cfg, None);
        cfg.policy = CompositorPolicy::Fixed(3);
        let b = run_frame(&cfg, None);
        let d = a.image.max_abs_diff(&b.image);
        assert!(d < 1e-5, "diff {d}");
        assert!(b.composite.messages <= a.composite.messages);
    }

    #[test]
    fn mpi_frame_matches_rayon_frame() {
        let mut cfg = FrameConfig::small(20, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        let p = tmp("mpi.raw");
        write_dataset(&p, &cfg).unwrap();
        let rayon_res = run_frame(&cfg, Some(&p));
        let mpi_res = run_frame_mpi(&cfg, &p);
        let d = mpi_res.image.max_abs_diff(&rayon_res.image);
        assert!(d < 1e-6, "diff {d}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mpi_frame_matches_for_netcdf_collective_path() {
        let mut cfg = FrameConfig::small(16, 20, 6);
        cfg.variable = 3;
        cfg.io = IoMode::NetCdfTuned;
        let p = tmp("mpi.nc");
        write_dataset(&p, &cfg).unwrap();
        let rayon_res = run_frame(&cfg, Some(&p));
        let mpi_res = run_frame_mpi(&cfg, &p);
        let d = mpi_res.image.max_abs_diff(&rayon_res.image);
        assert!(d < 1e-6, "diff {d}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn timing_stages_are_populated() {
        let cfg = FrameConfig::small(16, 16, 4);
        let res = run_frame(&cfg, None);
        assert!(res.timing.io >= 0.0);
        assert!(res.timing.render > 0.0);
        assert!(res.timing.composite > 0.0);
        assert!(res.render_samples > 0);
    }

    #[test]
    fn shaded_frame_matches_across_policies() {
        let mut cfg = FrameConfig::small(20, 24, 8);
        cfg.variable = 2;
        cfg.shading = true;
        let a = run_frame(&cfg, None);
        let mut c2 = cfg;
        c2.policy = CompositorPolicy::Fixed(3);
        let b = run_frame(&c2, None);
        let d = a.image.max_abs_diff(&b.image);
        assert!(d < 1e-5, "shaded frames differ across policies: {d}");
        // Shading changes the image versus the unshaded frame.
        let mut c3 = cfg;
        c3.shading = false;
        let c = run_frame(&c3, None);
        assert!(a.image.mean_abs_diff(&c.image) > 1e-4);
    }
}
