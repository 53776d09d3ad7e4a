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
//! (dataset synthesis, the dataset reader, fragment wire format, tags).
//! The frame's geometry lives in [`crate::scheduler::FrameShared`].

use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rayon::prelude::*;

use pvr_compositing::directsend::DirectSendStats;
use pvr_compositing::sparse::{lit_runs, PieceScan};
use pvr_formats::layout::FileLayout;
use pvr_formats::rw::write_file;
use pvr_formats::{Subvolume, ELEM_SIZE};
use pvr_obs::Tracer;
use pvr_pfs::sieve::per_extent_plan;
use pvr_pfs::twophase::{two_phase_decode, RankRequest};
use pvr_pfs::IoThrottle;
use pvr_render::image::{Image, PixelRect, Rgba, SubImage};
use pvr_render::math::Vec3;
use pvr_render::raycast::{RenderOpts, RenderStats, Shading};
use pvr_render::TransferFunction;
use pvr_volume::{SupernovaField, Volume};

use crate::config::{FrameConfig, IoMode};
use crate::scheduler::{drive_frame, Driver};
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
/// in the on-disk format of `cfg.io`. Returns bytes written.
pub fn write_dataset(path: &Path, cfg: &FrameConfig) -> std::io::Result<u64> {
    let layout = cfg.io.layout(cfg.grid);
    let field = SupernovaField::new(cfg.seed);
    let [nx, ny, nz] = cfg.grid;
    // Raw mode stores the render variable extracted offline; the
    // multivariate formats store all five VH-1 variables.
    let render_var = cfg.variable;
    write_file(path, layout.as_ref(), |var, x, y, z| {
        let v = if cfg.io == IoMode::Raw {
            render_var
        } else {
            var
        };
        field.sample_var(
            v,
            (x as f32 + 0.5) / nx as f32,
            (y as f32 + 0.5) / ny as f32,
            (z as f32 + 0.5) / nz as f32,
        )
    })
}

pub(crate) fn rank_requests(
    layout: &dyn FileLayout,
    var: usize,
    stored: &[Subvolume],
) -> Vec<RankRequest> {
    stored
        .iter()
        .map(|sub| {
            // One run per row of the block, unless chunking splits rows.
            let mut runs = Vec::with_capacity(sub.shape[1] * sub.shape[2]);
            layout.placed_runs(var, sub, &mut |r| runs.push(r));
            RankRequest {
                runs,
                out_elems: sub.num_elements(),
            }
        })
        .collect()
}

/// Decode a rank's raw bytes (on-disk order per placed runs) into a
/// volume over its stored region.
pub(crate) fn decode_volume(bytes: &[u8], sub: &Subvolume, endian: pvr_formats::Endian) -> Volume {
    let mut data = vec![0.0f32; sub.num_elements()];
    endian.decode_slice(bytes, &mut data);
    Volume::from_data(sub.shape, data)
}

/// Aggregator count used by the laptop-scale runs (re-exported from
/// [`crate::roles`], the single home of role-placement formulas).
pub use crate::roles::laptop_aggregators;

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

/// Read the `stored` regions of the dataset into one volume per rank —
/// the one dataset reader of the data-parallel executor, in the form a
/// prefetch thread can hand to a later frame. Collective layouts go
/// through the two-phase engine, which decodes each window piece
/// straight into its rank's volume (one `io.window` span per access on
/// `tracer`); HDF5-style layouts read independently, every rank
/// fetching and decoding its own runs with no coordination. An optional
/// [`IoThrottle`] floors the read, decode included, at a bandwidth,
/// making I/O genuinely expensive for pipelining experiments.
pub(crate) fn read_frame(
    cfg: &FrameConfig,
    stored: &[Subvolume],
    path: &Path,
    tracer: &Tracer,
    throttle: Option<IoThrottle>,
) -> std::io::Result<(Vec<Volume>, IoRunStats)> {
    let layout = cfg.io.layout(cfg.grid);
    let (var, endian) = (cfg.file_variable(), layout.endian());
    let requests = rank_requests(layout.as_ref(), var, stored);
    let t0 = Instant::now();

    let (volumes, stats, throttled_bytes) = if layout.collective() {
        let hints = cfg.io.hints(cfg.grid);
        let naggr = laptop_aggregators(cfg.nprocs);
        let mut f = File::open(path)?;
        let mut data: Vec<Vec<f32>> = stored
            .iter()
            .map(|sub| vec![0.0; sub.num_elements()])
            .collect();
        let (plan, exchange_bytes) =
            two_phase_decode(&mut f, &requests, naggr, &hints, endian, &mut data, tracer)?;
        let stats = IoRunStats {
            useful_bytes: plan.useful_bytes,
            physical_bytes: plan.physical_bytes,
            accesses: plan.accesses.len(),
            exchange_bytes,
            data_density: plan.data_density(),
            ..Default::default()
        };
        let volumes = data
            .into_iter()
            .zip(stored)
            .map(|(d, sub)| Volume::from_data(sub.shape, d))
            .collect();
        (volumes, stats, stats.physical_bytes)
    } else {
        let per_process: Vec<Vec<pvr_formats::Extent>> = stored
            .iter()
            .map(|sub| layout.physical_extents(var, sub))
            .collect();
        let plan = per_extent_plan(&per_process);
        let useful: u64 = requests.iter().map(|r| r.useful_bytes()).sum();
        let per_rank: Vec<std::io::Result<Volume>> = requests
            .par_iter()
            .zip(stored)
            .map(|(rq, sub)| {
                let mut f = File::open(path)?;
                let mut data = vec![0.0f32; sub.num_elements()];
                let mut buf = Vec::new();
                for run in &rq.runs {
                    buf.resize(run.elems * ELEM_SIZE as usize, 0);
                    f.seek(SeekFrom::Start(run.file_offset))?;
                    f.read_exact(&mut buf)?;
                    endian.decode_slice(&buf, &mut data[run.out_start..run.out_start + run.elems]);
                }
                Ok(Volume::from_data(sub.shape, data))
            })
            .collect();
        let volumes = per_rank.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        let stats = IoRunStats {
            useful_bytes: useful,
            physical_bytes: plan.physical_bytes,
            accesses: plan.accesses.len(),
            exchange_bytes: 0,
            data_density: useful as f64 / plan.physical_bytes.max(1) as f64,
            ..Default::default()
        };
        (volumes, stats, useful)
    };
    if let Some(t) = throttle {
        t.pad(throttled_bytes, t0);
    }
    Ok((volumes, stats))
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

/// Fragment wire format tags: dense rows vs run-length sparse spans.
const FRAG_DENSE: u64 = 0;
const FRAG_SPARSE: u64 = 1;

fn push_words(msg: &mut Vec<u8>, words: &[u64]) {
    for word in words {
        msg.extend_from_slice(&word.to_le_bytes());
    }
}

/// A message that starts with `header`'s little-endian words, with room
/// for `payload` more bytes. Every message of the frame protocol is
/// such a header and a payload; [`Words`] reads the header back.
fn with_header(header: &[u64], payload: usize) -> Vec<u8> {
    let mut msg = Vec::with_capacity(header.len() * 8 + payload);
    push_words(&mut msg, header);
    msg
}

/// Reader of the header words at the front of a message body.
struct Words<'a>(&'a [u8]);

impl Words<'_> {
    fn u64(&mut self) -> u64 {
        let (word, rest) = self
            .0
            .split_first_chunk()
            .expect("message header cut short");
        self.0 = rest;
        u64::from_le_bytes(*word)
    }

    fn index(&mut self) -> usize {
        self.u64() as usize
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

/// Encode the `piece` of `s` (a rect within `s.rect`) as a fragment
/// behind `header`: renderer id, rect, depth, then the pixels dense or
/// sparse (run-length spans of non-transparent pixels, see
/// [`pvr_compositing::sparse`]), chosen per fragment by actual encoded
/// size. One scan of the piece sizes both bodies — and is returned, so
/// the sender prices the fragment from the same pass — and the chosen
/// one is written straight from `s`' rows: no cropped copy, no span
/// tree, one allocation. The sparse body round-trips bit-identically:
/// elided pixels decode to `[0.0; 4]`, which is what they were.
fn encode_fragment(
    header: &[u64],
    renderer: usize,
    s: &SubImage,
    piece: &PixelRect,
) -> (Vec<u8>, PieceScan) {
    let scan = PieceScan::of(s, piece);
    let dense_body = scan.pixels * 16;
    // Real encoded body sizes: per row a span count, per span a start
    // offset + length, per kept pixel four f32s.
    let sparse_body = scan.rows * 8 + scan.spans * 16 + scan.lit * 16;
    let sparse = sparse_body < dense_body;

    let mut out = with_header(header, 56 + dense_body.min(sparse_body));
    push_words(
        &mut out,
        &[renderer, piece.x0, piece.y0, piece.w, piece.h].map(|v| v as u64),
    );
    let tag = if sparse { FRAG_SPARSE } else { FRAG_DENSE };
    push_words(&mut out, &[s.depth.to_bits(), tag]);
    let push_pixels = |out: &mut Vec<u8>, pixels: &[Rgba]| {
        for c in pixels.iter().flatten() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    };
    for row in s.rows(piece) {
        if sparse {
            push_words(&mut out, &[lit_runs(row).count() as u64]);
            for (x0, run) in lit_runs(row) {
                push_words(&mut out, &[x0 as u64, run.len() as u64]);
                push_pixels(&mut out, run);
            }
        } else {
            push_pixels(&mut out, row);
        }
    }
    (out, scan)
}

fn decode_fragment(data: &[u8]) -> (usize, SubImage) {
    let mut h = Words(data);
    let renderer = h.index();
    let rect = PixelRect::new(h.index(), h.index(), h.index(), h.index());
    let (depth, tag) = (h.f64(), h.u64());
    let pix = |q: &[u8]| -> [f32; 4] {
        std::array::from_fn(|c| {
            f32::from_le_bytes([q[4 * c], q[4 * c + 1], q[4 * c + 2], q[4 * c + 3]])
        })
    };
    let pixels = match tag {
        FRAG_DENSE => h.0.chunks_exact(16).map(pix).collect(),
        FRAG_SPARSE => {
            let mut pixels = vec![[0.0f32; 4]; rect.num_pixels()];
            for y in 0..rect.h {
                for _ in 0..h.index() {
                    let (x0, len) = (h.index(), h.index());
                    let (span, rest) = h.0.split_at(len * 16);
                    let row = &mut pixels[y * rect.w + x0..][..len];
                    for (p, q) in row.iter_mut().zip(span.chunks_exact(16)) {
                        *p = pix(q);
                    }
                    h.0 = rest;
                }
            }
            pixels
        }
        t => panic!("unknown fragment format tag {t}"),
    };
    let sub = SubImage {
        rect,
        pixels,
        depth,
    };
    (renderer, sub)
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

/// `(quality, renderer, fragment)` of a fragment message.
pub fn decode_fragment_msg(body: &[u8]) -> (f64, usize, SubImage) {
    let mut h = Words(body);
    let quality = h.f64();
    let (renderer, frag) = decode_fragment(h.0);
    (quality, renderer, frag)
}

/// Finished tile: `[tile, expected, arrived]` — its quality-weighted
/// arrived area out of the expected one — then the blend.
pub(crate) fn encode_tile(tile: usize, expected: f64, arrived: f64, blend: &SubImage) -> Vec<u8> {
    let header = [tile as u64, expected.to_bits(), arrived.to_bits()];
    encode_fragment(&header, tile, blend, &blend.rect).0
}

pub(crate) fn decode_tile(body: &[u8]) -> (usize, f64, f64, SubImage) {
    let mut h = Words(body);
    let (tile, expected, arrived) = (h.index(), h.f64(), h.f64());
    (tile, expected, arrived, decode_fragment(h.0).1)
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

pub(crate) fn decode_late(body: &[u8]) -> (usize, usize, Option<(f64, SubImage)>) {
    let mut h = Words(body);
    let (orphan, tile, refused) = (h.index(), h.index(), h.u64() != 0);
    let frag = (!refused).then(|| (h.f64(), decode_fragment(h.0).1));
    (orphan, tile, frag)
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
/// order, pass 2 replays its canonicalized form. The second trace is
/// therefore a deterministic function of the configuration alone —
/// thread scheduling perturbs pass 1 but the canonical replay log maps
/// every schedule in the same equivalence class to one representative,
/// so exporters downstream are byte-for-byte reproducible.
pub fn run_frame_mpi_profiled(cfg: &FrameConfig, path: &Path) -> Result<ProfiledFrame, FrameError> {
    use pvr_mpisim::{trace::ReplayLog, MatchPolicy, RunOptions};
    let traced = |opts: RunOptions| {
        let out = drive_frame(cfg, Some(path), Driver::mpi(opts.traced()))?;
        Ok((out.frame, out.trace.expect("traced run yields a trace")))
    };
    let (_, recorded) = traced(RunOptions::default())?;
    let replay = std::sync::Arc::new(ReplayLog::canonical(&recorded));
    let (frame, trace) = traced(RunOptions::default().policy(MatchPolicy::Replay(replay)))?;
    let profile = pvr_obs::profile_from_trace(&trace);
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
        assert!(matches!(decode_late(&refusal), (5, 2, None)));

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
            let (tile, expected, arrived, got) = decode_tile(&msg);
            assert_eq!((tile, expected, arrived), (3, 24.0, 12.5));
            assert!(same(&got, frag));

            let late = encode_late(5, 2, Some((0.5, frag, rect)));
            let (orphan, tile, got) = decode_late(&late);
            let (quality, got) = got.expect("a fragment, not a refusal");
            assert_eq!((orphan, tile, quality), (5, 2, 0.5));
            assert!(same(&got, frag));
        }
    }

    /// The fragment encoder as it was before it wrote the body in one
    /// pass: crop the piece out, build the span tree, then serialize
    /// whichever body is shorter. Kept as the oracle.
    mod oracle {
        use super::*;

        struct Span {
            x0: usize,
            pixels: Vec<Rgba>,
        }

        /// Per row, the spans of non-transparent pixels.
        fn sparse_rows(sub: &SubImage) -> Vec<Vec<Span>> {
            let mut rows = Vec::with_capacity(sub.rect.h);
            for row in sub.pixels.chunks_exact(sub.rect.w.max(1)) {
                let mut spans: Vec<Span> = Vec::new();
                let mut open = false;
                for (x, &p) in row.iter().enumerate() {
                    if p == [0.0; 4] {
                        open = false;
                        continue;
                    }
                    if !open {
                        let pixels = Vec::new();
                        spans.push(Span { x0: x, pixels });
                        open = true;
                    }
                    spans.last_mut().unwrap().pixels.push(p);
                }
                rows.push(spans);
            }
            rows
        }

        pub fn encode_fragment(header: &[u64], renderer: usize, s: &SubImage) -> Vec<u8> {
            let rows = sparse_rows(s);
            let spans: usize = rows.iter().map(Vec::len).sum();
            let payload: usize = rows.iter().flatten().map(|sp| sp.pixels.len()).sum();
            let dense_body = s.pixels.len() * 16;
            let sparse_body = s.rect.h * 8 + spans * 16 + payload * 16;

            let mut out = with_header(header, 56 + dense_body.min(sparse_body));
            out.extend((renderer as u64).to_le_bytes());
            out.extend((s.rect.x0 as u64).to_le_bytes());
            out.extend((s.rect.y0 as u64).to_le_bytes());
            out.extend((s.rect.w as u64).to_le_bytes());
            out.extend((s.rect.h as u64).to_le_bytes());
            out.extend(s.depth.to_le_bytes());
            if sparse_body < dense_body {
                out.extend(FRAG_SPARSE.to_le_bytes());
                for row in &rows {
                    out.extend((row.len() as u64).to_le_bytes());
                    for span in row {
                        out.extend((span.x0 as u64).to_le_bytes());
                        out.extend((span.pixels.len() as u64).to_le_bytes());
                        for p in &span.pixels {
                            for c in p {
                                out.extend(c.to_le_bytes());
                            }
                        }
                    }
                }
            } else {
                out.extend(FRAG_DENSE.to_le_bytes());
                for p in &s.pixels {
                    for c in p {
                        out.extend(c.to_le_bytes());
                    }
                }
            }
            out
        }
    }

    /// A subimage over `rect` lit by `pattern`: 0 transparent, 1 full,
    /// 2 checkerboard, 3 one lit column, 4 one lit row, else random at
    /// `density` percent.
    fn patterned(rect: PixelRect, pattern: u8, density: u64, seed: u64) -> SubImage {
        let mut rng = proptest::Rng::seeded(seed | 1);
        let mut sub = SubImage::transparent(rect, -1.5 + seed as f64);
        for (i, p) in sub.pixels.iter_mut().enumerate() {
            let (x, y) = (i % rect.w, i / rect.w);
            let roll = rng.below(100);
            let lit = match pattern {
                0 => false,
                1 => true,
                2 => (x + y) % 2 == 0,
                3 => x == rect.w / 2,
                4 => y == rect.h / 2,
                _ => roll < density,
            };
            if lit {
                // Premultiplied, with exact-zero channels: a pixel is
                // transparent only when all four are zero.
                *p = [rng.below(1 << 20) as f32 / 1e6, 0.0, 0.0, 0.5];
            }
        }
        sub
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// For random subimages (every lighting pattern, 1-pixel-wide
        /// ones included) and random tile clips (touching each edge,
        /// covering everything, missing entirely), the one-pass encoder
        /// writes the bytes the crop-and-span-tree encoder wrote, they
        /// decode to the crop bit for bit, and the scan that sized them
        /// is the crop's.
        #[test]
        fn one_pass_encoder_writes_the_oracles_bytes(
            shape in (0usize..6, 0usize..6, 1usize..24, 1usize..16),
            clip in (0usize..30, 0usize..24, 1usize..30, 1usize..24),
            pattern in 0u8..7,
            density in 0u64..101,
            seed in 0u64..1_000_000,
        ) {
            let rect = PixelRect::new(shape.0, shape.1, shape.2, shape.3);
            let sub = patterned(rect, pattern, density, seed);
            let clip = PixelRect::new(clip.0, clip.1, clip.2, clip.3);
            for clip in [clip, sub.rect, PixelRect::new(0, 0, 64, 64)] {
                let crop = sub.crop(&clip);
                proptest::prop_assert_eq!(crop.as_ref().map(|c| c.rect), sub.rect.intersect(&clip));
                let Some(crop) = crop else { continue };
                let header = [seed, 7];
                let (body, scan) = encode_fragment(&header, 11, &sub, &crop.rect);
                proptest::prop_assert_eq!(&body, &oracle::encode_fragment(&header, 11, &crop));
                proptest::prop_assert_eq!(body.capacity(), body.len());
                proptest::prop_assert_eq!(scan, PieceScan::of(&crop, &crop.rect));
                let (renderer, back) = decode_fragment(&body[16..]);
                proptest::prop_assert_eq!(renderer, 11);
                proptest::prop_assert_eq!(back.rect, crop.rect);
                proptest::prop_assert_eq!(back.depth.to_bits(), crop.depth.to_bits());
                let bits = |s: &SubImage| -> Vec<[u32; 4]> {
                    s.pixels.iter().map(|p| p.map(f32::to_bits)).collect()
                };
                proptest::prop_assert_eq!(bits(&back), bits(&crop));
            }
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
        // sampling the field directly (same bytes -> same volumes).
        let mut cfg = FrameConfig::small(24, 32, 8);
        cfg.variable = 2;
        let p = tmp("match.raw");
        write_dataset(&p, &cfg).unwrap();
        let from_file = run_frame(&cfg, Some(&p));
        let synthetic = run_frame(&cfg, None);
        let d = from_file.image.max_abs_diff(&synthetic.image);
        assert!(d < 1e-6, "diff {d}");
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
