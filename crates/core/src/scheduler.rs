//! The frame scheduler: [`drive_frame`] is the one way to run a frame.
//!
//! The pipeline is a fixed chain of stages — read → render → composite
//! → gather — and each executor runs it as plain code. A frame is
//! configured along independent axes, all of them on [`Driver`]:
//!
//! * **Executor**: data-parallel rayon ([`Driver::rayon`]: one function,
//!   `rayon_frame`, reads, renders and composites in order) or per-rank
//!   message passing ([`Driver::mpi`]: inside a `pvr-mpisim` world each
//!   rank's [`RankExec`] awaits its four stage bodies in order and stops
//!   at the first one that crashes the rank).
//! * **Faults** ([`Driver::faults`]): a `FaultPlan` and the
//!   `RecoveryPolicy` that answers it, on the message-passing executor,
//!   which runs its one protocol (below) over acked links and reports
//!   per-tile completeness. One address space has no rank to lose:
//!   [`drive_frame`] refuses a rayon frame with a plan.
//! * **Tracing** ([`Driver::traced`]): a [`pvr_obs::Tracer`] for the
//!   rayon executor; the simulator traces through
//!   `RunOptions::traced()`.
//! * **Flight recorder** ([`Driver::flight`]): verdict, incidents and
//!   anomaly dumps of the frame.
//!
//! The animation driver ([`crate::anim`]) runs the same executors over
//! many time steps and adds a **tag epoch** per step ([`FrameTags`]) so
//! several frames' traffic stays disjoint in one world. Frame 0 equals
//! the [`crate::pipeline::tags`] constants, which keeps the golden
//! traces stable.
//!
//! ## One rank protocol
//!
//! [`RankExec`] has one body per stage: scatter each window read to
//! the ranks that asked for part of it (one message per window and
//! destination, as ROMIO's exchange phase sends; [`planned_messages`]
//! counts a frame's messages from its plans), render, send fragments to
//! tiles that seal order-independently (`TileAssembly`), ship tiles to
//! rank 0 — the wire messages are the codec pairs of
//! [`crate::pipeline`]. A frame carries a fault state (`FrameFaults`:
//! plan + effective policy) or nothing, and with nothing it runs the
//! same bodies over pass-through links (`pvr_faults::link`). Eight
//! places ask which, and nothing else may (DESIGN §11 has the
//! measurements behind a and b):
//!
//! | | where | with a plan | without | why it may ask |
//! |---|---|---|---|---|
//! | a | `RankExec::link` | acked `OutBox`/`InBox` | pass-through pair | no loss to repair; acks double the messages |
//! | b | `Limits` (`RankExec::new`), read by `recv`/`after`/`past` | timed receives under stage deadline, suspicion, drain | blocking receives, every limit "never" | a timer per receive is pure cost; a blocking wait stays visible to the deadlock detector |
//! | c | `RankExec::stage_end` | no barrier | the paper's stage barrier | a crashed rank can never reach one |
//! | d | `RankExec::planned` | the plan's rank fault or storage verdict | nothing | no plan, no fault |
//! | e | `RankExec::open_recovery` | recovery channel, ladder budget, adoption cache | closed: no pump, adoption, `done` broadcast, lingering | only a dead rank needs healing around |
//! | f | `assemble_frame` | plan incidents, completeness reported | neither | the [`DriveOutput`] contract |
//! | g | `run_world` | epoch-routed `PlanInjector`s on the transport | none | an injector costs every send a lookup |
//! | h | `run_world` | resync barrier between frames | none: each frame ends in one | deadline skew must not leak into the next frame |

use std::collections::HashMap;
use std::fs::File;
use std::ops::ControlFlow;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rayon::prelude::*;

use pvr_compositing::completeness::{CompletenessMap, TileCompleteness};
use pvr_compositing::directsend::DirectSendStats;
use pvr_compositing::wire::encode_fragment;
use pvr_compositing::{
    build_schedule, CompositeMessage, ImagePartition, InsertOutcome, PieceScan, Schedule,
    TileAssembly, WireFragment,
};
use pvr_faults::{
    link, FaultPlan, InBox, OutBox, PlanInjector, RankAction, RecoveryCounters, RecoveryPolicy,
    Stage,
};
use pvr_formats::extent::Extent;
use pvr_formats::layout::FileLayout;
use pvr_formats::{Endian, Subvolume, ELEM_SIZE};
use pvr_mpisim::fault::{FaultInjector, SendFate};
use pvr_obs::{FlightRecorder, Tracer};
use pvr_pfs::{
    read_extents, window_fault_audit, IoThrottle, Prefetch, RankRequest, ScatterPlan, ServerFaults,
    StripedStore, WindowAudit,
};
use pvr_render::image::{Image, PixelRect, SubImage};
use pvr_render::raycast::{footprint, render_block, BlockDomain, RenderOpts, RenderStats};
use pvr_render::{Camera, TransferFunction};
use pvr_volume::BlockDecomposition;

use crate::config::FrameConfig;
use crate::pipeline::{
    decode_adopt, decode_late, decode_tile, decode_volume, default_view, encode_adopt,
    encode_fragment_msg, encode_late, encode_tile, fragment_of_msg, push_piece, rank_request,
    rank_requests, read_frame, render_opts, synthesize_stage, tags, transfer_for, unpack_pieces,
    FrameError, FrameResult, IoRunStats, PIECE_HEADER,
};
use crate::recovery::{adopter_of, effective_policy, heal_costs, HealDecision, RecoveryBudget};
use crate::roles::{compositor_rank, laptop_aggregators};
use crate::slo::{budgets_for, stage_budgets, SloInput};
use crate::timing::{FrameTiming, Stopwatch};

// ---------------------------------------------------------------------
// Tag epochs
// ---------------------------------------------------------------------

/// Tags advance by this stride per time step; the six stage tags of one
/// frame live in one epoch and can never collide with another frame's.
pub const EPOCH_STRIDE: u32 = 16;

/// The message tags of one time step's frame. Frame 0 is exactly the
/// legacy [`crate::pipeline::tags`] constants, so single-frame runs —
/// including the byte-golden profiled trace — are untouched. An epoch
/// tag maps back to its time step and frame-0 stage with
/// [`FrameTags::frame_of`] and [`FrameTags::base_of`] (an animation's
/// fault injector routes each send to its frame's plan that way), and
/// [`FrameTags::table`] lists every tag of the first frames for the
/// tag-discipline lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTags {
    pub io_scatter: u32,
    pub fragment: u32,
    pub tile: u32,
    pub io_ack: u32,
    pub frag_ack: u32,
    pub tile_ack: u32,
    /// Recovery orchestrator: adoption requests, the late fragments
    /// they produce, their shared ack channel, and the frame-complete
    /// broadcast.
    pub adopt: u32,
    pub late: u32,
    pub rec_ack: u32,
    pub done: u32,
}

impl FrameTags {
    pub fn for_frame(frame: usize) -> FrameTags {
        let base = EPOCH_STRIDE * frame as u32;
        FrameTags {
            io_scatter: tags::IO_SCATTER + base,
            fragment: tags::FRAGMENT + base,
            tile: tags::TILE + base,
            io_ack: tags::IO_ACK + base,
            frag_ack: tags::FRAG_ACK + base,
            tile_ack: tags::TILE_ACK + base,
            adopt: tags::ADOPT + base,
            late: tags::LATE + base,
            rec_ack: tags::REC_ACK + base,
            done: tags::DONE + base,
        }
    }

    /// The frame-0 stage tag an epoch tag descends from.
    pub fn base_of(tag: u32) -> u32 {
        ((tag - 1) % EPOCH_STRIDE) + 1
    }

    /// Which time step an epoch tag belongs to.
    pub fn frame_of(tag: u32) -> usize {
        ((tag - 1) / EPOCH_STRIDE) as usize
    }

    /// The full tag table of an animation's first `frames` time steps,
    /// for tag-discipline lint over the multi-frame tag space.
    pub fn table(frames: usize) -> Vec<(u32, String)> {
        let mut out = Vec::with_capacity(frames * tags::ALL.len());
        for t in 0..frames {
            let base = EPOCH_STRIDE * t as u32;
            for (tag, name) in tags::ALL {
                out.push((tag + base, format!("frame{t}/{name}")));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Fault state
// ---------------------------------------------------------------------

/// The striped-store description every fault frame audits its reads
/// against, matched to laptop-scale test files: 8 servers with 64 KiB
/// stripes, so even a few-megabyte dataset spreads across every server
/// and per-server faults have distinct footprints. (ANL's 4 MiB
/// stripes would put an entire small test file on server 0.)
fn laptop_store() -> StripedStore {
    StripedStore {
        servers: 8,
        stripe_unit: 64 << 10,
    }
}

/// The fault state of one message-passing frame: the plan, the
/// effective policy that answers it, and the storage fault set derived
/// from the two. A frame carries one of these or nothing; only the
/// decision points of the module docs ask which.
pub(crate) struct FrameFaults {
    pub(crate) plan: FaultPlan,
    pub(crate) policy: RecoveryPolicy,
    store: StripedStore,
    servers: ServerFaults,
}

impl FrameFaults {
    pub(crate) fn new(plan: FaultPlan, policy: RecoveryPolicy) -> FrameFaults {
        let store = laptop_store();
        FrameFaults {
            servers: plan.server_faults(store.servers),
            plan,
            policy,
            store,
        }
    }
}

/// Routes each tag epoch's traffic to that frame's own plan, so one
/// long-lived world runs per-frame fault plans (a single frame is
/// epoch 0). Tags outside every epoch are delivered as they are.
struct EpochInjector {
    frames: Vec<PlanInjector>,
}

impl FaultInjector for EpochInjector {
    fn on_send(&self, src: usize, dst: usize, tag: u32, seq: u64, data: &mut Vec<u8>) -> SendFate {
        if tag == 0 {
            return SendFate::Deliver;
        }
        match self.frames.get(FrameTags::frame_of(tag)) {
            Some(inj) => inj.on_send(src, dst, FrameTags::base_of(tag), seq, data),
            None => SendFate::Deliver,
        }
    }
}

// ---------------------------------------------------------------------
// Rayon executor
// ---------------------------------------------------------------------

/// Where a rayon frame's volume data comes from.
pub(crate) enum FrameInput<'a> {
    /// Sample the synthetic field procedurally (no I/O).
    Synthetic,
    /// Read the dataset file in the Read stage.
    File(&'a Path),
    /// Volumes already read and decoded by a prefetch thread, the
    /// realized I/O stats, and how long the background read took
    /// (charged to the frame's `io` stage time even though it was hidden
    /// under earlier frames).
    Prefetched {
        volumes: Vec<pvr_volume::Volume>,
        io: IoRunStats,
        io_secs: f64,
    },
}

/// One data-parallel frame: logical ranks in one address space, rayon
/// inside each stage. Reads, renders and composites in order; direct
/// send already pastes tiles into the final image, so there is no
/// gather to run.
pub(crate) fn rayon_frame(
    cfg: &FrameConfig,
    shared: &FrameShared,
    input: FrameInput<'_>,
    tracer: &Tracer,
    throttle: Option<IoThrottle>,
    flight: &FlightRecorder,
) -> Result<FrameResult, FrameError> {
    flight.begin_frame();
    if tracer.enabled() {
        for r in 0..cfg.nprocs {
            tracer.name_track(r as u32, &format!("rank {r}"));
        }
    }
    tracer.begin_args(0, "frame", pvr_obs::Args::one("ranks", cfg.nprocs as u64));
    let t0 = Instant::now();
    let mut sw = Stopwatch::start();
    let mut timing = FrameTiming::default();

    timing.starts[0] = t0.elapsed().as_secs_f64();
    tracer.begin(0, "io");
    let (volumes, io, io_secs) = match read_input(cfg, &shared.stored, input, tracer, throttle) {
        Ok(read) => read,
        Err(e) => {
            tracer.end(0, "io");
            tracer.end(0, "frame");
            return Err(e);
        }
    };
    tracer.end_args(0, "io", pvr_obs::Args::one("useful_bytes", io.useful_bytes));
    // A prefetched frame charges the background read's real duration,
    // not the (near-zero) in-frame hand-off.
    timing.io = io_secs + sw.lap();

    timing.starts[1] = t0.elapsed().as_secs_f64();
    tracer.begin(0, "render");
    let rendered: Vec<(SubImage, RenderStats)> = volumes
        .par_iter()
        .enumerate()
        .map(|(rank, vol)| {
            let dom = shared.domain(cfg, rank);
            tracer.begin(rank as u32, "render.block");
            let (sub, stats) = render_block(vol, &dom, &shared.camera, &shared.tf, &shared.ropts);
            tracer.end_args(
                rank as u32,
                "render.block",
                pvr_obs::Args::two("samples", stats.samples, "rays", stats.rays),
            );
            (sub, stats)
        })
        .collect();
    timing.render = sw.lap();
    let mut render = RenderStats::default();
    let mut subs = Vec::with_capacity(rendered.len());
    for (sub, stats) in rendered {
        render.merge(&stats);
        subs.push(sub);
    }
    tracer.end_args(
        0,
        "render",
        pvr_obs::Args::three(
            "samples",
            render.samples,
            "packets",
            render.packets,
            "terminated_rays",
            render.terminated_rays,
        ),
    );
    crate::pipeline::recycle_volumes(volumes);

    timing.starts[2] = t0.elapsed().as_secs_f64();
    tracer.begin(0, "composite");
    let (image, composite) =
        pvr_compositing::composite_direct_send_traced(&subs, shared.partition, tracer);
    let messages = composite.messages as u64;
    tracer.end_args(0, "composite", pvr_obs::Args::one("messages", messages));
    timing.composite = sw.lap();

    tracer.end(0, "frame");
    timing.wall = t0.elapsed().as_secs_f64();
    // The shared address space has no per-rank stage decomposition and
    // no rank to lose: the frame-level stage times gate.
    let stage_secs = [timing.io, timing.render, timing.composite];
    let slo = crate::slo::evaluate(&SloInput {
        budgets: budgets_for(cfg, &stage_secs, &[], &[], || shared.budgets()),
        stage_secs,
        per_rank: &[],
        incidents: &[],
    });
    crate::slo::record_frame_flight(flight, &slo, &[], &timing.recovery);
    timing.slo = Some(slo);
    Ok(FrameResult::new(image, timing, io, &render, composite))
}

/// A rayon frame's volumes and I/O stats from its input, plus the
/// seconds a background read already spent on them.
fn read_input(
    cfg: &FrameConfig,
    stored: &[Subvolume],
    input: FrameInput<'_>,
    tracer: &Tracer,
    throttle: Option<IoThrottle>,
) -> Result<(Vec<pvr_volume::Volume>, IoRunStats, f64), FrameError> {
    match input {
        FrameInput::Synthetic => Ok((synthesize_stage(cfg, stored), IoRunStats::default(), 0.0)),
        FrameInput::File(p) => {
            let read = read_frame(cfg, stored, p, tracer, throttle);
            let (volumes, io) = read.map_err(|e| FrameError::io(p, e))?;
            Ok((volumes, io, 0.0))
        }
        FrameInput::Prefetched {
            volumes,
            io,
            io_secs,
        } => Ok((volumes, io, io_secs)),
    }
}

// ---------------------------------------------------------------------
// Frame-invariant shared state
// ---------------------------------------------------------------------

/// Everything about a frame that is a pure function of the
/// configuration, derived once per [`drive_frame`] /
/// [`crate::anim::run_animation`] and read by every consumer: both
/// executors, the recovery ladder, the SLO budgets, the perf model's
/// schedule, the schedule linter. No other code in this crate turns a
/// [`FrameConfig`] into blocks, footprints or a schedule, and no rank
/// scans the global schedule for its own rows — who sends what and who
/// owns which tile are slices of this one description.
pub struct FrameShared {
    /// Stored (ghost-extended) and owned region per rank.
    pub(crate) stored: Vec<Subvolume>,
    pub(crate) owned: Vec<Subvolume>,
    pub(crate) camera: Camera,
    /// Screen footprint of each rank's owned block.
    pub(crate) footprints: Vec<PixelRect>,
    pub(crate) partition: ImagePartition,
    /// `partition.tile(c)` of every compositor, computed once: a frame
    /// looks one up per fragment, and each costs six integer divisions.
    tiles: Vec<PixelRect>,
    /// The direct-send schedule, rows grouped by ascending renderer.
    pub(crate) schedule: Schedule,
    pub(crate) tf: TransferFunction,
    pub(crate) ropts: RenderOpts,
    /// Modeled seconds to re-render each block: the heal ladder's
    /// currency and the survivor assignment's load measure.
    heal_costs: Vec<f64>,
    /// Rank of each compositor, ascending (`m <= n` makes `c -> c*n/m`
    /// injective). Also the ranks guaranteed to be polling the recovery
    /// channel: compositors serve adoption while they wait for fragments
    /// and linger until the frame-complete broadcast, and rank 0 — always
    /// compositor 0 — serves through the gather.
    pub(crate) compositor_ranks: Vec<usize>,
    /// `schedule.messages[send_start[r]..send_start[r + 1]]` are the
    /// rows rank `r` sends.
    send_start: Vec<usize>,
    /// Per tile, `(renderer, pixels)` of every row, in schedule order.
    sources: Vec<Vec<(usize, f64)>>,
    /// The configuration this description was built from.
    cfg: FrameConfig,
    /// The SLO's stage budgets, priced on the first frame that asks
    /// (the perf model walks the whole schedule) and kept for every
    /// later step of an animation.
    budgets: OnceLock<[f64; 3]>,
}

impl FrameShared {
    pub fn new(cfg: &FrameConfig) -> FrameShared {
        let (n, m) = (cfg.nprocs, cfg.compositors());
        let decomp = BlockDecomposition::new(cfg.grid, n);
        let blocks = decomp.blocks();
        // Gradient shading probes one cell around each sample, so it needs
        // a second ghost layer for exact serial equivalence.
        let ghost = if cfg.shading { 2 } else { 1 };
        let stored = blocks.iter().map(|b| decomp.with_ghost(b, ghost)).collect();
        let owned: Vec<Subvolume> = blocks.iter().map(|b| b.sub).collect();
        let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
        let footprints: Vec<PixelRect> = owned
            .iter()
            .map(|o| footprint(&camera, o.offset, o.end(), cfg.image))
            .collect();
        let partition = ImagePartition::new(cfg.image.0, cfg.image.1, m);
        let schedule = build_schedule(&footprints, partition);

        // The send ranges rely on the order `build_schedule` emits.
        let rows = &schedule.messages;
        debug_assert!(rows.windows(2).all(|w| w[0].renderer <= w[1].renderer));
        let send_start = (0..=n)
            .map(|r| rows.partition_point(|msg| msg.renderer < r))
            .collect();
        let mut sources: Vec<Vec<(usize, f64)>> = schedule
            .per_compositor_counts()
            .into_iter()
            .map(Vec::with_capacity)
            .collect();
        for msg in rows {
            sources[msg.compositor].push((msg.renderer, msg.pixels as f64));
        }
        FrameShared {
            heal_costs: heal_costs(cfg, &footprints, &owned),
            compositor_ranks: (0..m).map(|c| compositor_rank(c, n, m)).collect(),
            stored,
            owned,
            camera,
            footprints,
            tiles: (0..m).map(|c| partition.tile(c)).collect(),
            partition,
            schedule,
            tf: transfer_for(cfg),
            ropts: render_opts(cfg),
            send_start,
            sources,
            cfg: *cfg,
            budgets: OnceLock::new(),
        }
    }

    /// [`stage_budgets`] of the configuration this description was
    /// built from.
    fn budgets(&self) -> [f64; 3] {
        *self
            .budgets
            .get_or_init(|| stage_budgets(&self.cfg, &self.schedule))
    }

    /// Screen footprint of each rank's owned block.
    pub fn footprints(&self) -> &[PixelRect] {
        &self.footprints
    }

    /// The direct-send schedule both executors run.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Modeled seconds to re-render each block, index = rank.
    pub fn heal_costs(&self) -> &[f64] {
        &self.heal_costs
    }

    /// The schedule rows `rank` sends, in schedule order.
    pub fn sends_of(&self, rank: usize) -> &[CompositeMessage] {
        &self.schedule.messages[self.send_start[rank]..self.send_start[rank + 1]]
    }

    /// The pixels compositor `c` owns.
    pub(crate) fn tile(&self, c: usize) -> PixelRect {
        self.tiles[c]
    }

    /// The tile `rank` composites, if it is a compositor.
    pub fn tile_of(&self, rank: usize) -> Option<usize> {
        self.compositor_ranks.binary_search(&rank).ok()
    }

    /// `(renderer, pixels)` of every fragment `tile` expects.
    pub fn sources_of(&self, tile: usize) -> &[(usize, f64)] {
        &self.sources[tile]
    }

    /// Expected blended area of `tile` — fault-independent.
    fn expected_area(&self, tile: usize) -> f64 {
        self.sources[tile].iter().map(|(_, px)| *px).sum()
    }

    fn domain(&self, cfg: &FrameConfig, rank: usize) -> BlockDomain {
        BlockDomain {
            grid: cfg.grid,
            owned: self.owned[rank],
            stored: self.stored[rank],
        }
    }
}

/// The file half of a frame description: how the ranks of a
/// message-passing world read their blocks out of one dataset file.
/// Built only where ranks read through it — the data-parallel read goes
/// through `pipeline::read_frame` to `two_phase_decode`, which plans for
/// itself.
struct FilePlan {
    /// The file's layout and the variable the frame reads: a rank's
    /// placed runs are rebuilt from them where a rank reads its own
    /// block ([`FilePlan::request`]), so no per-rank copy of them lives
    /// through the frame.
    layout: Box<dyn FileLayout>,
    var: usize,
    /// Two-phase scatter plan (collective layouts only), which holds
    /// every rank's runs once.
    scatter: Option<ScatterPlan>,
    endian: Endian,
    /// Per rank, the extents of the window accesses it hosts as an
    /// aggregator, in plan order.
    windows: Vec<Vec<Extent>>,
}

impl FilePlan {
    fn new(cfg: &FrameConfig, stored: &[Subvolume]) -> FilePlan {
        let n = cfg.nprocs;
        let layout = cfg.io.layout(cfg.grid);
        let var = cfg.file_variable();
        let scatter = layout.collective().then(|| {
            let requests = rank_requests(layout.as_ref(), var, stored);
            let naggr = laptop_aggregators(n);
            ScatterPlan::build(&requests, naggr, &cfg.io.hints(cfg.grid))
        });
        let mut windows = vec![Vec::new(); n];
        if let Some(sp) = &scatter {
            for a in &sp.plan.accesses {
                windows[sp.aggregator_rank(a.aggregator, n)].push(a.extent);
            }
        }
        FilePlan {
            endian: layout.endian(),
            layout,
            var,
            scatter,
            windows,
        }
    }

    /// The placed-run read request of the rank whose stored block is
    /// `sub`.
    fn request(&self, sub: &Subvolume) -> RankRequest {
        rank_request(self.layout.as_ref(), self.var, sub)
    }
}

/// Messages a fault-free message-passing frame of `cfg` sends, counted
/// from its plans alone: one scatter body per (window, destination), one
/// fragment per schedule row, one tile per compositor. The executed
/// count (`SimStats::messages`) is pinned to this in `scheduler::tests`
/// and `tests/sim_scale.rs`.
pub fn planned_messages(cfg: &FrameConfig) -> usize {
    let shared = FrameShared::new(cfg);
    let file = FilePlan::new(cfg, &shared.stored);
    let mut messages = shared.schedule.num_messages() + cfg.compositors();
    if let Some(sp) = &file.scatter {
        for a in &sp.plan.accesses {
            let sends = sp.sends_in(a.extent);
            messages += sends.chunk_by(|a, b| a.rank == b.rank).count();
        }
    }
    messages
}

// ---------------------------------------------------------------------
// Message-passing executor (one rank's frame)
// ---------------------------------------------------------------------

/// Window bytes a prefetch thread fetched for this rank's aggregator
/// duty: one buffer per window access this rank hosts, in plan order.
#[derive(Debug)]
pub struct PrefetchedWindows {
    pub bufs: Vec<Vec<u8>>,
    /// Wall seconds the background read took (including any throttle
    /// padding) — charged to the frame's `io` stage time.
    pub io_secs: f64,
}

/// Rank 0's gathered frame: the final image and its per-tile
/// completeness.
#[derive(Debug)]
pub struct Gathered {
    pub image: Image,
    pub completeness: CompletenessMap,
}

/// What each rank hands back to the driver.
#[derive(Debug, Default)]
pub struct RankOut {
    /// Filled by rank 0's gather alone; boxed so that no other rank
    /// carries room for it.
    pub gathered: Option<Box<Gathered>>,
    pub timing: RankTiming,
    /// This rank's render-kernel statistics (samples, skips, packets,
    /// lane utilization, early terminations, bounded-error bound).
    pub render: RenderStats,
    /// Honest wire bytes this rank sent (per fragment, the cheaper of
    /// the dense and sparse encodings).
    pub sent_bytes: u64,
    /// What the same fragments would have cost shipped dense — the
    /// schedule's prediction.
    pub sent_dense_bytes: u64,
    /// Fragments that went out sparse-encoded.
    pub sparse_messages: usize,
    /// Fragments this rank sent to compositors.
    pub sent_messages: usize,
    /// `(tile, fragments received)` when this rank composited a tile.
    pub tile_messages: Option<(usize, usize)>,
    /// What healing cost this rank; `None` until recovery did something
    /// here, which takes a fault plan.
    pub recovery: Option<Box<RankRecovery>>,
}

/// One rank's stage clock: the [`FrameTiming`] fields a rank measures
/// itself (recovery counters and the SLO verdict belong to the frame,
/// and only the driver fills them).
#[derive(Debug, Clone, Copy, Default)]
pub struct RankTiming {
    pub io: f64,
    pub render: f64,
    pub composite: f64,
    pub starts: [f64; 3],
    pub wall: f64,
}

/// What healing cost one rank.
#[derive(Debug, Default)]
pub struct RankRecovery {
    pub counters: RecoveryCounters,
    pub io_failover_bytes: u64,
    pub io_unrecovered_bytes: u64,
    /// Image fraction of this rank's coarse-rung heals
    /// ([`FrameTiming::error_bound`]).
    pub error_bound: f64,
}

/// Fraction of `of` requested bytes that arrived intact when `lost`
/// did not.
fn served_fraction(lost: u64, of: u64) -> f64 {
    if of == 0 {
        1.0
    } else {
        1.0 - lost as f64 / of as f64
    }
}

/// The part of `lost` that falls inside `within`, as a byte range
/// relative to `within`'s start.
fn clip(lost: &Extent, within: Extent) -> std::ops::Range<usize> {
    let rel = |at: u64| (at.clamp(within.offset, within.end()) - within.offset) as usize;
    rel(lost.offset)..rel(lost.end())
}

/// What a failed in-world dataset read says: of 4096 ranks, which one,
/// on which file, asking for which bytes. The launcher checks every
/// file's length before the world starts, so this is a file that changed
/// under a running frame — and a rank cannot return an error its peers
/// are blocked waiting on.
fn read_failure(rank: usize, op: &str, path: &Path, at: Extent, e: &std::io::Error) -> String {
    format!(
        "rank {rank}: {op} of {} failed for the extent at offset {} of length {}: {e}",
        path.display(),
        at.offset,
        at.len
    )
}

/// How long a rank waits for its peers. Under a fault plan every wait
/// is a slice of the effective policy's deadlines; without one nothing
/// can be lost, so receives block and no limit ever passes.
#[derive(Debug, Clone, Copy)]
struct Limits {
    /// Length of one timed receive; `None` blocks.
    poll: Option<Duration>,
    stage: Duration,
    suspicion: Duration,
    drain: Duration,
}

/// What a faulted frame opens at its composite stage to heal around
/// dead ranks.
struct Recovery<'a> {
    faults: &'a FrameFaults,
    /// Control channel — adoption requests, the late fragments they
    /// produce, the frame-complete broadcast — acked on one shared tag.
    out: OutBox,
    inb: InBox,
    /// Degradation-ladder ledger for this rank's heals.
    budget: RecoveryBudget,
    /// Orphan blocks this rank adopted this frame, keyed by the dead
    /// renderer: the re-render (`None` when the budget only allowed a
    /// skip) and the I/O quality of the re-read. One re-render serves
    /// every tile that needs a piece.
    adopted: HashMap<usize, (Option<SubImage>, f64)>,
}

/// One rank's frame on the message-passing executor: one body per
/// stage, whether or not the frame carries a fault plan (module docs),
/// run in order by `RankExec::run`.
pub struct RankExec<'a> {
    comm: &'a mut pvr_mpisim::Comm,
    cfg: &'a FrameConfig,
    path: &'a Path,
    faults: Option<&'a FrameFaults>,
    limits: Limits,
    tags: FrameTags,
    /// The store's bandwidth floor and the wall instant this frame's
    /// live reads are floored from ([`RankExec::pad_throttle`]).
    throttle: Option<(IoThrottle, &'a OnceLock<Instant>)>,
    windows: Option<PrefetchedWindows>,
    // --- per-frame state, built up stage by stage ---
    sw: Stopwatch,
    t0: Instant,
    /// What this rank hands back, filled in as the stages run.
    out: RankOut,
    /// The frame description every rank reads its slices from.
    shared: &'a FrameShared,
    file: &'a FilePlan,
    volume: Option<pvr_volume::Volume>,
    /// Fraction of this rank's requested bytes that arrived intact.
    io_quality: f64,
    sub: Option<SubImage>,
    /// The fragment sender, polled on through the gather.
    frag_out: Option<OutBox>,
    /// My finished tile as its wire message, awaiting the gather.
    tile_msg: Option<Vec<u8>>,
    /// Boxed: only a faulted frame opens it.
    rec: Option<Box<Recovery<'a>>>,
}

impl<'a> RankExec<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        comm: &'a mut pvr_mpisim::Comm,
        cfg: &'a FrameConfig,
        path: &'a Path,
        faults: Option<&'a FrameFaults>,
        tags: FrameTags,
        throttle: Option<(IoThrottle, &'a OnceLock<Instant>)>,
        windows: Option<PrefetchedWindows>,
        shared: &'a FrameShared,
        file: &'a FilePlan,
    ) -> RankExec<'a> {
        // Decision point (b).
        let limits = match faults {
            Some(f) => Limits {
                poll: Some(f.policy.poll),
                stage: f.policy.stage_deadline,
                suspicion: f.policy.suspicion,
                drain: f.policy.drain,
            },
            None => Limits {
                poll: None,
                stage: Duration::MAX,
                suspicion: Duration::MAX,
                drain: Duration::MAX,
            },
        };
        RankExec {
            comm,
            cfg,
            path,
            faults,
            limits,
            tags,
            throttle,
            windows,
            sw: Stopwatch::start(),
            t0: Instant::now(),
            out: RankOut::default(),
            shared,
            file,
            volume: None,
            io_quality: 1.0,
            sub: None,
            frag_out: None,
            tile_msg: None,
            rec: None,
        }
    }

    /// File extents of the window accesses this rank hosts as an
    /// aggregator — what a prefetch thread should read for the next
    /// frame (the scatter geometry is frame-invariant). Empty for
    /// non-aggregators and independent I/O.
    fn my_window_extents(&self) -> &'a [Extent] {
        &self.file.windows[self.comm.rank()]
    }

    // --- What a fault plan changes: the decision points -------------

    /// (a) Both halves of a link: acked under a plan, pass-through
    /// without.
    fn link(&self, ack_tag: u32) -> (OutBox, InBox) {
        let policy = self.faults.map(|f| f.policy.link_policy());
        link::pair(self.comm.rank(), ack_tag, policy)
    }

    /// (b) One receive of a stage's loop: a `poll`-long slice of the
    /// stage deadline (`None` = nothing yet), or a blocking receive.
    async fn recv(&mut self, tag: u32) -> Option<(usize, Vec<u8>)> {
        match self.limits.poll {
            Some(poll) => self.comm.recv_any_timeout(tag, poll).await,
            None => Some(self.comm.recv_any(tag).await),
        }
    }

    /// The instant `limit` from now; `Duration::MAX` — never — for an
    /// unbounded limit.
    fn after(&self, limit: Duration) -> Duration {
        self.comm.now().saturating_add(limit)
    }

    /// Whether `instant` has come.
    fn past(&self, instant: Duration) -> bool {
        self.comm.now() >= instant
    }

    /// (c) Close a stage and return its seconds. The span ends before
    /// the barrier of the paper's bulk-synchronous frame, so it measures
    /// this rank's own progress and the wait accrues to the parent span.
    /// A faulted frame posts no barrier — a crashed rank could never
    /// reach it.
    async fn stage_end(&mut self, span: &'static str) -> f64 {
        self.comm.span_end(span);
        if self.faults.is_none() {
            self.comm.barrier().await;
        }
        self.sw.lap()
    }

    /// (d) What the plan injects here; nothing without a plan.
    fn planned<T: Default>(&self, ask: impl FnOnce(&FrameFaults) -> T) -> T {
        self.faults.map(ask).unwrap_or_default()
    }

    /// (e) Open the recovery channel (faulted frames only): without it
    /// nothing below pumps, adopts, broadcasts or lingers.
    fn open_recovery(&mut self) {
        let (rank, rec_ack) = (self.comm.rank(), self.tags.rec_ack);
        self.rec = self.faults.map(|faults| {
            let (out, inb) = link::pair(rank, rec_ack, Some(faults.policy.link_policy()));
            Box::new(Recovery {
                faults,
                out,
                inb,
                budget: RecoveryBudget::for_frame(self.cfg, &faults.policy),
                adopted: HashMap::new(),
            })
        });
    }

    /// This rank's recovery ledger, opened on first use.
    fn healing(&mut self) -> &mut RankRecovery {
        self.out.recovery.get_or_insert_default()
    }

    /// Add `counters` to the ledger; all-zero counters (every
    /// pass-through link's) open nothing.
    fn count(&mut self, counters: RecoveryCounters) {
        if counters != RecoveryCounters::default() {
            self.healing().counters.merge(&counters);
        }
    }

    /// Record what the read of this rank's block failed over and lost
    /// for good; nothing when both are zero.
    fn record_io(&mut self, failover_bytes: u64, unrecovered_bytes: u64) {
        if failover_bytes > 0 || unrecovered_bytes > 0 {
            let rec = self.healing();
            rec.io_failover_bytes = failover_bytes;
            rec.io_unrecovered_bytes = unrecovered_bytes;
        }
    }

    /// Open a stage: its start offset, its span, and the rank fault the
    /// plan pins here. `Break` when this rank crashes; the span
    /// bookkeeping of the abandoned frame is already done. The gather
    /// opens no stage of its own: it rides on the composite stage's
    /// deadlines and has no fault index.
    async fn stage_begin(&mut self, stage: Stage, span: &'static str) -> ControlFlow<()> {
        self.out.timing.starts[stage.index()] = self.t0.elapsed().as_secs_f64();
        self.comm.span_begin(span);
        let rank = self.comm.rank();
        match self.planned(|f| f.plan.rank_fault(rank, stage)) {
            Some(RankAction::Crash) => {
                self.comm.mark_instant("rank.crash", stage.index() as u64);
                self.comm.span_end(span);
                self.comm.span_end("frame");
                if stage == Stage::Io {
                    self.out.timing.io = self.sw.lap();
                }
                return ControlFlow::Break(());
            }
            // Straggles cost simulated seconds, not wall clock: the
            // world's virtual timer parks this rank while everyone else
            // runs on.
            Some(RankAction::StraggleMs(ms)) => self.comm.sleep(Duration::from_millis(ms)).await,
            None => {}
        }
        ControlFlow::Continue(())
    }

    /// The storage-fault verdict on one read, its retries and failovers
    /// counted.
    fn audit(&mut self, read: Extent) -> WindowAudit {
        let audit = self
            .planned(|f| window_fault_audit(&f.store, &f.servers, &f.policy.io_recovery(), read));
        self.count(RecoveryCounters {
            io_retries: audit.retries,
            io_failovers: audit.failovers,
            ..RecoveryCounters::default()
        });
        audit
    }

    /// Drive every open sender: take acks, retransmit what is overdue.
    async fn poll_links(&mut self, outs: &mut [&mut OutBox]) {
        for out in outs {
            out.poll(self.comm).await;
        }
        if let Some(rec) = self.rec.as_mut() {
            rec.out.poll(self.comm).await;
        }
    }

    // --- Read stage ------------------------------------------------

    async fn stage_read(&mut self) -> ControlFlow<()> {
        self.stage_begin(Stage::Io, "io").await?;
        let file = self.file;
        let stored = &self.shared.stored[self.comm.rank()];
        let bytes = if let Some(sp) = &file.scatter {
            self.scatter(sp, stored).await
        } else {
            self.read_independent(&file.request(stored)).await
        };
        self.volume = Some(decode_volume(&bytes, stored, file.endian));
        // Background-read seconds of a prefetched frame (0 when live).
        let prefetch_secs = self.windows.as_ref().map_or(0.0, |w| w.io_secs);
        self.out.timing.io = self.stage_end("io").await + prefetch_secs;
        ControlFlow::Continue(())
    }

    /// Sleep out, in wall time, what the throttle still owes for `bytes`
    /// this rank read live since `since` — the clock a prefetch thread
    /// pays the same floor in (`read_extents`), so a sequential and a
    /// pipelined animation are slowed by the same store. The floor counts
    /// from the frame's first live read, not from this rank's: the ranks
    /// of the single-threaded event core read one after another, and
    /// floors counted from each rank's own start would add up where the
    /// prefetch threads' overlap.
    fn pad_throttle(&self, bytes: u64, since: Instant) {
        if let Some((throttle, first_read)) = self.throttle {
            throttle.pad(bytes, *first_read.get_or_init(|| since));
        }
    }

    /// Fill `buf` from byte `offset` of the dataset, opening it on first
    /// use; a failure panics with [`read_failure`].
    fn read_at(&self, file: &mut Option<File>, offset: u64, buf: &mut [u8]) {
        let (rank, path) = (self.comm.rank(), self.path);
        let at = Extent::new(offset, buf.len() as u64);
        let fail = |op, e| -> ! { panic!("{}", read_failure(rank, op, path, at, &e)) };
        let f = file.get_or_insert_with(|| File::open(path).unwrap_or_else(|e| fail("open", e)));
        f.read_exact_at(buf, offset)
            .unwrap_or_else(|e| fail("read", e));
    }

    /// Put one window's bytes in `buf`, the aggregator's one window
    /// buffer: the prefetched buffer, moved in, when the animation
    /// driver fetched it ahead of time; otherwise a live (optionally
    /// throttled) positional read into `buf` resized to the window, so
    /// it allocates only past the largest window so far.
    fn window_bytes(
        &mut self,
        idx: usize,
        w: Extent,
        file: &mut Option<File>,
        buf: &mut Vec<u8>,
        live_bytes: &mut u64,
    ) {
        if let Some(pre) = self.windows.as_mut().and_then(|pw| pw.bufs.get_mut(idx)) {
            *buf = std::mem::take(pre);
            return;
        }
        buf.resize(w.len as usize, 0);
        self.read_at(file, w.offset, buf);
        *live_bytes += w.len;
    }

    /// Two-phase scatter: each aggregator reads its windows — storage
    /// faults audited per window, holes zero-filled and reported in each
    /// piece's header — and sends every rank one message per window, all
    /// its pieces of it; then every rank receives until its pieces are
    /// complete or the stage deadline.
    async fn scatter(&mut self, sp: &ScatterPlan, stored: &Subvolume) -> Vec<u8> {
        let rank = self.comm.rank();
        let (mut io_out, mut io_in) = self.link(self.tags.io_ack);
        let mut failover_bytes = 0u64;
        let t_read = Instant::now();
        let mut live_bytes = 0u64;
        let mut file: Option<File> = None;
        let mut buf = Vec::new();
        for (i, w) in self.my_window_extents().iter().enumerate() {
            self.comm.span_begin_v("io.window", w.len);
            let audit = self.audit(*w);
            failover_bytes += audit.failover_bytes;
            self.window_bytes(i, *w, &mut file, &mut buf, &mut live_bytes);
            for lost in &audit.unrecoverable {
                buf[clip(lost, *w)].fill(0);
            }
            for group in sp.sends_in(*w).chunk_by(|a, b| a.rank == b.rank) {
                let mut body =
                    Vec::with_capacity(group.iter().map(|p| PIECE_HEADER + p.len()).sum());
                for p in group {
                    let piece = Extent::new(p.file_lo, p.file_hi - p.file_lo);
                    let lost = audit.unrecoverable.iter().map(|e| clip(e, piece).len());
                    let hole = lost.sum::<usize>() as u64;
                    push_piece(&mut body, p.out_byte, hole, &buf[p.src_lo..p.src_hi]);
                }
                io_out
                    .send(self.comm, group[0].rank, self.tags.io_scatter, body)
                    .await;
            }
            self.comm.span_end("io.window");
        }
        self.pad_throttle(live_bytes, t_read);

        let mut out = vec![0u8; stored.num_elements() * ELEM_SIZE as usize];
        let (mut arrived, mut holes, mut got) = (0u64, 0u64, 0usize);
        let deadline = self.after(self.limits.stage);
        let suspect_at = self.after(self.limits.suspicion);
        while got < sp.piece_counts[rank] && !self.past(deadline) {
            io_out.poll(self.comm).await;
            if let Some((src, frame)) = self.recv(self.tags.io_scatter).await {
                if let Some(body) = io_in.accept(self.comm, src, frame).await {
                    let (pieces, bytes, hole) = unpack_pieces(&body, src, &mut out);
                    got += pieces;
                    arrived += bytes;
                    holes += hole;
                }
            }
            // A silent aggregator (crashed mid-scatter) starves this
            // rank's pieces forever. Past the suspicion window, bypass
            // the two-phase exchange entirely: re-read everything this
            // rank needs straight from the file through the same
            // storage-failover audit the aggregators use — bit-identical
            // bytes, a full stage deadline earlier.
            if got < sp.piece_counts[rank] && self.past(suspect_at) {
                let (bytes, useful, unrec, fo) = self.read_runs_audited(&self.file.request(stored));
                out = bytes;
                arrived = useful;
                holes = unrec;
                failover_bytes += fo;
                let counters = &mut self.healing().counters;
                counters.selfheal_bytes += useful;
                counters.recovery_bytes += useful;
                self.comm.mark_instant("recover.io_selfheal", useful);
                break;
            }
        }
        let drain_deadline = self.after(self.limits.drain);
        io_out.drain(self.comm, drain_deadline).await;
        self.count(io_out.counters());
        self.count(io_in.counters());

        let expected = sp.piece_bytes[rank];
        let lost = expected.saturating_sub(arrived) + holes;
        self.io_quality = served_fraction(lost, expected);
        self.record_io(failover_bytes, lost);
        out
    }

    /// Read one rank's runs straight from the file, auditing storage
    /// faults and zero-filling unrecoverable ranges. Returns the
    /// subvolume byte buffer plus `(useful, unrecovered, failover)` byte
    /// counts. Shared between independent I/O, the scatter self-heal,
    /// and orphan-block adoption — all three produce bit-identical bytes
    /// to a fault-free scatter.
    fn read_runs_audited(&mut self, req: &RankRequest) -> (Vec<u8>, u64, u64, u64) {
        let elem = ELEM_SIZE as usize;
        let mut out = vec![0u8; req.out_elems * elem];
        let (mut useful, mut unrecovered, mut failover_bytes) = (0u64, 0u64, 0u64);
        let mut file: Option<File> = None;
        for run in &req.runs {
            let nb = run.elems * elem;
            useful += nb as u64;
            let on_disk = Extent::new(run.file_offset, nb as u64);
            let audit = self.audit(on_disk);
            failover_bytes += audit.failover_bytes;
            let dst = &mut out[run.out_start * elem..run.out_start * elem + nb];
            self.read_at(&mut file, run.file_offset, dst);
            for lost in &audit.unrecoverable {
                let hole = clip(lost, on_disk);
                unrecovered += hole.len() as u64;
                dst[hole].fill(0);
            }
        }
        (out, useful, unrecovered, failover_bytes)
    }

    /// Independent (HDF5-like) path: every rank reads its own runs
    /// directly.
    async fn read_independent(&mut self, request: &RankRequest) -> Vec<u8> {
        let t_read = Instant::now();
        let (out, useful, unrecovered, failover_bytes) = self.read_runs_audited(request);
        self.pad_throttle(useful, t_read);
        self.io_quality = served_fraction(unrecovered, useful);
        self.record_io(failover_bytes, unrecovered);
        out
    }

    // --- Render stage ----------------------------------------------

    async fn stage_render(&mut self) -> ControlFlow<()> {
        self.stage_begin(Stage::Render, "render").await?;
        let shared = self.shared;
        let dom = shared.domain(self.cfg, self.comm.rank());
        let volume = self.volume.take().expect("read stage ran");
        let (sub, rstats) = render_block(&volume, &dom, &shared.camera, &shared.tf, &shared.ropts);
        self.comm.mark_instant("render.samples", rstats.samples);
        if rstats.packets > 0 {
            self.comm.mark_instant("render.packets", rstats.packets);
        }
        self.out.render = rstats;
        self.sub = Some(sub);
        self.out.timing.render = self.stage_end("render").await;
        ControlFlow::Continue(())
    }

    // --- Recovery orchestration ------------------------------------

    /// Adopt `orphan`'s block: charge the degradation ladder, re-read
    /// the dead rank's subvolume through the storage failover path, and
    /// re-render it at the rung the budget allows. Cached — one render
    /// serves every tile that needs a piece of the block.
    fn adopt_block(&mut self, orphan: usize) -> (Option<SubImage>, f64) {
        let (cfg, shared, file) = (self.cfg, self.shared, self.file);
        let rec = self.rec.as_mut().expect("recovery channel open");
        if let Some(ab) = rec.adopted.get(&orphan) {
            return ab.clone();
        }
        let coarse_step = rec.faults.policy.coarse_step_factor;
        let rung = rec.budget.charge(shared.heal_costs()[orphan], coarse_step);
        let mut ab = (None, 0.0);
        if rung != HealDecision::Skip {
            let request = file.request(&shared.stored[orphan]);
            let (bytes, useful, unrecovered, _) = self.read_runs_audited(&request);
            self.healing().counters.recovery_bytes += useful;
            let vol = decode_volume(&bytes, &shared.stored[orphan], file.endian);
            let dom = shared.domain(cfg, orphan);
            let mut ropts = shared.ropts;
            if rung == HealDecision::Coarse {
                ropts.step *= coarse_step;
                let rec = self.healing();
                rec.counters.approx_blocks += 1;
                rec.error_bound += shared.footprints[orphan].num_pixels() as f64
                    / (cfg.image.0 as f64 * cfg.image.1 as f64);
            }
            let (sub, _) = render_block(&vol, &dom, &shared.camera, &shared.tf, &ropts);
            self.healing().counters.adopted_blocks += 1;
            self.comm
                .mark_instant("recover.adopted_block", orphan as u64);
            ab = (Some(sub), served_fraction(unrecovered, useful));
        }
        if let Some(rec) = self.rec.as_mut() {
            rec.adopted.insert(orphan, ab.clone());
        }
        ab
    }

    /// Adopt `orphan`'s block myself and offer its piece of `asm`'s tile
    /// (a refusal when the ladder is out of budget), encoded as a sent
    /// fragment would be; true when it landed as the first copy.
    fn adopt_into(&mut self, orphan: usize, asm: &mut TileAssembly<'_>) -> bool {
        let (sub, quality) = self.adopt_block(orphan);
        let piece = sub
            .as_ref()
            .and_then(|s| Some((s, s.rect.intersect(&asm.rect())?)));
        match piece {
            Some((s, piece)) => {
                let frag = WireFragment::new(encode_fragment(&[], orphan, s, &piece).0, 0);
                asm.insert(orphan, quality, frag) == InsertOutcome::Fresh
            }
            None => {
                asm.refuse(orphan);
                false
            }
        }
    }

    /// Serve one adoption request: reply with a late fragment of the
    /// adopted re-render cropped to the requested tile, or an explicit
    /// refusal when the ladder is out of budget.
    async fn serve_adopt(&mut self, src: usize, body: &[u8]) {
        let (orphan, c) = decode_adopt(body);
        let (sub, quality) = self.adopt_block(orphan);
        let tile = self.shared.tile(c);
        let frag = sub
            .as_ref()
            .and_then(|s| Some((quality, s, s.rect.intersect(&tile)?)));
        let reply = encode_late(orphan, c, frag);
        if let Some(rec) = self.rec.as_mut() {
            rec.out.send(self.comm, src, self.tags.late, reply).await;
        }
    }

    /// Absorb one late-arrival reply into my open tile.
    fn accept_late(&mut self, body: Vec<u8>, asm: &mut TileAssembly<'_>) {
        let (orphan, c, frag) = decode_late(body);
        if c != asm.tile() {
            return;
        }
        let Some((quality, frag)) = frag else {
            asm.refuse(orphan);
            return;
        };
        if asm.insert(orphan, quality, frag) == InsertOutcome::Fresh {
            self.healing().counters.late_fragments += 1;
            self.comm
                .mark_instant("recover.late_fragment", orphan as u64);
        }
    }

    /// Drain the recovery channel: serve adoption requests addressed to
    /// me, absorb late replies into my open tile. Stray replies after
    /// the tile sealed are still acked (so the sender stops
    /// retransmitting) and dropped.
    async fn pump_recovery(&mut self, mut asm: Option<&mut TileAssembly<'_>>) {
        while let Some(rec) = self.rec.as_mut() {
            let Some((src, frame)) = self.comm.try_recv_any(self.tags.adopt) else {
                break;
            };
            if let Some(body) = rec.inb.accept(self.comm, src, frame).await {
                self.serve_adopt(src, &body).await;
            }
        }
        while let Some(rec) = self.rec.as_mut() {
            let Some((src, frame)) = self.comm.try_recv_any(self.tags.late) else {
                break;
            };
            if let Some(body) = rec.inb.accept(self.comm, src, frame).await {
                if let Some(asm) = asm.as_deref_mut() {
                    self.accept_late(body, asm);
                }
            }
        }
    }

    /// A renderer is suspected dead: pick its deterministic adopter
    /// (every requester computes the same seeded load-aware assignment)
    /// and ask for its fragment of my tile. Self-assignments render
    /// locally. A merely-straggling original that arrives later loses
    /// the race harmlessly: first-wins dedup keeps one copy and the
    /// re-render is deterministic, so either copy is the same pixels.
    async fn request_adoption(&mut self, orphan: usize, asm: &mut TileAssembly<'_>) {
        let Some(seed) = self.rec.as_ref().map(|rec| rec.faults.plan.seed) else {
            return;
        };
        let (shared, tile) = (self.shared, asm.tile());
        let suspects = asm.missing();
        let Some(a) = adopter_of(
            orphan,
            &suspects,
            &shared.compositor_ranks,
            seed,
            shared.heal_costs(),
        ) else {
            return;
        };
        self.healing().counters.hedged_renders += 1;
        self.comm
            .mark_instant("recover.adopt_request", orphan as u64);
        if a == self.comm.rank() {
            if self.adopt_into(orphan, asm) {
                self.healing().counters.late_fragments += 1;
            }
        } else if let Some(rec) = self.rec.as_mut() {
            let request = encode_adopt(orphan, tile);
            rec.out.send(self.comm, a, self.tags.adopt, request).await;
        }
    }

    // --- Composite stage -------------------------------------------

    /// Account one outgoing fragment under the paper's wire pricing,
    /// from the scan that encoded it: the cheaper of the dense and
    /// sparse encodings, plus the dense cost the schedule predicts.
    fn account_fragment(&mut self, scan: &PieceScan) {
        let (dense, sparse) = scan.wire_bytes();
        self.out.sent_messages += 1;
        self.out.sent_dense_bytes += dense;
        if sparse < dense {
            self.out.sparse_messages += 1;
            self.out.sent_bytes += sparse;
        } else {
            self.out.sent_bytes += dense;
        }
    }

    async fn stage_composite(&mut self) -> ControlFlow<()> {
        self.stage_begin(Stage::Composite, "composite").await?;
        let rank = self.comm.rank();
        let shared = self.shared;
        let sub = self.sub.take().expect("render stage ran");
        let (mut frag_out, mut frag_in) = self.link(self.tags.frag_ack);
        self.open_recovery();
        // One fragment per schedule row, in schedule order, the quality
        // of my input attached.
        for msg in shared.sends_of(rank) {
            if let Some(piece) = sub.rect.intersect(&shared.tile(msg.compositor)) {
                let dst = shared.compositor_ranks[msg.compositor];
                let (body, scan) = encode_fragment_msg(self.io_quality, rank, &sub, &piece);
                self.account_fragment(&scan);
                frag_out
                    .send(self.comm, dst, self.tags.fragment, body)
                    .await;
            }
        }
        // Assemble the tile I own, if any: fragments are consumed as
        // they arrive and the tile seals order-independently.
        if let Some(c) = shared.tile_of(rank) {
            let mut asm = TileAssembly::new(c, shared.tile(c), shared.sources_of(c));
            let deadline = self.after(self.limits.stage);
            let suspect_at = self.after(self.limits.suspicion);
            let mut requested: Vec<usize> = Vec::new();
            while !asm.settled() && !self.past(deadline) {
                self.poll_links(&mut [&mut frag_out]).await;
                if let Some((src, frame)) = self.recv(self.tags.fragment).await {
                    if let Some(body) = frag_in.accept(self.comm, src, frame).await {
                        let (quality, frag) = fragment_of_msg(body);
                        asm.insert(frag.renderer, quality, frag);
                    }
                }
                self.pump_recovery(Some(&mut asm)).await;
                // Past the suspicion window every renderer still
                // missing gets one adoption request — a hedge if it is
                // merely straggling (first-wins dedup makes the race
                // harmless), a heal if it is dead.
                if self.past(suspect_at) {
                    for r in asm.missing() {
                        if !requested.contains(&r) {
                            requested.push(r);
                            self.request_adoption(r, &mut asm).await;
                        }
                    }
                }
            }
            self.out.tile_messages = Some((c, asm.arrived()));
            let (expected, arrived) = (asm.expected_area(), asm.arrived_area());
            // Canonical blend order keeps recovered runs bit-identical:
            // a late-adopted fragment blends exactly as the original
            // would have.
            self.tile_msg = Some(encode_tile(c, expected, arrived, &asm.into_blend()));
        }
        self.count(frag_in.counters());
        self.frag_out = Some(frag_out);
        ControlFlow::Continue(())
    }

    // --- Gather stage ----------------------------------------------

    async fn stage_gather(&mut self) -> ControlFlow<()> {
        let (mut tile_out, mut tile_in) = self.link(self.tags.tile_ack);
        let mut frag_out = self.frag_out.take().expect("composite stage ran");
        // Ship my finished tile to rank 0.
        let composited = self.tile_msg.is_some();
        if let Some(msg) = self.tile_msg.take() {
            tile_out.send(self.comm, 0, self.tags.tile, msg).await;
        }
        let outs = &mut [&mut frag_out, &mut tile_out];
        if self.comm.rank() == 0 {
            self.gather_tiles(outs, &mut tile_in).await;
        } else if composited && self.rec.is_some() {
            // Lingering compositor: my tile is shipped, but another
            // compositor may still need me to adopt an orphan. Keep
            // serving the recovery channel until rank 0 declares the
            // frame complete (or the stage deadline passes — rank 0 may
            // itself be dead).
            let deadline = self.after(self.limits.stage);
            let mut done = false;
            while !done && !self.past(deadline) {
                self.poll_links(outs).await;
                if let Some((src, frame)) = self.recv(self.tags.done).await {
                    if let Some(rec) = self.rec.as_mut() {
                        done = rec.inb.accept(self.comm, src, frame).await.is_some();
                    }
                }
                self.pump_recovery(None).await;
            }
        }

        // Grace period: finish delivering whatever is still in flight,
        // then account the casualties.
        let drain_deadline = self.after(self.limits.drain);
        for out in [&mut frag_out, &mut tile_out] {
            out.drain(self.comm, drain_deadline).await;
            self.count(out.counters());
        }
        self.count(tile_in.counters());
        if let Some(mut rec) = self.rec.take() {
            rec.out.drain(self.comm, drain_deadline).await;
            self.count(rec.out.counters());
            self.count(rec.inb.counters());
        }
        self.out.timing.composite = self.stage_end("composite").await;
        ControlFlow::Continue(())
    }

    /// Rank 0 gathers tiles until all `m` are in or the stage deadline,
    /// serving adoption on the side; a tile whose compositor died is
    /// rebuilt locally from adopted re-renders rather than written off.
    async fn gather_tiles(&mut self, outs: &mut [&mut OutBox], tile_in: &mut InBox) {
        let (cfg, shared) = (self.cfg, self.shared);
        let m = shared.partition.m();
        let expected_areas: Vec<f64> = (0..m).map(|c| shared.expected_area(c)).collect();
        let mut img = Image::new(cfg.image.0, cfg.image.1);
        let mut got: Vec<Option<(f64, f64)>> = vec![None; m];
        let mut received = 0usize;
        let deadline = self.after(self.limits.stage);
        // The local rebuild waits two suspicion windows: a missing
        // tile's compositor may itself be mid-adoption, which needs one
        // suspicion round plus a re-render to finish.
        let rebuild_at = self.after(self.limits.suspicion.saturating_mul(2));
        let mut rebuilt = false;
        while received < m && !self.past(deadline) {
            self.poll_links(outs).await;
            if let Some((src, frame)) = self.recv(self.tags.tile).await {
                if let Some(body) = tile_in.accept(self.comm, src, frame).await {
                    let (c, expected, arrived, tile_img) = decode_tile(body);
                    // First-wins: a locally rebuilt tile is already
                    // pasted and bit-identical to the real one; a late
                    // real tile is dropped.
                    if got[c].is_none() {
                        tile_img.paste_into(&mut img);
                        got[c] = Some((expected, arrived));
                        received += 1;
                    }
                }
            }
            self.pump_recovery(None).await;
            if !rebuilt && self.past(rebuild_at) && received < m {
                rebuilt = true;
                for c in 0..m {
                    if got[c].is_some() || expected_areas[c] == 0.0 {
                        continue;
                    }
                    let sources = shared.sources_of(c);
                    let mut asm = TileAssembly::new(c, shared.tile(c), sources);
                    for (r, _) in sources {
                        self.adopt_into(*r, &mut asm);
                    }
                    got[c] = Some((asm.expected_area(), asm.arrived_area()));
                    img.paste(&asm.into_blend());
                    received += 1;
                    self.healing().counters.adopted_tiles += 1;
                    self.comm.mark_instant("recover.tile_rebuilt", c as u64);
                }
            }
        }
        let mut degraded = 0;
        let tiles = (0..m)
            .map(|c| {
                let (expected, arrived) = got[c].unwrap_or_else(|| {
                    if expected_areas[c] > 0.0 {
                        degraded += 1;
                    }
                    (expected_areas[c], 0.0)
                });
                TileCompleteness {
                    tile: c,
                    rect: shared.tile(c),
                    expected,
                    arrived,
                }
            })
            .collect();
        if degraded > 0 {
            self.healing().counters.degraded_tiles += degraded;
            self.comm.mark_instant("composite.degraded_tiles", degraded);
        }
        self.out.gathered = Some(Box::new(Gathered {
            image: img,
            completeness: CompletenessMap { tiles },
        }));
        // Frame complete: release the lingering compositors.
        if let Some(rec) = self.rec.as_mut() {
            for &h in &shared.compositor_ranks[1..] {
                rec.out.send(self.comm, h, self.tags.done, Vec::new()).await;
            }
        }
    }
}

impl RankExec<'_> {
    /// Run this rank's frame: read, render, composite and gather in
    /// order, stopping at the first stage that crashes the rank.
    /// `after_read` runs once the read has handed off — `run_world`
    /// launches the next frame's prefetch from it. Borrows the rank: a
    /// future that took it by value would lay its state out twice.
    async fn run(&mut self, after_read: impl FnOnce(&Self)) -> RankOut {
        self.sw = Stopwatch::start();
        self.t0 = Instant::now();
        self.comm.span_begin("frame");
        let stages = async {
            self.stage_read().await?;
            after_read(self);
            self.stage_render().await?;
            self.stage_composite().await?;
            self.stage_gather().await
        };
        if stages.await.is_break() {
            self.healing().counters.crashed_ranks += 1;
        } else {
            self.comm.span_end("frame");
            self.out.timing.wall = self.t0.elapsed().as_secs_f64();
        }
        std::mem::take(&mut self.out)
    }
}

// ---------------------------------------------------------------------
// The one driver
// ---------------------------------------------------------------------

/// Which executor runs the frame.
enum Exec {
    Rayon,
    Mpi(pvr_mpisim::RunOptions),
}

/// One frame, fully configured: start from [`Driver::rayon`] or
/// [`Driver::mpi`] and chain the modifiers.
pub struct Driver {
    exec: Exec,
    tracer: Tracer,
    faults: Option<(FaultPlan, RecoveryPolicy)>,
    flight: FlightRecorder,
}

impl Driver {
    fn new(exec: Exec) -> Driver {
        Driver {
            exec,
            tracer: Tracer::disabled(),
            faults: None,
            flight: FlightRecorder::disabled(),
        }
    }

    /// Data-parallel in one address space. With `path = None` the read
    /// stage synthesizes block data procedurally.
    pub fn rayon() -> Driver {
        Driver::new(Exec::Rayon)
    }

    /// Message passing, one simulated rank per process, under explicit
    /// runtime options — tracing, wildcard-match policy, replay,
    /// watchdog. Needs a dataset file.
    pub fn mpi(opts: pvr_mpisim::RunOptions) -> Driver {
        Driver::new(Exec::Mpi(opts))
    }

    /// Wall-clock span tracing of the rayon executor: track `r` is
    /// logical rank `r` (see [`crate::pipeline::run_frame_traced`]).
    /// The message-passing executor traces through
    /// `RunOptions::traced()` instead and ignores this.
    pub fn traced(mut self, tracer: &Tracer) -> Driver {
        self.tracer = tracer.clone();
        self
    }

    /// Run the frame under a fault plan — on the message-passing
    /// executor; [`drive_frame`] refuses it on rayon, where one address
    /// space has no rank to lose. Deadlines, the suspicion threshold and
    /// the heal budget are derived from the calibrated perf model with
    /// `policy` as the floor ([`effective_policy`]). The contract:
    ///
    /// * **Transient faults heal exactly.** If every injected fault is
    ///   survivable (dropped attempts < retry budget, stragglers < stage
    ///   deadline, down servers covered by replicas, crashed ranks
    ///   adopted within budget), the frame is bit-identical to the
    ///   fault-free run and completeness is 1.0.
    /// * **Permanent faults degrade, never hang.** What is lost for good
    ///   surfaces as completeness < 1.0 attributed to specific tiles,
    ///   and the run terminates within its stage deadlines — no barrier
    ///   is posted and no receive is untimed.
    /// * **Everything replays.** All fault behaviour derives from
    ///   `(seed, FaultPlan)`: the same plan and policy produce the same
    ///   image and the same completeness map.
    pub fn faults(mut self, plan: &FaultPlan, policy: &RecoveryPolicy) -> Driver {
        self.faults = Some((plan.clone(), *policy));
        self
    }

    /// Mirror the frame's SLO verdict, located incidents and — on a
    /// violation, crash, or degradation-ladder activation — the anomaly
    /// dump onto `flight`, for the caller to drain with
    /// [`FlightRecorder::take_dumps`].
    pub fn flight(mut self, flight: &FlightRecorder) -> Driver {
        self.flight = flight.clone();
        self
    }
}

/// Everything [`drive_frame`] produces.
pub struct DriveOutput {
    pub frame: FrameResult,
    /// Per-tile fraction of expected composited area that arrived
    /// (message-passing frames run with [`Driver::faults`] only).
    pub completeness: Option<CompletenessMap>,
    /// The message trace (message-passing executor with `opts.trace`).
    pub trace: Option<pvr_mpisim::trace::TraceLog>,
    /// Event-core scheduler counters (message-passing executor; `None`
    /// on rayon).
    pub sim: Option<pvr_mpisim::SimStats>,
}

/// Assemble one frame's driver-side result from the per-rank outputs
/// and mirror its verdict onto `flight`: merged recovery counters,
/// completeness (a crashed rank 0 degrades the frame to an empty image)
/// and the per-rank counter incidents (ladder activations, I/O
/// failovers) come out of every frame; a fault plan adds its located
/// incidents and turns the completeness report on. The frame's SLO
/// verdict is evaluated against the perfmodel budgets and recorded in
/// the returned timing. A message trace, when given, names the
/// attributed rank from its critical path where time and incidents
/// could not.
pub(crate) fn assemble_frame(
    cfg: &FrameConfig,
    shared: &FrameShared,
    mut results: Vec<RankOut>,
    faults: Option<&FrameFaults>,
    trace: Option<&pvr_mpisim::trace::TraceLog>,
    flight: &FlightRecorder,
) -> (FrameResult, Option<CompletenessMap>) {
    let m = shared.partition.m();
    let n = cfg.nprocs;
    // Decision point (f). Located incidents of the injected plan: a
    // crash or suspicious straggle attributes to its injection site even
    // when hedging kept the frame fast.
    let planned = faults.map(|f| crate::slo::incidents_from_plan(n, &f.plan, f.policy.suspicion));
    let reports_completeness = planned.is_some();
    let mut incidents = planned.unwrap_or_default();
    // Per-rank stage times and located incidents, before rank 0's
    // output is consumed: the SLO gate judges the slowest rank of each
    // stage, not just the root's stopwatch.
    let per_rank: Vec<[f64; 3]> = results
        .iter()
        .map(|r| [r.timing.io, r.timing.render, r.timing.composite])
        .collect();
    for (rank, r) in results.iter().enumerate() {
        if let Some(rec) = &r.recovery {
            crate::slo::counter_incidents(rank, &rec.counters, &mut incidents);
        }
    }
    let mut render = RenderStats::default();
    for r in &results {
        render.merge(&r.render);
    }
    let sent_bytes: u64 = results.iter().map(|r| r.sent_bytes).sum();
    let sent_dense_bytes: u64 = results.iter().map(|r| r.sent_dense_bytes).sum();
    let sparse_messages: usize = results.iter().map(|r| r.sparse_messages).sum();
    let messages: usize = results.iter().map(|r| r.sent_messages).sum();
    let mut per_compositor = vec![0usize; m];
    for (c, received) in results.iter().filter_map(|r| r.tile_messages) {
        per_compositor[c] = received;
    }
    let mut recovery = RecoveryCounters::default();
    let mut failover_bytes = 0u64;
    let mut unrecovered_bytes = 0u64;
    let mut error_bound = 0.0f64;
    for rec in results.iter().filter_map(|r| r.recovery.as_deref()) {
        recovery.merge(&rec.counters);
        failover_bytes += rec.io_failover_bytes;
        unrecovered_bytes += rec.io_unrecovered_bytes;
        error_bound += rec.error_bound;
    }
    let root = results.remove(0);
    let t = root.timing;
    let mut timing = FrameTiming {
        io: t.io,
        render: t.render,
        composite: t.composite,
        starts: t.starts,
        wall: t.wall,
        recovery,
        // Coarse-rung heals may double-count overlapping footprints;
        // the bound stays a bound when clamped to the whole image.
        error_bound: error_bound.min(1.0),
        slo: None,
    };
    let stage_secs = [timing.io, timing.render, timing.composite];
    let mut slo = crate::slo::evaluate(&SloInput {
        budgets: budgets_for(cfg, &stage_secs, &per_rank, &incidents, || shared.budgets()),
        stage_secs,
        per_rank: &per_rank,
        incidents: &incidents,
    });
    if let Some(trace) = trace {
        crate::slo::refine_with_critical_path(&mut slo, trace);
    }
    flight.begin_frame();
    crate::slo::record_frame_flight(flight, &slo, &incidents, &recovery);
    timing.slo = Some(slo);

    // A crashed rank 0 cannot deliver an image: the frame degrades to
    // an empty image with zero completeness on every populated tile.
    let (image, completeness) = match root.gathered {
        Some(g) => (g.image, g.completeness),
        None => {
            let tiles = (0..m)
                .map(|c| TileCompleteness {
                    tile: c,
                    rect: shared.tile(c),
                    expected: shared.expected_area(c),
                    arrived: 0.0,
                })
                .collect();
            let empty = Image::new(cfg.image.0, cfg.image.1);
            (empty, CompletenessMap { tiles })
        }
    };
    let io = IoRunStats {
        retries: recovery.io_retries,
        failover_bytes,
        unrecovered_bytes,
        ..IoRunStats::default()
    };
    let composite = DirectSendStats {
        messages,
        bytes: sent_bytes,
        dense_bytes: sent_dense_bytes,
        sparse_messages,
        per_compositor,
    };
    let frame = FrameResult::new(image, timing, io, &render, composite);
    (frame, reports_completeness.then_some(completeness))
}

/// What one message-passing world produced.
pub(crate) struct WorldOutput {
    /// Per frame, every rank's output (index = rank).
    pub(crate) frames: Vec<Vec<RankOut>>,
    pub(crate) trace: Option<pvr_mpisim::trace::TraceLog>,
    pub(crate) sim: Option<pvr_mpisim::SimStats>,
}

/// A dataset the ranks could not read in full is an error of the frame,
/// not of a rank: a rank that failed mid-world would leave its peers in
/// blocking receives and the world would report a deadlock instead. So
/// every file is checked against the layout's size before launch.
fn check_datasets<P: AsRef<Path>>(cfg: &FrameConfig, paths: &[P]) -> Result<(), FrameError> {
    let need = cfg.io.layout(cfg.grid).file_size();
    for path in paths.iter().map(AsRef::as_ref) {
        let md = std::fs::metadata(path).map_err(|e| FrameError::io(path, e))?;
        if md.len() < need {
            let what = format!("dataset holds {} bytes, the layout needs {need}", md.len());
            let short = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what);
            return Err(FrameError::io(path, short));
        }
    }
    Ok(())
}

/// Launch one message-passing world and walk every rank through the
/// frames of `paths` in order — a single frame is an animation of
/// length one. Frame `t` runs in tag epoch `t`, under `faults[t]` when
/// the world is faulted (its plans' link faults injected per epoch);
/// with `pipelined`, each aggregator starts reading frame `t + 1`'s
/// windows the moment frame `t`'s read hands off (file reads only, no
/// communication).
pub(crate) fn run_world<P: AsRef<Path> + Sync>(
    cfg: &FrameConfig,
    shared: &FrameShared,
    paths: &[P],
    faults: Option<&[FrameFaults]>,
    mut opts: pvr_mpisim::RunOptions,
    throttle: Option<IoThrottle>,
    pipelined: bool,
) -> Result<WorldOutput, FrameError> {
    check_datasets(cfg, paths)?;
    // Decision point (g): the transport plays the plans' link faults.
    if let Some(faults) = faults {
        let frames = faults.iter().map(|f| PlanInjector::new(f.plan.clone()));
        opts = opts.with_injector(Arc::new(EpochInjector {
            frames: frames.collect(),
        }));
    }
    let nf = paths.len();
    let file = FilePlan::new(cfg, &shared.stored);
    let file = &file;
    // Per frame, the wall instant of its first live read under a throttle.
    let first_reads: Vec<OnceLock<Instant>> = (0..nf).map(|_| OnceLock::new()).collect();
    let first_reads = &first_reads;
    let out = pvr_mpisim::World::run_opts(cfg.nprocs, opts, move |mut comm| async move {
        let mut outs = Vec::with_capacity(nf);
        // This rank's one in-flight background read: the next frame's
        // window extents (the scatter geometry is frame-invariant).
        let mut pending: Option<Prefetch<(Vec<Vec<u8>>, f64)>> = None;
        for t in 0..nf {
            let windows = pending
                .take()
                .and_then(|pf| pf.join().ok())
                .map(|(bufs, io_secs)| PrefetchedWindows { bufs, io_secs });
            let mut exec = RankExec::new(
                &mut comm,
                cfg,
                paths[t].as_ref(),
                faults.map(|f| &f[t]),
                FrameTags::for_frame(t),
                throttle.map(|th| (th, &first_reads[t])),
                windows,
                shared,
                file,
            );
            let rank_out = exec
                .run(|e| {
                    if pipelined && t + 1 < nf {
                        let extents = e.my_window_extents().to_vec();
                        if !extents.is_empty() {
                            let path = paths[t + 1].as_ref().to_path_buf();
                            pending = Some(Prefetch::spawn(move || {
                                let started = Instant::now();
                                let bufs = read_extents(&path, &extents, throttle)?;
                                Ok((bufs, started.elapsed().as_secs_f64()))
                            }));
                        }
                    }
                })
                .await;
            // A crashed rank skips its remaining stages (and never
            // spawns a prefetch), then rejoins at the next epoch's
            // tags with a live read — only its own frame degrades.
            outs.push(rank_out);
            // Decision point (h). Faulted frames have no in-frame
            // barriers (a crashed rank might miss one), but between
            // frames every rank — crashed or not — reaches this point,
            // so a resync here is safe. Without it a crashed rank races
            // ahead while its peers wait out frame `t`'s deadlines, and
            // the skew eats into frame `t+1`'s deadline budget.
            if faults.is_some() && t + 1 < nf {
                comm.barrier().await;
            }
        }
        outs
    })
    .map_err(FrameError::Runtime)?;

    // Transpose [rank][frame] → per-frame columns.
    let mut per_rank: Vec<_> = out.results.into_iter().map(Vec::into_iter).collect();
    let frames = (0..nf)
        .map(|_| {
            per_rank
                .iter_mut()
                .map(|it| it.next().expect("every rank runs every frame"))
                .collect()
        })
        .collect();
    Ok(WorldOutput {
        frames,
        trace: out.trace,
        sim: out.sim,
    })
}

/// What [`drive_frame`] and [`crate::anim::run_animation`] say when
/// asked to run a fault plan on the data-parallel executor.
pub(crate) const FAULTS_NEED_MPI: &str =
    "fault plans run on the message-passing executor: use Driver::mpi / AnimOptions::mpi";

/// Run one frame. `path` is required by the message-passing executor;
/// the rayon executor synthesizes block data procedurally when it is
/// `None`. A request that cannot run — a message-passing frame without
/// a dataset, a fault plan on rayon — is refused before anything runs.
pub fn drive_frame(
    cfg: &FrameConfig,
    path: Option<&Path>,
    driver: Driver,
) -> Result<DriveOutput, FrameError> {
    match driver.exec {
        Exec::Rayon => {
            if driver.faults.is_some() {
                return Err(FrameError::invalid_input(FAULTS_NEED_MPI));
            }
            let shared = FrameShared::new(cfg);
            let input = path.map_or(FrameInput::Synthetic, FrameInput::File);
            let (tracer, flight) = (&driver.tracer, &driver.flight);
            let frame = rayon_frame(cfg, &shared, input, tracer, None, flight)?;
            Ok(DriveOutput {
                frame,
                completeness: None,
                trace: None,
                sim: None,
            })
        }
        Exec::Mpi(opts) => {
            let Some(path) = path else {
                let what = "the message-passing executor needs a dataset file";
                return Err(FrameError::invalid_input(what));
            };
            let shared = FrameShared::new(cfg);
            let faults = driver
                .faults
                .map(|(plan, policy)| FrameFaults::new(plan, effective_policy(cfg, &policy)));
            let world_faults = faults.as_ref().map(std::slice::from_ref);
            let mut out = run_world(cfg, &shared, &[path], world_faults, opts, None, false)?;
            let results = out.frames.pop().expect("one path, one frame");
            let trace = out.trace.as_ref();
            let (frame, completeness) = assemble_frame(
                cfg,
                &shared,
                results,
                faults.as_ref(),
                trace,
                &driver.flight,
            );
            Ok(DriveOutput {
                frame,
                completeness,
                trace: out.trace,
                sim: out.sim,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompositorPolicy;
    use crate::pipeline::{run_frame_mpi, write_dataset};
    use pvr_faults::{LinkAction, LinkFault, Pat, RankFault};

    #[test]
    fn frame_zero_tags_equal_the_legacy_constants() {
        let t = FrameTags::for_frame(0);
        assert_eq!(t.io_scatter, tags::IO_SCATTER);
        assert_eq!(t.fragment, tags::FRAGMENT);
        assert_eq!(t.tile, tags::TILE);
        assert_eq!(t.io_ack, tags::IO_ACK);
        assert_eq!(t.frag_ack, tags::FRAG_ACK);
        assert_eq!(t.tile_ack, tags::TILE_ACK);
    }

    #[test]
    fn tag_epochs_are_disjoint_and_invertible() {
        let mut seen = std::collections::HashSet::new();
        for frame in 0..32 {
            let t = FrameTags::for_frame(frame);
            for tag in [
                t.io_scatter,
                t.fragment,
                t.tile,
                t.io_ack,
                t.frag_ack,
                t.tile_ack,
                t.adopt,
                t.late,
                t.rec_ack,
                t.done,
            ] {
                assert!(seen.insert(tag), "tag {tag} collides across frames");
                assert_eq!(FrameTags::frame_of(tag), frame);
            }
            assert_eq!(FrameTags::base_of(t.fragment), tags::FRAGMENT);
        }
        let table = FrameTags::table(4);
        assert_eq!(table.len(), 40);
        assert!(table.iter().any(|(_, n)| n == "frame3/tile"));
    }

    /// Every rank's output lives until the world ends, once in the
    /// rank's task and once in the world's results: the image and the
    /// completeness map only rank 0 fills (64 B unboxed) are one boxed
    /// pointer.
    #[test]
    fn rank_out_holds_rank_0_only_state_behind_one_pointer() {
        assert_eq!(std::mem::size_of::<RankOut>(), 192);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every index of [`FrameShared`] is the slice the ranks used to
        /// scan the global schedule for, and every heal cost is what the
        /// per-call pricing computed.
        #[test]
        fn frame_shared_slices_equal_the_filters(
            gx in 8usize..40, gy in 8usize..40, gz in 8usize..40,
            w in 48usize..96, h in 48usize..96,
            n in 1usize..=48, policy_pick in 0usize..3, fixed in 1usize..=48,
        ) {
            proptest::prop_assume!([2usize, 3, 5, 7].iter().fold(n, |mut r, p| {
                while r % p == 0 {
                    r /= p;
                }
                r
            }) == 1);
            let cfg = FrameConfig {
                grid: [gx, gy, gz],
                image: (w, h),
                policy: match policy_pick {
                    0 => CompositorPolicy::Original,
                    1 => CompositorPolicy::Improved,
                    _ => CompositorPolicy::Fixed(fixed),
                },
                ..FrameConfig::small(gx, w, n)
            };
            let m = cfg.compositors();
            let shared = FrameShared::new(&cfg);
            let rows = &shared.schedule().messages;
            let model = crate::perfmodel::PerfModel::default();
            let camera = Camera::orthographic(cfg.grid, default_view(), w, h);
            for r in 0..n {
                let mine: Vec<_> = rows.iter().filter(|msg| msg.renderer == r).copied().collect();
                assert_eq!(shared.sends_of(r), &mine[..]);
                let tile = (0..m).find(|&c| compositor_rank(c, n, m) == r);
                assert_eq!(shared.tile_of(r), tile);
                let owned = &shared.owned[r];
                let fp = footprint(&camera, owned.offset, owned.end(), cfg.image);
                let samples = model.sample_coeff * fp.num_pixels() as f64 * owned.shape[2] as f64
                    / cfg.step.max(1e-9);
                let cost = samples * model.render_imbalance / model.render_rate;
                assert_eq!(shared.heal_costs()[r].to_bits(), cost.to_bits());
            }
            for c in 0..m {
                let sources: Vec<(usize, f64)> = rows
                    .iter()
                    .filter(|msg| msg.compositor == c)
                    .map(|msg| (msg.renderer, msg.pixels as f64))
                    .collect();
                assert_eq!(shared.sources_of(c), &sources[..]);
            }
        }
    }

    #[test]
    fn both_executors_report_the_schedules_message_counts() {
        let cfg = test_cfg();
        let p = tmp("counts.raw");
        write_dataset(&p, &cfg).unwrap();
        let rayon = crate::pipeline::run_frame(&cfg, Some(&p)).composite;
        let mpi = run_frame_mpi(&cfg, &p).composite;
        let schedule = FrameShared::new(&cfg).schedule;
        assert_eq!(mpi.messages, schedule.num_messages());
        assert_eq!(mpi.per_compositor, schedule.per_compositor_counts());
        assert_eq!(
            (mpi.messages, &mpi.per_compositor),
            (rayon.messages, &rayon.per_compositor)
        );
        std::fs::remove_file(&p).ok();
    }

    /// A fault-free frame sends what the scatter plan and the schedule
    /// name and nothing else: no ack, no `done`, no timer armed. The
    /// plans name one scatter body per (window, destination), one
    /// fragment per schedule row and one tile per compositor: 72
    /// messages at n = 8 (16 + 48 + 8), 830 at n = 64 (352 + 414 + 64).
    #[test]
    fn fault_free_frame_sends_the_scheduled_messages_and_nothing_else() {
        let p = tmp("counts-sim.raw");
        for n in [8, 64] {
            let mut cfg = FrameConfig::small(64, 128, n);
            cfg.policy = CompositorPolicy::Improved;
            write_dataset(&p, &cfg).unwrap();
            let driver = Driver::mpi(pvr_mpisim::RunOptions::default());
            let sim = drive_frame(&cfg, Some(&p), driver).unwrap().sim.unwrap();
            let planned = planned_messages(&cfg) as u64;
            assert_eq!((sim.messages, sim.timer_fires), (planned, 0), "n = {n}");
        }
        std::fs::remove_file(&p).ok();
    }

    /// A read that fails inside a running world names its rank, the
    /// file and the bytes it asked for.
    #[test]
    fn in_world_read_failure_names_rank_file_and_extent() {
        let e = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
        let at = Extent::new(4096, 512);
        let msg = read_failure(3, "read", Path::new("/data/step0007.raw"), at, &e);
        for needle in [
            "rank 3",
            "read of /data/step0007.raw",
            "offset 4096",
            "length 512",
        ] {
            assert!(msg.contains(needle), "{needle:?} missing from: {msg}");
        }
    }

    // --- fault frames: drive_frame + .faults(..) on the mpi executor ---

    fn mpi_ft(
        cfg: &FrameConfig,
        p: &Path,
        plan: &FaultPlan,
        policy: &RecoveryPolicy,
    ) -> DriveOutput {
        let driver = Driver::mpi(pvr_mpisim::RunOptions::default()).faults(plan, policy);
        drive_frame(cfg, Some(p), driver).unwrap()
    }

    fn complete(out: &DriveOutput) -> bool {
        let map = out.completeness.as_ref();
        map.expect("fault frames report completeness")
            .fully_complete()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-sched-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn test_cfg() -> FrameConfig {
        let mut cfg = FrameConfig::small(16, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        cfg
    }

    #[test]
    fn healthy_plan_matches_plain_mpi_bit_for_bit() {
        let cfg = test_cfg();
        let p = tmp("healthy.raw");
        write_dataset(&p, &cfg).unwrap();
        let driver = Driver::mpi(pvr_mpisim::RunOptions::default());
        let plain = drive_frame(&cfg, Some(&p), driver).unwrap();
        // Without a plan: nothing to recover from, nothing reported.
        assert_eq!(plain.frame.timing.recovery, RecoveryCounters::default());
        assert!(plain.completeness.is_none());
        let plain = plain.frame;
        let ft = mpi_ft(&cfg, &p, &FaultPlan::none(), &RecoveryPolicy::fast_test());
        assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
        assert!(complete(&ft));
        let map = ft.completeness.as_ref().unwrap();
        assert!(map.tiles.iter().all(|t| t.arrived == t.expected));
        // Spurious retransmits can happen under scheduler load (an ack
        // arriving just after its timeout) and are harmless — but
        // nothing may be lost, degraded, or crashed on a healthy plan.
        let rec = ft.frame.timing.recovery;
        assert_eq!(rec.timeouts, 0);
        assert_eq!(rec.corrupt_dropped, 0);
        assert_eq!(rec.degraded_tiles, 0);
        assert_eq!(rec.crashed_ranks, 0);
        assert_eq!(rec.io_retries, 0);
        assert_eq!(rec.io_failovers, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn transient_drops_recover_bit_identically_with_retries() {
        let cfg = test_cfg();
        let p = tmp("transient.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 5,
            links: vec![
                LinkFault {
                    src: Pat::Is(1),
                    dst: Pat::Any,
                    tag: Some(tags::FRAGMENT),
                    action: LinkAction::DropFirst(2),
                },
                LinkFault {
                    src: Pat::Any,
                    dst: Pat::Is(2),
                    tag: Some(tags::IO_SCATTER),
                    action: LinkAction::DropFirst(1),
                },
            ],
            ranks: vec![RankFault {
                rank: 3,
                stage: Stage::Render,
                action: RankAction::StraggleMs(30),
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "transient faults must heal without a pixel trace"
        );
        assert!(complete(&ft));
        assert!(ft.frame.timing.recovery.retries > 0, "recovery did work");
        assert_eq!(ft.frame.timing.recovery.timeouts, 0);
        std::fs::remove_file(&p).ok();
    }

    fn crash_plan(rank: usize, stage: Stage, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ranks: vec![RankFault {
                rank,
                stage,
                action: RankAction::Crash,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn crashed_renderer_heals_bit_identically_via_adoption() {
        let cfg = test_cfg();
        let p = tmp("crash.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = crash_plan(5, Stage::Composite, 9);
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "a single crashed renderer must heal without a pixel trace"
        );
        assert!(complete(&ft));
        let rec = ft.frame.timing.recovery;
        assert_eq!(rec.crashed_ranks, 1);
        assert!(rec.adopted_blocks >= 1, "a survivor adopted the block");
        assert!(
            rec.late_fragments >= 1,
            "the heal travelled as late fragments"
        );
        assert!(rec.recovery_bytes > 0);
        assert_eq!(rec.degraded_tiles, 0);
        assert_eq!(ft.frame.timing.error_bound, 0.0, "full heal has no error");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn crashed_compositor_tile_is_rebuilt_by_rank0() {
        let cfg = test_cfg();
        let p = tmp("crash-comp.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        // Rank 6 owns a tile under Fixed(4) on 8 ranks (c*8/4 = 0,2,4,6).
        let plan = crash_plan(6, Stage::Composite, 11);
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "a dead compositor's tile is rebuilt at the root, bit-identically"
        );
        assert!(complete(&ft));
        let rec = ft.frame.timing.recovery;
        assert_eq!(rec.crashed_ranks, 1);
        assert!(rec.adopted_tiles >= 1, "rank 0 rebuilt the orphan tile");
        assert!(rec.adopted_blocks >= 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn straggler_is_hedged_and_the_frame_does_not_wait_for_it() {
        let cfg = test_cfg();
        let p = tmp("straggle.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 4,
            ranks: vec![RankFault {
                rank: 3,
                stage: Stage::Composite,
                action: RankAction::StraggleMs(1200),
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert_eq!(
            plain.image.pixels(),
            ft.frame.image.pixels(),
            "hedged duplicate renders are deterministic: the race cannot show"
        );
        assert!(complete(&ft));
        let rec = ft.frame.timing.recovery;
        assert!(rec.hedged_renders >= 1, "suspicion fired a hedge");
        assert!(
            ft.frame.timing.wall < 1.2,
            "the frame must not wait out the {}s straggle (wall {}s)",
            1.2,
            ft.frame.timing.wall
        );
        std::fs::remove_file(&p).ok();
    }

    /// The ladder's three rungs for a renderer lost at the render and at
    /// the composite stage.
    #[test]
    fn degradation_ladder_steps_full_coarse_skip_on_a_shrinking_budget() {
        let cfg = test_cfg();
        let p = tmp("ladder.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let est = FrameShared::new(&cfg).heal_costs()[5];
        assert!(est > 0.0);
        for (stage, seed) in [(Stage::Render, 13), (Stage::Composite, 9)] {
            let plan = crash_plan(5, stage, seed);

            // Unbounded budget: the full rung, bit-identical.
            let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
            assert_eq!(plain.image.pixels(), ft.frame.image.pixels(), "{stage:?}");
            assert!(complete(&ft));
            let rec = ft.frame.timing.recovery;
            assert_eq!((rec.crashed_ranks, rec.adopted_blocks), (1, 1), "{stage:?}");

            // Budget in (est/4, est): only the coarse rung fits. The
            // frame stays complete but reports an explicit error bound.
            let mut policy = RecoveryPolicy::fast_test();
            policy.frame_budget = Some(est * 0.5);
            let ft = mpi_ft(&cfg, &p, &plan, &policy);
            assert!(complete(&ft));
            assert_eq!(
                ft.frame.timing.recovery.approx_blocks, 1,
                "coarse rung taken"
            );
            assert!(
                ft.frame.timing.error_bound > 0.0,
                "coarse heal reports its error bound"
            );

            // Budget below est/4: the ladder refuses; the hole is
            // explicit in the completeness map and the frame still
            // terminates.
            policy.frame_budget = Some(est * 0.1);
            let ft = mpi_ft(&cfg, &p, &plan, &policy);
            assert!(!complete(&ft));
            let rec = ft.frame.timing.recovery;
            assert_eq!((rec.adopted_blocks, rec.approx_blocks), (0, 0));
            assert_eq!(ft.frame.timing.error_bound, 0.0);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn down_server_with_failover_is_invisible_down_without_is_not() {
        let cfg = test_cfg();
        let p = tmp("server.raw");
        write_dataset(&p, &cfg).unwrap();
        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 3,
            servers: vec![pvr_faults::ServerFault {
                server: 0,
                action: pvr_faults::ServerAction::Down,
            }],
            ..FaultPlan::default()
        };
        // With failover: bit-identical, replica bytes accounted.
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
        assert!(complete(&ft));
        assert!(ft.frame.io.failover_bytes > 0);
        assert!(ft.frame.io.retries > 0);
        assert_eq!(ft.frame.io.unrecovered_bytes, 0);
        // Without failover: data is lost, completeness drops, run ends.
        let mut policy = RecoveryPolicy::fast_test();
        policy.io_failover = false;
        let ft = mpi_ft(&cfg, &p, &plan, &policy);
        assert!(ft.frame.io.unrecovered_bytes > 0);
        assert!(!complete(&ft));
        std::fs::remove_file(&p).ok();
    }

    /// One message per (window, destination) leaves the fault accounting
    /// per piece. With a server down and no failover the frame loses, of
    /// every rank's own runs, exactly the bytes that server holds, and
    /// each tile arrives weighted by its renderers' served fractions;
    /// dropped scatter bodies are retransmitted whole and heal without a
    /// trace.
    #[test]
    fn grouped_scatter_keeps_holes_per_piece_and_heals_dropped_bodies() {
        let mut cfg = FrameConfig::small(32, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        let p = tmp("grouped.raw");
        write_dataset(&p, &cfg).unwrap();

        let mut policy = RecoveryPolicy::fast_test();
        policy.io_failover = false;
        let plan = FaultPlan {
            seed: 3,
            servers: vec![pvr_faults::ServerFault {
                server: 0,
                action: pvr_faults::ServerAction::Down,
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &policy);
        let shared = FrameShared::new(&cfg);
        let layout = cfg.io.layout(cfg.grid);
        let requests = rank_requests(layout.as_ref(), cfg.file_variable(), &shared.stored);
        let f = FrameFaults::new(plan, policy);
        let (mut lost_total, mut served) = (0, Vec::new());
        for rq in &requests {
            let lost: u64 = rq
                .runs
                .iter()
                .map(|r| Extent::new(r.file_offset, r.elems as u64 * ELEM_SIZE))
                .map(|run| window_fault_audit(&f.store, &f.servers, &f.policy.io_recovery(), run))
                .map(|audit| audit.unrecovered_bytes())
                .sum();
            lost_total += lost;
            served.push(served_fraction(lost, rq.useful_bytes()));
        }
        // Server 0 holds the low-z half of the file.
        assert!(served.iter().any(|&q| q < 0.5) && served.iter().any(|&q| q > 0.5));
        assert_eq!(ft.frame.io.unrecovered_bytes, lost_total);
        for tile in &ft.completeness.as_ref().unwrap().tiles {
            let sources = shared.sources_of(tile.tile);
            let arrived: f64 = sources.iter().map(|&(r, px)| served[r] * px).sum();
            assert!((tile.arrived - arrived).abs() < 1e-9 * tile.expected);
        }
        assert!(!complete(&ft));

        let plain = run_frame_mpi(&cfg, &p);
        let plan = FaultPlan {
            seed: 5,
            links: vec![LinkFault {
                src: Pat::Any,
                dst: Pat::Any,
                tag: Some(tags::IO_SCATTER),
                action: LinkAction::DropFirst(1),
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert_eq!(plain.image.pixels(), ft.frame.image.pixels());
        assert!(complete(&ft));
        assert!(ft.frame.timing.recovery.retries > 0);
        assert_eq!(ft.frame.timing.recovery.selfheal_bytes, 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rank0_crash_yields_empty_frame_with_zero_completeness() {
        let cfg = test_cfg();
        let p = tmp("root.raw");
        write_dataset(&p, &cfg).unwrap();
        let plan = FaultPlan {
            seed: 1,
            ranks: vec![RankFault {
                rank: 0,
                stage: Stage::Io,
                action: RankAction::Crash,
            }],
            ..FaultPlan::default()
        };
        let ft = mpi_ft(&cfg, &p, &plan, &RecoveryPolicy::fast_test());
        assert!(ft.frame.image.pixels().iter().all(|px| *px == [0.0; 4]));
        assert!(ft.completeness.unwrap().frame_fraction() < 1.0);
        assert!(ft.frame.timing.recovery.crashed_ranks >= 1);
        std::fs::remove_file(&p).ok();
    }
}
