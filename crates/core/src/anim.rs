//! Time-step animation: many frames through the one scheduler, with
//! optional double-buffered I/O prefetch.
//!
//! The paper's end-to-end data (Table II) shows I/O dominating the
//! frame at scale — ≥95% of the time the science consumer actually
//! waits. Its future-work section points at overlapping time steps:
//! while frame `t` renders and composites, frame `t+1`'s subvolumes can
//! already be streaming off the parallel file system. [`run_animation`]
//! does exactly that, on both executors, running each frame through
//! the same code [`crate::scheduler::drive_frame`] does:
//!
//! * **rayon** — one background [`Prefetch`] thread reads and decodes
//!   the next time step's file through the same reader while the
//!   current frame runs; the frame function then starts from the
//!   prefetched volumes instead of reading the file.
//! * **message passing** — *one* `pvr-mpisim` world spans the whole
//!   animation (`scheduler::run_world`, the launcher a single
//!   frame also goes through). Each rank walks the frames in order;
//!   message tags move up one [`crate::scheduler::EPOCH_STRIDE`] epoch
//!   per time step ([`crate::scheduler::FrameTags`]), so in-flight
//!   traffic of adjacent frames can never collide. A hook each rank runs
//!   after its read launches the next frame's window prefetch
//!   (`pvr_pfs::read_extents` over the rank's window extents) the moment
//!   the current read hands off — file reads only, no communication, so
//!   the protocol is untouched.
//!
//! The time steps share a layout and a decomposition, so an animation
//! plans its read once, on either executor: one `FilePlan` serves every
//! frame, and the rayon prefetch thread shares it in an [`Arc`].
//!
//! Memory stays bounded: at most one prefetch is in flight per rank, so
//! the animation holds at most **2×** one time step's subvolumes (the
//! live frame plus the next frame's buffers).
//!
//! Fault plans compose per frame ([`AnimFaults`]) on the
//! message-passing executor: the launcher's injector, keyed by tag
//! epoch, routes each frame's traffic to that frame's own plan, so a
//! crash while frame `t+1` is already prefetched affects frame `t`
//! only — the prefetched bytes belong to a healthy later epoch. The
//! rayon executor has no rank to lose and refuses fault plans.
//!
//! Animations keep no flight recorder: each frame's SLO verdict is in
//! its [`FrameResult`]'s timing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pvr_compositing::completeness::CompletenessMap;
use pvr_faults::{FaultPlan, RecoveryPolicy};
use pvr_obs::{Args, FlightRecorder, Tracer};
use pvr_pfs::{IoThrottle, Prefetch};

use crate::config::FrameConfig;
use crate::pipeline::{write_dataset, FilePlan, FrameError, FrameResult};
use crate::scheduler::{
    assemble_frame, rayon_frame, run_world, FrameFaults, FrameInput, FrameShared, FAULTS_NEED_MPI,
};

/// Which executor runs the animation.
#[derive(Clone)]
pub enum AnimExecutor {
    /// Data-parallel in one address space (optionally span-traced).
    Rayon,
    /// One message-passing world across all frames, with per-frame tag
    /// epochs.
    Mpi(pvr_mpisim::RunOptions),
}

/// Per-frame fault configuration for the message-passing executor.
/// Frame `t` runs under `plans[t]`; missing entries mean a healthy
/// frame. All frames share one recovery policy.
#[derive(Debug, Clone)]
pub struct AnimFaults {
    pub plans: Vec<FaultPlan>,
    pub policy: RecoveryPolicy,
}

/// How to run an animation. Build with [`AnimOptions::rayon`] or
/// [`AnimOptions::mpi`] and chain the modifiers.
#[derive(Clone)]
pub struct AnimOptions {
    /// Prefetch frame `t+1`'s data while frame `t` renders and
    /// composites. Off = strictly sequential frames (the baseline the
    /// `anim_pipeline` bench compares against).
    pub pipelined: bool,
    pub executor: AnimExecutor,
    /// Bandwidth floor applied to every dataset read, live or
    /// prefetched — models the slow store that makes I/O worth hiding.
    /// Paid in wall-clock time on both executors (the ranks of a
    /// message-passing world sleep for real, they do not advance the
    /// simulator's virtual clock), so [`AnimResult::wall`] is the clock
    /// to compare throttled runs in.
    pub throttle: Option<IoThrottle>,
    /// Per-frame fault plans (message-passing executor only — a rayon
    /// animation with plans is refused; frames run the fault-tolerant
    /// link protocol when set).
    pub faults: Option<AnimFaults>,
    /// Wall-clock span tracer (rayon executor only): frame spans per
    /// rank track, prefetch reads on their own track.
    pub tracer: Tracer,
    /// Worker threads for the in-frame stages (a read that was not
    /// prefetched, render, composite) on the rayon executor; `0` means
    /// one per available core. Separate from
    /// [`AnimOptions::prefetch_threads`] so the background read can never
    /// steal render cores mid-frame (and vice versa).
    pub render_threads: usize,
    /// Worker threads available to the background prefetch read on the
    /// rayon executor; `0` means one per available core.
    pub prefetch_threads: usize,
}

impl AnimOptions {
    /// Pipelined rayon animation, untraced, unthrottled.
    pub fn rayon() -> AnimOptions {
        AnimOptions {
            pipelined: true,
            executor: AnimExecutor::Rayon,
            throttle: None,
            faults: None,
            tracer: Tracer::disabled(),
            render_threads: 0,
            prefetch_threads: 0,
        }
    }

    /// Pipelined message-passing animation with default run options.
    pub fn mpi() -> AnimOptions {
        AnimOptions {
            executor: AnimExecutor::Mpi(pvr_mpisim::RunOptions::default()),
            ..AnimOptions::rayon()
        }
    }

    /// Disable prefetching: frames run strictly back to back.
    pub fn sequential(mut self) -> AnimOptions {
        self.pipelined = false;
        self
    }

    /// Floor every read at `bytes_per_sec`.
    pub fn throttled(mut self, bytes_per_sec: f64) -> AnimOptions {
        self.throttle = Some(IoThrottle::new(bytes_per_sec));
        self
    }

    /// Run the fault-tolerant protocol with per-frame plans.
    pub fn with_faults(mut self, faults: AnimFaults) -> AnimOptions {
        self.faults = Some(faults);
        self
    }

    /// Trace the rayon executor's spans.
    pub fn traced(mut self, tracer: &Tracer) -> AnimOptions {
        self.tracer = tracer.clone();
        self
    }

    /// Give the frame stages and the background prefetch their own
    /// worker-thread budgets (`0` = one per available core). Pool
    /// placement changes wall clock only, never pixels — the pool-split
    /// animation test pins bit-identity against the default pools.
    pub fn pools(mut self, render: usize, prefetch: usize) -> AnimOptions {
        self.render_threads = render;
        self.prefetch_threads = prefetch;
        self
    }
}

/// One finished time step.
#[derive(Debug)]
pub struct AnimFrame {
    pub result: FrameResult,
    /// Per-tile completeness (message-passing runs with fault plans
    /// only).
    pub completeness: Option<CompletenessMap>,
}

/// A finished animation.
#[derive(Debug)]
pub struct AnimResult {
    pub frames: Vec<AnimFrame>,
    /// True wall-clock seconds for the whole animation.
    pub wall: f64,
}

impl AnimResult {
    /// Sum of per-stage busy time across frames — what a strictly
    /// sequential animation's wall clock would be.
    pub fn stage_sum(&self) -> f64 {
        self.frames.iter().map(|f| f.result.timing.total()).sum()
    }

    /// Summed I/O stage time across frames (includes prefetch reads,
    /// charged to the frame they fetched).
    pub fn io_sum(&self) -> f64 {
        self.frames.iter().map(|f| f.result.timing.io).sum()
    }

    /// Frames per second of actual wall clock.
    pub fn fps(&self) -> f64 {
        self.frames.len() as f64 / self.wall.max(1e-12)
    }

    /// Fraction of the summed I/O stage time that never showed up in
    /// the animation's wall clock — hidden under other frames' render
    /// and composite work. 0 for sequential runs (up to timer noise),
    /// approaching 1 when compute fully covers the reads.
    pub fn io_hidden_fraction(&self) -> f64 {
        let io = self.io_sum();
        if io <= 0.0 {
            return 0.0;
        }
        let non_io: f64 = self
            .frames
            .iter()
            .map(|f| f.result.timing.total() - f.result.timing.io)
            .sum();
        let visible_io = (self.wall - non_io).clamp(0.0, io);
        1.0 - visible_io / io
    }
}

/// Write `nframes` time steps of the synthetic dataset to `dir`, one
/// file per step (`step0000.dat`, …), advancing the field's seed per
/// step so the frames genuinely differ.
pub fn write_animation(
    dir: &Path,
    cfg: &FrameConfig,
    nframes: usize,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(nframes);
    for t in 0..nframes {
        let mut step = *cfg;
        step.seed = cfg.seed.wrapping_add(t as u64);
        let p = dir.join(format!("step{t:04}.dat"));
        write_dataset(&p, &step)?;
        paths.push(p);
    }
    Ok(paths)
}

/// Render an animation: one frame per path, in order, bit-identical to
/// running [`crate::scheduler::drive_frame`] on each file independently
/// with the same executor and fault plan — the animation tests pin
/// this. Pipelining changes wall clock, never pixels. Fault plans on
/// the rayon executor are refused, as `drive_frame` refuses them.
pub fn run_animation(
    cfg: &FrameConfig,
    paths: &[PathBuf],
    opts: &AnimOptions,
) -> Result<AnimResult, FrameError> {
    assert!(!paths.is_empty(), "animation needs at least one frame");
    match &opts.executor {
        AnimExecutor::Rayon if opts.faults.is_some() => {
            Err(FrameError::invalid_input(FAULTS_NEED_MPI))
        }
        AnimExecutor::Rayon => run_rayon(cfg, paths, opts),
        AnimExecutor::Mpi(run_opts) => run_mpi(cfg, paths, opts, run_opts.clone()),
    }
}

fn run_rayon(
    cfg: &FrameConfig,
    paths: &[PathBuf],
    opts: &AnimOptions,
) -> Result<AnimResult, FrameError> {
    let tracer = &opts.tracer;
    let mut frames = Vec::with_capacity(paths.len());
    let t0 = Instant::now();

    // Two pools: in-frame stages draw from `render_pool`, background
    // reads from `prefetch_pool` (installed inside the prefetch thread,
    // where the read actually runs). With both at 0 the split is a
    // no-op; with explicit budgets the two subsystems stop competing
    // for the same cores.
    let render_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.render_threads)
        .thread_name(|i| format!("pvr-render-{i}"))
        .build()
        .expect("render pool");
    let prefetch_pool = Arc::new(
        rayon::ThreadPoolBuilder::new()
            .num_threads(opts.prefetch_threads)
            .thread_name(|i| format!("pvr-prefetch-{i}"))
            .build()
            .expect("prefetch pool"),
    );
    let shared = Arc::new(FrameShared::new(cfg));
    let file = Arc::new(FilePlan::new(cfg, &shared));
    let flight = FlightRecorder::disabled();
    let mut run = |input: FrameInput, throttle| {
        let frame = || rayon_frame(cfg, &shared, input, tracer, throttle, &flight);
        let result = render_pool.install(frame)?;
        frames.push(AnimFrame {
            result,
            completeness: None,
        });
        Ok::<(), FrameError>(())
    };

    if !opts.pipelined {
        for p in paths {
            run(FrameInput::File(p, Arc::clone(&file)), opts.throttle)?;
        }
    } else {
        // The prefetch thread gets its own trace track, one past the
        // rank tracks, so the overlap is visible in the Perfetto
        // timeline.
        let pf_track = cfg.nprocs as u32;
        if tracer.enabled() {
            tracer.name_track(pf_track, "prefetch");
        }
        let spawn = |t: usize| {
            let path = paths[t].clone();
            let throttle = opts.throttle;
            let tracer = tracer.clone();
            let pool = Arc::clone(&prefetch_pool);
            let shared = Arc::clone(&shared);
            let file = Arc::clone(&file);
            Prefetch::spawn(move || {
                let started = Instant::now();
                tracer.begin_args(pf_track, "io.read", Args::one("frame", t as u64));
                // Untraced: per-window spans would land on rank tracks
                // whose ranks are mid-frame.
                let off = Tracer::disabled();
                let out = pool.install(|| file.read(&shared, &path, &off, throttle));
                tracer.end(pf_track, "io.read");
                out.map(|volumes| (volumes, file.io, started.elapsed().as_secs_f64()))
            })
        };

        let mut pending = Some(spawn(0));
        for (t, path) in paths.iter().enumerate() {
            let (volumes, io, io_secs) = pending
                .take()
                .expect("one prefetch is always in flight")
                .join()
                .map_err(|e| FrameError::io(path, e))?;
            // Launch t+1's read before touching frame t: the whole frame
            // (render, composite) overlaps the next read and decode.
            if t + 1 < paths.len() {
                pending = Some(spawn(t + 1));
            }
            let input = FrameInput::Prefetched {
                volumes,
                io,
                io_secs,
            };
            run(input, None)?;
        }
    }
    Ok(AnimResult {
        frames,
        wall: t0.elapsed().as_secs_f64(),
    })
}

fn run_mpi(
    cfg: &FrameConfig,
    paths: &[PathBuf],
    opts: &AnimOptions,
    run_opts: pvr_mpisim::RunOptions,
) -> Result<AnimResult, FrameError> {
    // One fault state per frame, derived up front; frames past the last
    // plan run healthy under the same policy.
    let faults: Option<Vec<FrameFaults>> = opts.faults.as_ref().map(|f| {
        (0..paths.len())
            .map(|t| {
                let plan = f.plans.get(t).cloned().unwrap_or_else(FaultPlan::none);
                FrameFaults::new(plan, f.policy)
            })
            .collect()
    });
    let faults = faults.as_deref();

    let t0 = Instant::now();
    let shared = FrameShared::new(cfg);
    let file = FilePlan::new(cfg, &shared);
    let (throttle, pipelined) = (opts.throttle, opts.pipelined);
    let flight = FlightRecorder::disabled();
    let out = run_world(&shared, &file, paths, faults, run_opts, throttle, pipelined)?;
    // Assemble each frame exactly as the single-frame driver would.
    let frames = out
        .frames
        .into_iter()
        .enumerate()
        .map(|(t, col)| {
            let (result, completeness) = assemble_frame(
                cfg,
                &shared,
                file.io,
                col,
                faults.map(|f| &f[t]),
                None,
                &flight,
            );
            AnimFrame {
                result,
                completeness,
            }
        })
        .collect();
    Ok(AnimResult {
        frames,
        wall: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-anim-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_animation_advances_the_seed_per_step() {
        let cfg = FrameConfig::small(8, 16, 4);
        let dir = tmp_dir("seeds");
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        assert_eq!(paths.len(), 3);
        let a = std::fs::read(&paths[0]).unwrap();
        let b = std::fs::read(&paths[1]).unwrap();
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "consecutive steps must differ");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rayon_pipelined_matches_sequential_bit_for_bit() {
        let cfg = FrameConfig::small(12, 24, 4);
        let dir = tmp_dir("rayon-id");
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        let seq = run_animation(&cfg, &paths, &AnimOptions::rayon().sequential()).unwrap();
        let pipe = run_animation(&cfg, &paths, &AnimOptions::rayon()).unwrap();
        assert_eq!(seq.frames.len(), 3);
        for (s, p) in seq.frames.iter().zip(&pipe.frames) {
            assert_eq!(s.result.image.pixels(), p.result.image.pixels());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mpi_animation_heals_a_mid_run_crash_bit_identically() {
        use crate::config::CompositorPolicy;
        use pvr_faults::{RankAction, RankFault, Stage};

        let mut cfg = FrameConfig::small(16, 24, 8);
        cfg.variable = 2;
        cfg.policy = CompositorPolicy::Fixed(4);
        let dir = tmp_dir("heal");
        let paths = write_animation(&dir, &cfg, 3).unwrap();
        let plain = run_animation(&cfg, &paths, &AnimOptions::mpi()).unwrap();

        // Rank 5 dies permanently during frame 1's composite stage; the
        // orchestrator adopts its block and the animation carries on.
        let crash = FaultPlan {
            seed: 9,
            ranks: vec![RankFault {
                rank: 5,
                stage: Stage::Composite,
                action: RankAction::Crash,
            }],
            ..FaultPlan::default()
        };
        let faults = AnimFaults {
            plans: vec![FaultPlan::none(), crash, FaultPlan::none()],
            policy: RecoveryPolicy::fast_test(),
        };
        let healed = run_animation(&cfg, &paths, &AnimOptions::mpi().with_faults(faults)).unwrap();

        assert_eq!(healed.frames.len(), 3);
        for (t, (s, h)) in plain.frames.iter().zip(&healed.frames).enumerate() {
            assert_eq!(
                s.result.image.pixels(),
                h.result.image.pixels(),
                "frame {t} must heal without a pixel trace"
            );
            let c = h
                .completeness
                .as_ref()
                .expect("ft runs report completeness");
            assert!(c.fully_complete(), "frame {t} completeness");
        }
        let rec = healed.frames[1].result.timing.recovery;
        assert_eq!(rec.crashed_ranks, 1);
        assert!(rec.adopted_blocks >= 1, "frame 1 healed via adoption");
        assert_eq!(healed.frames[0].result.timing.recovery.crashed_ranks, 0);
        assert_eq!(healed.frames[2].result.timing.recovery.crashed_ranks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_pools_are_bit_identical_to_shared_pools() {
        let cfg = FrameConfig::small(12, 24, 4);
        let dir = tmp_dir("pools");
        let paths = write_animation(&dir, &cfg, 2).unwrap();
        let shared = run_animation(&cfg, &paths, &AnimOptions::rayon()).unwrap();
        // Tiny asymmetric budgets force both install paths (render
        // inline on the caller, prefetch capped at 2).
        let split = run_animation(&cfg, &paths, &AnimOptions::rayon().pools(1, 2)).unwrap();
        for (s, p) in shared.frames.iter().zip(&split.frames) {
            assert_eq!(s.result.image.pixels(), p.result.image.pixels());
            assert_eq!(s.result.render_samples, p.result.render_samples);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_hidden_fraction_is_zero_without_io() {
        let r = AnimResult {
            frames: Vec::new(),
            wall: 1.0,
        };
        assert_eq!(r.io_hidden_fraction(), 0.0);
    }
}
