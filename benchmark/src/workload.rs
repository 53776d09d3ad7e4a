//! The six workloads: their inputs, how one timed operation runs, and
//! what makes its output correct.
//!
//! Every workload is a closed loop with one client: the next frame is
//! requested when the previous one has been delivered.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pvr_core::pipeline::{default_view, render_opts, transfer_for};
use pvr_core::{
    run_animation, run_frame, run_frame_mpi, write_animation, write_dataset, AnimOptions,
    CompositorPolicy, FrameConfig, IoMode, PerfModel,
};
use pvr_formats::{read_subvolume, Subvolume};
use pvr_render::raycast::render_serial;
use pvr_render::{Camera, Image};
use pvr_volume::Volume;

/// Time steps per animation of `anim-slowstore`.
pub const ANIM_STEPS: usize = 8;
/// Bandwidth floor of the slow store, bytes per second: at 1 MB per
/// time step a read then costs about what the frame's compute does.
const SLOW_STORE_BYTES_PER_S: f64 = 24e6;
/// Rank count of the reference image `sim-2048` is compared against.
const SIM_REFERENCE_RANKS: usize = 64;
/// Largest per-channel difference tolerated against an independent
/// renderer (the serial kernel, or the same frame at another rank
/// count): different blend orders, same picture.
const IMAGE_TOLERANCE: f64 = 1e-3;
/// Untimed operations run at the end of set-up, and again by the
/// measuring process, so that caches are filled and lazy initialisation
/// is done before timing starts.
const WARMUP_OPS: usize = 2;
/// What set-up learned, left beside the datasets for the measuring
/// process: `key value` lines.
const MANIFEST: &str = "fixture.txt";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RenderSparse,
    RenderDense,
    IoRecord,
    Sim2048,
    AnimSlowstore,
    Model512,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::RenderSparse,
        Workload::RenderDense,
        Workload::IoRecord,
        Workload::Sim2048,
        Workload::AnimSlowstore,
        Workload::Model512,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RenderSparse => "render-sparse",
            Workload::RenderDense => "render-dense",
            Workload::IoRecord => "io-record",
            Workload::Sim2048 => "sim-2048",
            Workload::AnimSlowstore => "anim-slowstore",
            Workload::Model512 => "model-512",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frame configuration; `seed` selects the synthetic dataset.
    pub fn config(self, seed: u64) -> FrameConfig {
        let mut cfg = match self {
            // The velocity transfer function is exactly transparent on
            // a plateau, so about two thirds of the samples can be
            // skipped; the density one has no transparent range at all.
            Workload::RenderSparse | Workload::RenderDense => {
                let mut c = FrameConfig::small(96, 320, 8);
                c.policy = CompositorPolicy::Fixed(4);
                c.variable = if self == Workload::RenderSparse { 2 } else { 0 };
                c
            }
            // Five interleaved record variables, default hints: the
            // collective read fetches five bytes for each useful one.
            // A tiny image and a coarse step leave the renderer with
            // nothing to do but build its macrocell grid.
            Workload::IoRecord => {
                let mut c = FrameConfig::small(128, 32, 8);
                c.io = IoMode::NetCdfUntuned;
                c.variable = 2;
                c.step = 4.0;
                c
            }
            Workload::Sim2048 => {
                let mut c = FrameConfig::small(64, 128, 2048);
                c.policy = CompositorPolicy::Improved;
                c
            }
            Workload::AnimSlowstore => FrameConfig::small(64, 256, 8),
            Workload::Model512 => {
                let mut c = FrameConfig::paper_1120(512);
                c.policy = CompositorPolicy::Fixed(128);
                c
            }
        };
        cfg.seed = seed;
        cfg
    }

    /// Frames one timed operation delivers.
    pub fn frames_per_op(self) -> usize {
        match self {
            Workload::AnimSlowstore => ANIM_STEPS,
            _ => 1,
        }
    }

    /// True for the workloads whose frame is `run_frame` on one file.
    pub fn is_rayon_frame(self) -> bool {
        matches!(
            self,
            Workload::RenderSparse | Workload::RenderDense | Workload::IoRecord
        )
    }
}

/// Run `f` with the data-parallel stages capped at one worker thread.
pub fn one_thread<T>(f: impl FnOnce() -> T) -> T {
    with_threads(1, f)
}

pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("the shim pool builder cannot fail")
        .install(f)
}

pub fn anim_options() -> AnimOptions {
    AnimOptions::rayon()
        .pools(1, 1)
        .throttled(SLOW_STORE_BYTES_PER_S)
}

/// FNV-1a over the image's pixel bits: equal hashes mean bit-identical
/// images.
pub fn image_hash(img: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for px in img.pixels() {
        for c in px {
            for b in c.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One identity per frame of an operation: the image hash, or the bits
/// of the simulated frame time.
pub type Identities = Vec<u64>;

/// What one timed operation delivers. Hashing happens afterwards, off
/// the clock.
pub enum Delivered {
    Images(Vec<Image>),
    SimulatedSeconds(f64),
}

impl Delivered {
    pub fn identities(&self) -> Identities {
        match self {
            Delivered::Images(images) => images.iter().map(image_hash).collect(),
            Delivered::SimulatedSeconds(s) => vec![s.to_bits()],
        }
    }
}

/// The prepared inputs of one workload and the outputs its frames must
/// reproduce.
pub struct Fixture {
    pub workload: Workload,
    pub cfg: FrameConfig,
    dir: PathBuf,
    /// Dataset files: one, one per time step, or none (`model-512`).
    pub paths: Vec<PathBuf>,
    /// Expected identity of each frame of an operation.
    pub expect: Identities,
    /// Bytes written by set-up and the seconds that took.
    pub written_bytes: u64,
    pub write_s: f64,
}

impl Fixture {
    /// Synthesise the dataset, compute the reference outputs with an
    /// independent executor, check the workload's own output against
    /// them, warm up, and leave a manifest for [`Fixture::open`].
    ///
    /// Runs in a process of its own, so that the measuring process never
    /// holds set-up's memory. Files are written under a temporary name
    /// and renamed into place: a reader can never see a half-written
    /// dataset.
    pub fn set_up(workload: Workload, seed: u64, out: &Path) -> Result<(), String> {
        let cfg = workload.config(seed);
        let dir = fixture_dir(workload, seed, out);
        let tmp = dir.with_extension(format!("tmp-{}", std::process::id()));
        let io = |e: std::io::Error| format!("{}: {e}", tmp.display());
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp).map_err(io)?;
        }
        std::fs::create_dir_all(&tmp).map_err(io)?;

        let t0 = Instant::now();
        match workload {
            Workload::Model512 => {}
            Workload::AnimSlowstore => {
                write_animation(&tmp, &cfg, ANIM_STEPS).map_err(io)?;
            }
            _ => {
                write_dataset(&tmp.join("step0000.dat"), &cfg).map_err(io)?;
            }
        }
        let write_s = t0.elapsed().as_secs_f64();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io)?;
        }
        std::fs::rename(&tmp, &dir).map_err(io)?;

        let mut fx = Fixture {
            workload,
            cfg,
            paths: dataset_paths(&dir)?,
            dir,
            expect: Vec::new(),
            written_bytes: 0,
            write_s,
        };
        for p in &fx.paths {
            fx.written_bytes += std::fs::metadata(p).map_err(io)?.len();
        }
        fx.expect = fx.reference()?;
        fx.warm_up()?;

        let mut manifest = format!(
            "write_s {:?}\nwritten_bytes {}\n",
            fx.write_s, fx.written_bytes
        );
        for id in &fx.expect {
            manifest.push_str(&format!("expect {id:016x}\n"));
        }
        let staged = fx.dir.join(format!("{MANIFEST}.tmp"));
        std::fs::write(&staged, manifest).map_err(io)?;
        std::fs::rename(&staged, fx.dir.join(MANIFEST)).map_err(io)
    }

    /// Open what [`Fixture::set_up`] left behind and warm this process
    /// up on it.
    pub fn open(workload: Workload, seed: u64, out: &Path) -> Result<Fixture, String> {
        let dir = fixture_dir(workload, seed, out);
        let manifest = dir.join(MANIFEST);
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        let bad = |line: &str| format!("{}: bad line {line:?}", manifest.display());
        let mut fx = Fixture {
            workload,
            cfg: workload.config(seed),
            paths: dataset_paths(&dir)?,
            dir,
            expect: Vec::new(),
            written_bytes: 0,
            write_s: 0.0,
        };
        for line in text.lines() {
            let (key, value) = line.split_once(' ').ok_or_else(|| bad(line))?;
            match key {
                "write_s" => fx.write_s = value.parse().map_err(|_| bad(line))?,
                "written_bytes" => fx.written_bytes = value.parse().map_err(|_| bad(line))?,
                "expect" => fx
                    .expect
                    .push(u64::from_str_radix(value, 16).map_err(|_| bad(line))?),
                _ => return Err(bad(line)),
            }
        }
        fx.warm_up()?;
        Ok(fx)
    }

    /// Untimed operations, each checked against the reference.
    fn warm_up(&self) -> Result<(), String> {
        for _ in 0..WARMUP_OPS {
            let failed = self.failed_frames(&self.run_op().identities());
            if failed > 0 {
                return Err(format!(
                    "{}: {failed} warm-up frame(s) differ from the reference",
                    self.workload.name()
                ));
            }
        }
        Ok(())
    }

    /// Datasets are per run: leave nothing behind for the next seed.
    pub fn remove(self) {
        std::fs::remove_dir_all(&self.dir).ok();
        if let Some(parent) = self.dir.parent() {
            // Succeeds only once the last workload of this seed is gone.
            std::fs::remove_dir(parent).ok();
        }
    }

    /// The expected identities, from an executor other than the one the
    /// workload times.
    fn reference(&self) -> Result<Identities, String> {
        let cfg = &self.cfg;
        let name = self.workload.name();
        match self.workload {
            // The message-passing executor is bit-identical to the
            // data-parallel one by contract; the serial renderer (one
            // block, no compositing) bounds both from a third side.
            Workload::RenderSparse | Workload::RenderDense | Workload::IoRecord => {
                let path = &self.paths[0];
                let mpi = run_frame_mpi(cfg, path).image;
                let serial = serial_image(cfg, path)?;
                let diff = mpi.max_abs_diff(&serial);
                if diff >= IMAGE_TOLERANCE {
                    return Err(format!(
                        "{name}: differs from the serial renderer by {diff}"
                    ));
                }
                Ok(vec![image_hash(&mpi)])
            }
            // The same frame on 64 ranks: another decomposition, another
            // schedule, the same picture.
            Workload::Sim2048 => {
                let path = &self.paths[0];
                let mut small = *cfg;
                small.nprocs = SIM_REFERENCE_RANKS;
                let reference = run_frame_mpi(&small, path).image;
                let full = run_frame_mpi(cfg, path).image;
                let diff = full.max_abs_diff(&reference);
                if diff >= IMAGE_TOLERANCE {
                    return Err(format!(
                        "{name}: differs from the {SIM_REFERENCE_RANKS}-rank image by {diff}"
                    ));
                }
                Ok(vec![image_hash(&full)])
            }
            // Each animated frame equals a standalone frame of its file.
            Workload::AnimSlowstore => Ok(self
                .paths
                .iter()
                .map(|p| image_hash(&one_thread(|| run_frame(cfg, Some(p))).image))
                .collect()),
            // The model is a pure function of the configuration.
            Workload::Model512 => Ok(self.run_op().identities()),
        }
    }

    /// One timed operation: a frame, or an animation of
    /// [`ANIM_STEPS`] frames.
    pub fn run_op(&self) -> Delivered {
        let cfg = &self.cfg;
        match self.workload {
            Workload::RenderSparse | Workload::RenderDense | Workload::IoRecord => {
                let r = one_thread(|| run_frame(cfg, Some(&self.paths[0])));
                Delivered::Images(vec![r.image])
            }
            Workload::Sim2048 => {
                let r = one_thread(|| run_frame_mpi(cfg, &self.paths[0]));
                Delivered::Images(vec![r.image])
            }
            Workload::AnimSlowstore => {
                let r = run_animation(cfg, &self.paths, &anim_options())
                    .expect("a fault-free animation cannot degrade");
                Delivered::Images(r.frames.into_iter().map(|f| f.result.image).collect())
            }
            Workload::Model512 => {
                Delivered::SimulatedSeconds(PerfModel::default().simulate(cfg).timing.total())
            }
        }
    }

    /// Frames of an operation's output that differ from the reference.
    pub fn failed_frames(&self, got: &Identities) -> usize {
        let n = self.workload.frames_per_op();
        if got.len() != n {
            return n;
        }
        got.iter().zip(&self.expect).filter(|(a, b)| a != b).count()
    }
}

fn fixture_dir(workload: Workload, seed: u64, out: &Path) -> PathBuf {
    out.join(format!("fixtures-{seed}")).join(workload.name())
}

/// The dataset files of a fixture directory, in time-step order.
fn dataset_paths(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let path = entry.map_err(io)?.path();
        if path.extension().is_some_and(|e| e == "dat") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

/// The whole grid rendered as one block by the serial reference
/// renderer, from the file's own bytes.
fn serial_image(cfg: &FrameConfig, path: &Path) -> Result<Image, String> {
    let layout = cfg.io.layout(cfg.grid);
    let mut file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let data = read_subvolume(
        &mut file,
        layout.as_ref(),
        cfg.file_variable(),
        &Subvolume::whole(cfg.grid),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    let volume = Volume::from_data(cfg.grid, data);
    let camera = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    let (image, _) =
        one_thread(|| render_serial(&volume, &camera, &transfer_for(cfg), &render_opts(cfg)));
    Ok(image)
}
