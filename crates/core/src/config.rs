//! Frame configurations: everything needed to reproduce one data point
//! of the paper's evaluation.

use pvr_formats::layout::{
    FileLayout, Hdf5LikeLayout, NetCdf64Layout, NetCdfClassicLayout, RawLayout,
};
use pvr_pfs::CollectiveHints;
use pvr_render::raycast::Termination;

/// The five I/O modes of the paper's Figure 10 (and Figures 7 and 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMode {
    /// Single preprocessed 32-bit variable, contiguous, default hints.
    Raw,
    /// netCDF classic record variables, default (untuned) MPI-IO hints.
    NetCdfUntuned,
    /// netCDF classic record variables, `cb_buffer_size` set to the
    /// record size — the paper's tuning.
    NetCdfTuned,
    /// 64-bit-offset netCDF: nonrecord contiguous variables.
    NetCdf64,
    /// HDF5-style chunked layout, independent per-process chunk reads.
    Hdf5,
}

impl IoMode {
    pub const ALL: [IoMode; 5] = [
        IoMode::Raw,
        IoMode::NetCdfUntuned,
        IoMode::NetCdfTuned,
        IoMode::NetCdf64,
        IoMode::Hdf5,
    ];

    pub fn name(self) -> &'static str {
        match self {
            IoMode::Raw => "raw",
            IoMode::NetCdfUntuned => "netcdf-untuned",
            IoMode::NetCdfTuned => "netcdf-tuned",
            IoMode::NetCdf64 => "netcdf-64bit",
            IoMode::Hdf5 => "hdf5",
        }
    }

    /// Number of variables stored in the file in this mode. Raw mode
    /// extracts one variable offline; all multivariate formats carry the
    /// five VH-1 variables.
    pub fn num_vars(self) -> usize {
        match self {
            IoMode::Raw => 1,
            _ => 5,
        }
    }

    /// Build the file layout for a grid in this mode.
    pub fn layout(self, grid: [usize; 3]) -> Box<dyn FileLayout> {
        match self {
            IoMode::Raw => Box::new(RawLayout::new(grid)),
            IoMode::NetCdfUntuned | IoMode::NetCdfTuned => {
                Box::new(NetCdfClassicLayout::new(grid, self.num_vars()))
            }
            IoMode::NetCdf64 => Box::new(NetCdf64Layout::new(grid, self.num_vars())),
            IoMode::Hdf5 => Box::new(Hdf5LikeLayout::new(grid, self.num_vars())),
        }
    }

    /// The MPI-IO hints this mode runs with.
    pub fn hints(self, grid: [usize; 3]) -> CollectiveHints {
        match self {
            IoMode::NetCdfTuned => {
                let l = NetCdfClassicLayout::new(grid, self.num_vars());
                CollectiveHints::tuned(l.record_bytes())
            }
            _ => CollectiveHints::default(),
        }
    }
}

/// How many compositors a frame uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompositorPolicy {
    /// Classic direct-send: one compositor per renderer (`m = n`).
    Original,
    /// The paper's improvement: `m = n` up to 1K, then 1K to 4K
    /// renderers, then 2K compositors.
    Improved,
    /// An explicit compositor count.
    Fixed(usize),
}

impl CompositorPolicy {
    pub fn compositors(self, renderers: usize) -> usize {
        match self {
            CompositorPolicy::Original => renderers,
            CompositorPolicy::Improved => pvr_compositing::improved_compositor_count(renderers),
            CompositorPolicy::Fixed(m) => m.min(renderers),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CompositorPolicy::Original => "original",
            CompositorPolicy::Improved => "improved",
            CompositorPolicy::Fixed(_) => "fixed",
        }
    }
}

/// One frame's configuration.
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// Global grid (e.g. 1120³ scaled down for laptop runs).
    pub grid: [usize; 3],
    /// Final image size (width, height).
    pub image: (usize, usize),
    /// Number of processes (renderers).
    pub nprocs: usize,
    /// I/O mode.
    pub io: IoMode,
    /// Compositor policy.
    pub policy: CompositorPolicy,
    /// Which variable to render (X velocity = 2 in multivariate files;
    /// raw files hold just that one variable at index 0).
    pub variable: usize,
    /// Ray step in cells.
    pub step: f64,
    /// Dataset seed (synthetic supernova).
    pub seed: u64,
    /// Gradient (Phong) shading; needs a 2-cell ghost layer, which the
    /// pipeline provisions automatically.
    pub shading: bool,
    /// Render/composite fast path: the eight-lane packet march with
    /// macrocell empty-space skipping, plus sparse subimage exchange.
    /// Bit-identical to the path it replaces (the property tests pin
    /// it), so it defaults on; off renders with the plain per-sample
    /// reference loop and exchanges dense subimages.
    pub fast_path: bool,
    /// Early-termination mode (see [`pvr_render::raycast::Termination`]).
    /// The default `Bitwise` gate is invisible in pixels and sample
    /// counts; `Bounded` trades a reported per-frame error bound for
    /// speed.
    pub termination: Termination,
    /// Override the fault-tolerant executor's per-stage receive
    /// deadline (milliseconds). `None` derives it from the calibrated
    /// perf model with the [`pvr_faults::RecoveryPolicy`] value as a
    /// floor — see `core::recovery::effective_policy`.
    pub stage_deadline_ms: Option<u64>,
    /// Override the per-frame recovery budget of the degradation
    /// ladder (estimated milliseconds). `None` defers to the policy
    /// (unbounded by default).
    pub frame_budget_ms: Option<u64>,
}

impl FrameConfig {
    /// A laptop-scale default mirroring the paper's setup in miniature.
    pub fn small(grid: usize, image: usize, nprocs: usize) -> Self {
        FrameConfig {
            grid: [grid; 3],
            image: (image, image),
            nprocs,
            io: IoMode::Raw,
            policy: CompositorPolicy::Original,
            variable: 0,
            step: 1.0,
            seed: 1530,
            shading: false,
            fast_path: true,
            termination: Termination::Bitwise,
            stage_deadline_ms: None,
            frame_budget_ms: None,
        }
    }

    /// The paper's headline configuration: 1120³ grid, 1600² image.
    pub fn paper_1120(nprocs: usize) -> Self {
        FrameConfig {
            grid: [1120; 3],
            image: (1600, 1600),
            nprocs,
            io: IoMode::Raw,
            policy: CompositorPolicy::Improved,
            variable: 0,
            step: 1.0,
            seed: 1530,
            shading: false,
            fast_path: true,
            termination: Termination::Bitwise,
            stage_deadline_ms: None,
            frame_budget_ms: None,
        }
    }

    /// The upsampled 2240³ step with a 2048² image (Table II, upper).
    pub fn paper_2240(nprocs: usize) -> Self {
        FrameConfig {
            grid: [2240; 3],
            image: (2048, 2048),
            ..Self::paper_1120(nprocs)
        }
    }

    /// The upsampled 4480³ step with a 4096² image (Table II, lower).
    pub fn paper_4480(nprocs: usize) -> Self {
        FrameConfig {
            grid: [4480; 3],
            image: (4096, 4096),
            ..Self::paper_1120(nprocs)
        }
    }

    /// Variable index within the file for the current mode (raw files
    /// hold a single extracted variable).
    pub fn file_variable(&self) -> usize {
        if self.io == IoMode::Raw {
            0
        } else {
            self.variable
        }
    }

    /// Bytes of one variable of the grid.
    pub fn variable_bytes(&self) -> u64 {
        self.grid.iter().product::<usize>() as u64 * pvr_formats::ELEM_SIZE
    }

    /// Compositor count for this frame (policy applied to `nprocs`).
    pub fn compositors(&self) -> usize {
        self.policy.compositors(self.nprocs)
    }

    /// Collective-read aggregator count for this frame at laptop scale.
    pub fn aggregators(&self) -> usize {
        crate::roles::laptop_aggregators(self.nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_modes_have_distinct_layouts() {
        let g = [32, 32, 32];
        for mode in IoMode::ALL {
            let l = mode.layout(g);
            assert_eq!(l.grid(), g);
            assert_eq!(l.num_vars(), mode.num_vars());
        }
        assert_eq!(IoMode::Raw.num_vars(), 1);
        assert_eq!(IoMode::NetCdfTuned.num_vars(), 5);
    }

    #[test]
    fn tuned_hints_use_record_size() {
        let h = IoMode::NetCdfTuned.hints([32, 32, 32]);
        assert_eq!(h.cb_buffer_size, 32 * 32 * 4);
        let d = IoMode::NetCdfUntuned.hints([32, 32, 32]);
        assert_eq!(d.cb_buffer_size, 16 << 20);
    }

    #[test]
    fn policies() {
        assert_eq!(CompositorPolicy::Original.compositors(32768), 32768);
        assert_eq!(CompositorPolicy::Improved.compositors(32768), 2048);
        assert_eq!(CompositorPolicy::Improved.compositors(512), 512);
        assert_eq!(CompositorPolicy::Fixed(100).compositors(64), 64);
        assert_eq!(CompositorPolicy::Fixed(100).compositors(1000), 100);
    }

    #[test]
    fn paper_configs_match_paper_numbers() {
        let c = FrameConfig::paper_1120(16384);
        assert_eq!(c.variable_bytes(), 1120u64.pow(3) * 4); // 5.3 GB in the paper
        let c2 = FrameConfig::paper_4480(32768);
        assert_eq!(c2.image, (4096, 4096));
        // 4480^3 * 4 B = 335 GB of storage for the single variable...
        assert!((c2.variable_bytes() as f64 / 1e9 - 359.0).abs() < 1.0);
    }
}
