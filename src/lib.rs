//! # parallel-volume-rendering
//!
//! Umbrella crate for the end-to-end parallel volume rendering study on
//! a simulated IBM Blue Gene/P — a from-scratch Rust reproduction of
//! *Peterka, Yu, Ross, Ma, Latham: "End-to-End Study of Parallel Volume
//! Rendering on the IBM Blue Gene/P" (ICPP 2009)*.
//!
//! Re-exports every workspace crate under one roof:
//!
//! * [`bgp`] — Blue Gene/P machine model + flow-level network simulator
//! * [`mpisim`] — message-passing abstraction (threaded + simulated)
//! * [`pfs`] — parallel file system and ROMIO-style collective I/O
//! * [`formats`] — raw / netCDF / netCDF-64 / HDF5-like file layouts
//! * [`volume`] — volume grids, block decomposition, synthetic data
//! * [`render`] — ray-casting volume renderer
//! * [`compositing`] — direct-send and radix-k (binary swap = radix 2) compositing
//! * [`core`] — the end-to-end pipeline and performance models
//! * [`faults`] — seeded fault plans, reliable-link layer, recovery policy
//! * [`verify`] — schedule linter, message-race detector, replay checker
//! * [`obs`] — span tracing, metrics registry, Perfetto/Gantt/CSV export
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and the experiment index mapping every figure and table of
//! the paper to a regeneration binary.
//!
//! A miniature end-to-end frame (the paper's pipeline in one call):
//!
//! ```
//! use parallel_volume_rendering::core::{run_frame, FrameConfig};
//!
//! // 24^3 grid, 48^2 image, 8 ranks; data synthesized in place.
//! let mut cfg = FrameConfig::small(24, 48, 8);
//! cfg.variable = 2; // X velocity, the paper's Figure 1
//! let frame = run_frame(&cfg, None);
//!
//! // Three sequential stages, all instrumented.
//! assert!(frame.timing.render > 0.0 && frame.timing.composite > 0.0);
//! // Something was actually rendered.
//! assert!(frame.image.pixels().iter().any(|p| p[3] > 0.0));
//! ```

pub use pvr_bgp as bgp;
pub use pvr_compositing as compositing;
pub use pvr_core as core;
pub use pvr_faults as faults;
pub use pvr_formats as formats;
pub use pvr_mpisim as mpisim;
pub use pvr_obs as obs;
pub use pvr_pfs as pfs;
pub use pvr_render as render;
pub use pvr_verify as verify;
pub use pvr_volume as volume;
