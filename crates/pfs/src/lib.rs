//! # pvr-pfs — parallel file system and collective I/O
//!
//! The substrate behind the paper's I/O study (Section V). Three layers:
//!
//! * [`twophase`] — a ROMIO-style **two-phase collective read**: a
//!   subset of ranks act as *aggregators*, the aggregate byte request is
//!   partitioned into contiguous *file domains*, and each aggregator
//!   walks its domain in `cb_buffer_size` windows, reading any window
//!   that contains needed bytes **in full** (this whole-window behaviour
//!   is what ROMIO's `read_and_exch` does, and it is the mechanism
//!   behind the paper's untuned-netCDF pathology: when the collective
//!   buffer is larger than the netCDF record stride, the windows swallow
//!   the gaps between the wanted variable's records and most of the file
//!   is read). The engine runs in two modes: *plan* (pure, any scale —
//!   produces the access list and statistics) and *execute* (actually
//!   reads a local file and scatters bytes to per-rank buffers).
//! * [`sieve`] — independent (non-collective) reads for the HDF5-like
//!   chunked path, which in that era fell back to per-process chunk
//!   fetches: one access per chunk run, no data sieving.
//! * [`iolog`] + [`model`] — access logging (counts, sizes, data
//!   density, Figure-9-style access maps) and the calibrated storage
//!   timing model (SAN servers behind per-pset I/O nodes).
//!
//! "Data density" follows the paper's definition: the physical size of
//! the desired data divided by the number of bytes actually read by the
//! underlying I/O machinery.

pub mod fault;
pub mod iolog;
pub mod model;
pub mod prefetch;
pub mod server;
pub mod sieve;
pub mod twophase;

pub use fault::{window_fault_audit, IoRecovery, ServerFaults, WindowAudit};
pub use iolog::{AccessMap, IoStats};
pub use model::StorageModel;
pub use prefetch::{read_extents, IoThrottle, Prefetch};
pub use server::StripedStore;
pub use twophase::{
    two_phase_execute, two_phase_plan, two_phase_write, CollectiveHints, IoPlan, Piece,
    RankRequest, ScatterPlan, ScatterRun,
};
