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
//!   [`ScatterPlan::build`] plans the exchange of any request list by
//!   sorting its runs; it is the general path and the oracle of
//!   [`lattice`], which plans a regular block lattice's read by walking
//!   the file's rows, with no request list and no sort. A plan carries
//!   the whole read's statistics — accesses, physical and useful bytes,
//!   and the bytes its exchange moves between ranks — so every executor
//!   reports the same numbers for the same plan.
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
pub mod lattice;
pub mod model;
pub mod prefetch;
pub mod server;
pub mod sieve;
pub mod twophase;

pub use fault::{window_fault_audit, ServerFaults, WindowAudit};
pub use iolog::{AccessMap, IoStats};
pub use lattice::StoredLattice;
pub use model::StorageModel;
pub use prefetch::{read_extents, IoThrottle, Prefetch};
pub use server::StripedStore;
pub use twophase::{
    decode_scatter, two_phase_execute, two_phase_plan, two_phase_write, CollectiveHints, IoPlan,
    Piece, RankRequest, RunsOf, ScatterPlan, ScatterRun,
};
