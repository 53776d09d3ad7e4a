//! # pvr-volume — volume data, decomposition, and synthetic datasets
//!
//! The data substrate of the renderer:
//!
//! * [`grid`] — an in-memory structured-grid volume with trilinear
//!   sampling (the unit every rank holds: its block plus ghost layer).
//! * [`blocks`] — the sort-last domain decomposition: the grid is split
//!   into regular blocks, statically assigned one (or a few) per
//!   process, exactly as the paper's renderer does.
//! * [`field`] — procedural scalar fields: infinite-resolution analytic
//!   functions that stand in for datasets we cannot have. The
//!   [`field::SupernovaField`] mimics the paper's core-collapse
//!   supernova time step (accretion-shock shell plus turbulent
//!   interior, five variables: pressure, density, and X/Y/Z velocity).
//!   Procedural fields play the role of the paper's *upsampled* 2240³
//!   and 4480³ steps: any resolution can be sampled without
//!   materializing hundreds of gigabytes.
//!
//! The five-variable field drives both the renderer (through sampled
//! [`grid::Volume`]s) and the I/O study (through `pvr-formats` writers).

// The one unsafe block in this crate (the interior trilinear fetch in
// `grid`) must spell out its own safety argument even inside an
// already-unsafe context; the miri CI job runs the grid tests to check
// the argument holds under the strictest aliasing/bounds model.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blocks;
pub mod field;
pub mod grid;
pub mod macrocell;

pub use blocks::{Block, BlockDecomposition};
pub use field::{voxel_centre, FbmNoise, ScalarField, SupernovaField, VAR_NAMES};
pub use grid::Volume;
pub use macrocell::{MacrocellGrid, MACROCELL_SIZE, REFINED_SIZE};
