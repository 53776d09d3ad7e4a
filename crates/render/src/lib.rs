//! # pvr-render — parallel ray-casting volume renderer
//!
//! The rendering stage of the paper's pipeline: each process casts a ray
//! from every pixel its data block projects to, samples the block
//! front-to-back, classifies samples through a transfer function, and
//! accumulates color and opacity. No interprocess communication — the
//! blending across blocks happens later, in `pvr-compositing`.
//!
//! **Exact decomposition.** Sample positions are defined *globally*:
//! every ray samples at parameters `t = t0 + (k + 1/2) Δt` measured from
//! the ray's entry into the *global* volume box, and a block accumulates
//! exactly those samples whose position falls inside its owned half-open
//! cell region. The blocks therefore partition the serial renderer's
//! sample set, and compositing the block results in depth order
//! reproduces the serial image to floating-point tolerance — the
//! correctness anchor for every compositing algorithm in this workspace.
//!
//! Modules: [`math`] (minimal vector algebra), [`camera`]
//! (orthographic / perspective), [`transfer`] (RGBA transfer functions
//! with opacity correction), [`image`] (pixel rectangles, subimages,
//! final images, PPM export) and [`raycast`] (the renderer itself).

pub mod camera;
pub mod image;
pub mod math;
pub mod raycast;
pub mod transfer;

pub use camera::Camera;
pub use image::{Image, PixelRect, SubImage};
pub use math::Vec3;
pub use raycast::{render_block, render_block_with_grid, render_serial, BlockDomain, RenderOpts};
pub use transfer::TransferFunction;
