//! # pvr-bgp — IBM Blue Gene/P machine model and network simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *Peterka et al., "End-to-End Study of Parallel Volume Rendering on the
//! IBM Blue Gene/P" (ICPP 2009)*. The paper's experiments ran on the
//! Argonne BG/P; this crate provides a faithful synthetic equivalent:
//!
//! * [`topology`] — the 3D torus interconnect: node coordinates, link
//!   identifiers and deterministic dimension-ordered (DOR) routing.
//! * [`machine`] — the machine configuration: partition size, I/O-node
//!   count (one per 64-node pset), core-to-node mapping, and the
//!   published BG/P performance constants.
//! * [`flowsim`] — a discrete-event, flow-level network simulator with
//!   max-min fair bandwidth sharing per link and a LogP-style
//!   per-message CPU overhead model. Small-message bandwidth collapse
//!   and link contention — the effects behind the paper's Figures 3
//!   and 4 — emerge from this model rather than being curve-fit.
//!
//! The simulator is exact event-driven fluid simulation: at every flow
//! start or completion the max-min fair rate allocation is recomputed by
//! progressive (water-filling) filling. The fill works on one workspace
//! per phase — link→flow incidence laid out once, per-link active weight
//! maintained as flows start and finish, every buffer reused — so an
//! event costs `rounds × live links` plus the incidence of the flows it
//! freezes, where a link is live while it still carries an unfrozen
//! flow; nothing is hashed, allocated or scanned over the whole torus
//! per event. Symmetric communication patterns complete in large
//! batches, which keeps even 32K-rank direct-send schedules tractable.

pub mod flowsim;
pub mod machine;
pub mod topology;

pub use flowsim::{FlowSim, FlowSpec, SimReport};
pub use machine::{Machine, MachineConfig};
pub use topology::{NodeCoord, Torus};

/// Published Blue Gene/P performance constants used throughout the
/// simulator. Sources: the paper (Section III-A) and the cited BG/P
/// systems literature.
pub mod consts {
    /// 3D torus link bandwidth: 3.4 Gb/s = 425 MB/s per link per direction.
    pub const TORUS_LINK_BW: f64 = 425.0e6;
    /// Maximum torus latency between any two nodes: 5 microseconds.
    pub const TORUS_MAX_LATENCY: f64 = 5.0e-6;
    /// Per-hop latency derived from the 5 us worst case across a
    /// 40-rack (72 x 32 x 32) machine's longest DOR path (~68 hops).
    pub const TORUS_HOP_LATENCY: f64 = 0.07e-6;
    /// Tree (collective) network bandwidth: 6.8 Gb/s per link.
    pub const TREE_LINK_BW: f64 = 850.0e6;
    /// Tree network maximum latency: 5 microseconds.
    pub const TREE_MAX_LATENCY: f64 = 5.0e-6;
    /// CPU cores per compute node (quad PowerPC 450).
    pub const CORES_PER_NODE: usize = 4;
    /// PowerPC 450 clock: 850 MHz.
    pub const CORE_HZ: f64 = 850.0e6;
    /// Memory per compute node: 2 GB.
    pub const NODE_RAM_BYTES: u64 = 2 << 30;
    /// Compute nodes served by one I/O node.
    pub const NODES_PER_IO_NODE: usize = 64;
    /// Per-message software (MPI stack) overhead at each endpoint, in
    /// seconds. Chosen so that, as measured by Kumar & Heidelberger on
    /// Blue Gene, effective all-to-all bandwidth collapses once message
    /// size drops toward a few hundred bytes.
    pub const MSG_OVERHEAD: f64 = 3.0e-6;
}

#[cfg(test)]
mod tests {
    use super::consts::*;

    #[test]
    fn constants_are_consistent() {
        // 3.4 Gb/s expressed in bytes/s.
        assert!((TORUS_LINK_BW - 3.4e9 / 8.0).abs() < 1.0);
        assert!((TREE_LINK_BW - 6.8e9 / 8.0).abs() < 1.0);
    }
}
