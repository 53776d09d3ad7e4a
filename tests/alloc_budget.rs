//! What a fault-free message-passing frame allocates, bounded by what it
//! sends: the host cost of an executed frame is its messages' cost, not
//! a per-rank or per-rank² surcharge (the untraced barrier once cloned an
//! `n`-word clock per rank; the mailbox once paid a deque, a hash insert
//! and a tree insert per message; a fragment once cost a cropped copy and
//! a span tree on top of its body).
//!
//! One test: the frames run one after another on the test's thread,
//! which is the thread the counting allocator reads.

#[path = "support/alloc.rs"]
mod alloc;
mod support;

use parallel_volume_rendering::core::pipeline::run_frame_mpi_sim;
use parallel_volume_rendering::core::scheduler::planned_messages;
use parallel_volume_rendering::core::{write_dataset, CompositorPolicy, FrameConfig};
use parallel_volume_rendering::mpisim::RunOptions;

/// The `sim_scale` / ledger `sim-2048` frame at `n` ranks.
fn cfg_at(n: usize) -> FrameConfig {
    let mut cfg = FrameConfig::small(64, 128, n);
    cfg.policy = CompositorPolicy::Improved;
    cfg
}

#[test]
fn a_frame_allocates_in_proportion_to_its_messages() {
    let path = support::fixture("pvr-alloc-budget", "scale.raw", |p| {
        write_dataset(p, &cfg_at(64))
    });
    // The ledger's own world size joins in optimized builds (slow in
    // debug, and `sim_scale` runs it there anyway).
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[256, 1024]
    } else {
        &[256, 1024, 2048]
    };
    for &n in sizes {
        let cfg = cfg_at(n);
        let planned = planned_messages(&cfg) as u64;
        let opts = RunOptions::default().with_timeout(None);
        let (out, allocations, bytes) = alloc::counting(|| run_frame_mpi_sim(&cfg, &path, opts));
        let (_, sim) = out.unwrap_or_else(|e| panic!("n={n} frame failed: {e}"));
        assert_eq!(sim.expect("event backend").messages, planned);
        println!(
            "n={n}: {planned} messages, {allocations} allocations ({:.2} a message), {:.1} MB",
            allocations as f64 / planned as f64,
            bytes as f64 / 1e6
        );
        // Measured: 2.6 a message at n = 256, 2.8 at 1024, 2.6 at 2048
        // (103 534 allocations, 81 MB) — a body, its decoded fragment and
        // change; the frame before this budget made 7.5, 7.3 and 6.6.
        assert!(
            allocations <= 4 * planned,
            "n={n}: {allocations} allocations for {planned} messages"
        );
    }
}
