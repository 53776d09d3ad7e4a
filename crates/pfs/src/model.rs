//! Calibrated storage timing model.
//!
//! The paper's I/O wall-clock comes from the ANL storage fabric: 17 SAN
//! racks (~50 GB/s peak) reached through one I/O node per 64 compute
//! nodes, at application-level rates of 0.3–1.6 GB/s for this access
//! pattern. We reproduce those rates with a three-term model:
//!
//! ```text
//! BW = min( C0 * io_nodes^a * (bytes/ref)^b,   # fabric + locality scaling
//!           io_nodes * tree_link_bw,           # compute-side bridges
//!           aggregators * torus_link_bw,       # client injection
//!           SAN peak )
//! time = open + bytes/BW + per-access overhead (parallel over aggregators)
//! ```
//!
//! `C0`, `a`, `b` are fit to the six read-bandwidth cells of the paper's
//! Table II (0.87/1.02/1.26 GB/s for the 2240³ step at 8K/16K/32K cores
//! and 1.13/1.30/1.63 GB/s for 4480³), giving `C0 = 284 MB/s`,
//! `a = 0.27`, `b = 0.12`. The same constants then *predict* the 1120³
//! behaviour of Figures 3 and 7 — they are not re-fit per figure.

use pvr_bgp::consts;

/// Storage fabric model with calibrated constants (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct StorageModel {
    /// Base application-level bandwidth at one I/O node for a
    /// reference-sized read, bytes/s.
    pub base_bw: f64,
    /// Scaling exponent with I/O-node count.
    pub io_scaling_exp: f64,
    /// Reference transfer size for the size-locality term, bytes.
    pub size_ref: f64,
    /// Scaling exponent with transfer size.
    pub size_exp: f64,
    /// Compute-side bandwidth of one I/O-node bridge (tree link).
    pub io_node_bw: f64,
    /// Client injection bandwidth per aggregator (torus link).
    pub client_bw: f64,
    /// Aggregate SAN peak (the paper's ~50 GB/s ceiling).
    pub san_peak: f64,
    /// Collective file-open cost, seconds.
    pub open_cost: f64,
    /// Per-access server overhead, seconds (paid serially per
    /// aggregator, in parallel across aggregators).
    pub access_overhead: f64,
}

impl Default for StorageModel {
    fn default() -> Self {
        StorageModel {
            base_bw: 284.5e6,
            io_scaling_exp: 0.27,
            size_ref: 10.0e9,
            size_exp: 0.121,
            io_node_bw: consts::TREE_LINK_BW,
            client_bw: consts::TORUS_LINK_BW,
            san_peak: 50.0e9,
            open_cost: 15e-3,
            access_overhead: 0.4e-3,
        }
    }
}

impl StorageModel {
    /// Application-level aggregate bandwidth for a read of
    /// `physical_bytes` through `io_nodes` bridges with `aggregators`
    /// reading clients.
    pub fn aggregate_bandwidth(
        &self,
        physical_bytes: u64,
        io_nodes: usize,
        aggregators: usize,
    ) -> f64 {
        let io = io_nodes.max(1) as f64;
        let na = aggregators.max(1) as f64;
        let size_term = ((physical_bytes.max(1) as f64) / self.size_ref)
            .powf(self.size_exp)
            .clamp(0.25, 4.0);
        let fabric = self.base_bw * io.powf(self.io_scaling_exp) * size_term;
        fabric
            .min(io * self.io_node_bw)
            .min(na * self.client_bw)
            .min(self.san_peak)
    }

    /// Wall-clock seconds to complete a read phase that physically moves
    /// `physical_bytes` in `accesses` requests issued by `aggregators`
    /// clients through `io_nodes` bridges.
    pub fn read_time(
        &self,
        physical_bytes: u64,
        accesses: usize,
        io_nodes: usize,
        aggregators: usize,
    ) -> f64 {
        if physical_bytes == 0 {
            return self.open_cost;
        }
        let bw = self.aggregate_bandwidth(physical_bytes, io_nodes, aggregators);
        let per_aggr_accesses = accesses.div_ceil(aggregators.max(1));
        self.open_cost
            + physical_bytes as f64 / bw
            + per_aggr_accesses as f64 * self.access_overhead
    }

    /// Seconds for the exchange phase that redistributes `bytes` from
    /// aggregators to the ranks that own them. The traffic is spread
    /// over the partition's torus; at the paper's scales it is a small
    /// fraction of the read phase.
    pub fn exchange_time(&self, bytes: u64, nodes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        // Each node can drain roughly half a link of exchange traffic
        // under DOR contention.
        let bw = nodes.max(1) as f64 * self.client_bw * 0.5;
        bytes as f64 / bw + consts::TORUS_MAX_LATENCY
    }

    /// BG/P-style default aggregator count: eight per pset, capped at
    /// the rank count.
    pub fn default_aggregators(ranks: usize, io_nodes: usize) -> usize {
        (8 * io_nodes.max(1)).min(ranks.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    /// The model must reproduce the six Table II read-bandwidth cells
    /// within ~20% — the calibration targets.
    #[test]
    fn table2_bandwidths_within_tolerance() {
        let m = StorageModel::default();
        // (grid bytes, cores, paper GB/s)
        let cases = [
            (44.9e9, 8192usize, 0.87),
            (44.9e9, 16384, 1.02),
            (44.9e9, 32768, 1.26),
            (359.0e9, 8192, 1.13),
            (359.0e9, 16384, 1.30),
            (359.0e9, 32768, 1.63),
        ];
        for (bytes, cores, paper) in cases {
            let io_nodes = cores / 4 / 64;
            let naggr = StorageModel::default_aggregators(cores, io_nodes);
            let bw = m.aggregate_bandwidth(bytes as u64, io_nodes, naggr) / GB;
            let err = (bw - paper).abs() / paper;
            assert!(
                err < 0.20,
                "{bytes}B @ {cores}: model {bw:.2} vs paper {paper} ({err:.0}%)"
            );
        }
    }

    #[test]
    fn bandwidth_grows_with_io_nodes() {
        let m = StorageModel::default();
        let b1 = m.aggregate_bandwidth(5 << 30, 1, 8);
        let b8 = m.aggregate_bandwidth(5 << 30, 8, 64);
        let b128 = m.aggregate_bandwidth(5 << 30, 128, 1024);
        assert!(b1 < b8 && b8 < b128);
        assert!(b128 < m.san_peak);
    }

    #[test]
    fn single_io_node_is_tree_limited_for_huge_reads() {
        // Pretend the fabric is infinitely fast.
        let m = StorageModel {
            base_bw: 10e9,
            ..Default::default()
        };
        let bw = m.aggregate_bandwidth(1 << 40, 1, 64);
        assert!(bw <= m.io_node_bw + 1.0);
    }

    #[test]
    fn read_time_includes_access_overhead() {
        let m = StorageModel::default();
        let fast = m.read_time(1 << 30, 10, 8, 8);
        let slow = m.read_time(1 << 30, 100_000, 8, 8);
        assert!(slow > fast + 1.0, "fast {fast} slow {slow}");
    }

    #[test]
    fn exchange_is_small_versus_read_at_scale() {
        let m = StorageModel::default();
        let read = m.read_time(5_368_709_120, 3000, 64, 512);
        let exch = m.exchange_time(5_368_709_120, 4096);
        assert!(exch < read / 20.0, "read {read} exchange {exch}");
    }

    #[test]
    fn frame_level_sanity_1120_at_16k() {
        // The paper's best frame: 1120^3 raw read in ~5.3 s at 16K cores.
        let m = StorageModel::default();
        let bytes = 1120u64.pow(3) * 4;
        let io_nodes = 16384 / 4 / 64;
        let naggr = StorageModel::default_aggregators(16384, io_nodes);
        let accesses = (bytes / (16 << 20)) as usize + naggr; // ~16 MiB windows
        let t = m.read_time(bytes, accesses, io_nodes, naggr);
        assert!(t > 4.0 && t < 8.5, "I/O time {t}");
    }
}
