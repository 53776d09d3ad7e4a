//! Machine configuration: partitions, psets, and the rank-to-node map.
//!
//! A BG/P job runs on a *partition* — a torus-shaped subset of the
//! machine. Within a partition, compute nodes are grouped into *psets*
//! of 64 nodes, each served by one I/O node that bridges the tree
//! network to the parallel file system. The volume renderer runs one MPI
//! rank per core ("VN mode": 4 ranks per node).

use crate::consts;
use crate::topology::Torus;

/// How ranks are mapped onto cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankMode {
    /// One rank per node (SMP mode).
    Smp,
    /// Two ranks per node (DUAL mode).
    Dual,
    /// One rank per core — four per node (VN mode); the paper's setup.
    VirtualNode,
}

impl RankMode {
    pub fn ranks_per_node(self) -> usize {
        match self {
            RankMode::Smp => 1,
            RankMode::Dual => 2,
            RankMode::VirtualNode => consts::CORES_PER_NODE,
        }
    }
}

/// Configuration for building a [`Machine`].
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Total MPI ranks (cores in use).
    pub ranks: usize,
    /// Rank-to-core mapping mode.
    pub mode: RankMode,
}

impl MachineConfig {
    /// The paper's configuration: VN mode, one rank per core.
    pub fn vn(ranks: usize) -> Self {
        MachineConfig {
            ranks,
            mode: RankMode::VirtualNode,
        }
    }
}

/// A job partition of the Blue Gene/P: a torus of compute nodes, the
/// rank map, and the I/O-node count.
#[derive(Debug, Clone)]
pub struct Machine {
    torus: Torus,
    config: MachineConfig,
    nodes: usize,
}

impl Machine {
    /// Build the partition needed to host `config.ranks` ranks.
    ///
    /// Panics if the required node count is not a power of two (BG/P
    /// partitions are powers of two).
    pub fn new(config: MachineConfig) -> Self {
        let rpn = config.mode.ranks_per_node();
        assert!(config.ranks >= 1, "need at least one rank");
        let nodes = config.ranks.div_ceil(rpn).next_power_of_two();
        let torus = Torus::near_cubic(nodes);
        Machine {
            torus,
            config,
            nodes,
        }
    }

    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    pub fn num_ranks(&self) -> usize {
        self.config.ranks
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Torus node hosting `rank`. Consecutive ranks fill a node before
    /// moving on (BG/P's default "XYZT" mapping places the T dimension,
    /// i.e. the core index, fastest is "TXYZ"; the paper does not state
    /// the mapping, and block order is what matters for our schedules).
    pub fn node_of_rank(&self, rank: usize) -> usize {
        debug_assert!(rank < self.config.ranks);
        rank / self.config.mode.ranks_per_node()
    }

    /// Number of I/O nodes serving this partition (one per 64 compute
    /// nodes, minimum one).
    pub fn num_io_nodes(&self) -> usize {
        self.nodes.div_ceil(consts::NODES_PER_IO_NODE).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vn_mode_packs_four_ranks_per_node() {
        let m = Machine::new(MachineConfig::vn(1024));
        assert_eq!(m.num_nodes(), 256);
        assert_eq!(m.node_of_rank(0), 0);
        assert_eq!(m.node_of_rank(3), 0);
        assert_eq!(m.node_of_rank(4), 1);
    }

    #[test]
    fn io_node_ratio() {
        let m = Machine::new(MachineConfig::vn(32768));
        assert_eq!(m.num_nodes(), 8192);
        assert_eq!(m.num_io_nodes(), 128);
    }

    #[test]
    fn small_partitions_have_one_io_node() {
        let m = Machine::new(MachineConfig::vn(64));
        assert_eq!(m.num_nodes(), 16);
        assert_eq!(m.num_io_nodes(), 1);
    }

    #[test]
    fn non_power_of_two_ranks_round_up_nodes() {
        let m = Machine::new(MachineConfig::vn(100));
        assert_eq!(m.num_nodes(), 32); // ceil(100/4)=25 -> 32
        assert_eq!(m.num_ranks(), 100);
    }
}
