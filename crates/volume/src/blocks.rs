//! Sort-last domain decomposition into regular blocks.
//!
//! The paper's renderer "divides the data space into regular blocks and
//! statically allocates a small number of blocks to each process". We
//! factorize the process count into a near-cubic 3D arrangement matched
//! to the grid aspect and assign block `i` to rank `i` (round-robin when
//! there are more blocks than ranks).

use pvr_formats::Subvolume;

/// One block of the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub id: usize,
    /// Grid coordinates of the block in the block lattice.
    pub coords: [usize; 3],
    /// The owned region of the global grid (no ghost).
    pub sub: Subvolume,
}

/// A regular decomposition of `grid` into `counts[0] x counts[1] x
/// counts[2]` blocks.
#[derive(Debug, Clone)]
pub struct BlockDecomposition {
    grid: [usize; 3],
    counts: [usize; 3],
}

impl BlockDecomposition {
    /// Decompose `grid` into exactly `nblocks` regular blocks, choosing
    /// per-axis counts that keep blocks near-cubic. `nblocks` must
    /// factorize into counts that do not exceed the grid dimensions.
    pub fn new(grid: [usize; 3], nblocks: usize) -> Self {
        assert!(nblocks >= 1);
        let counts = Self::factorize(grid, nblocks);
        BlockDecomposition { grid, counts }
    }

    /// Choose near-cubic block counts: repeatedly split the axis whose
    /// per-block extent is largest.
    fn factorize(grid: [usize; 3], nblocks: usize) -> [usize; 3] {
        let mut counts = [1usize, 1, 1];
        let mut remaining = nblocks;
        // Split by prime factors, largest-extent axis first.
        let mut factors = Vec::new();
        let mut n = remaining;
        let mut p = 2;
        while p * p <= n {
            while n.is_multiple_of(p) {
                factors.push(p);
                n /= p;
            }
            p += 1;
        }
        if n > 1 {
            factors.push(n);
        }
        factors.sort_unstable_by(|a, b| b.cmp(a));
        for f in factors {
            // Pick the axis with the largest per-block extent that can
            // still be split.
            let mut best = usize::MAX;
            let mut best_extent = 0.0f64;
            for a in 0..3 {
                let extent = grid[a] as f64 / counts[a] as f64;
                if counts[a] * f <= grid[a] && extent > best_extent {
                    best = a;
                    best_extent = extent;
                }
            }
            assert!(
                best != usize::MAX,
                "cannot decompose grid {grid:?} into {nblocks} blocks"
            );
            counts[best] *= f;
        }
        remaining = 1; // consumed
        let _ = remaining;
        counts
    }

    pub fn grid(&self) -> [usize; 3] {
        self.grid
    }

    /// Blocks per axis.
    pub fn counts(&self) -> [usize; 3] {
        self.counts
    }

    pub fn num_blocks(&self) -> usize {
        self.counts[0] * self.counts[1] * self.counts[2]
    }

    /// The block with dense id `i` (x-fastest in the block lattice).
    pub fn block(&self, id: usize) -> Block {
        assert!(id < self.num_blocks());
        let bx = id % self.counts[0];
        let by = (id / self.counts[0]) % self.counts[1];
        let bz = id / (self.counts[0] * self.counts[1]);
        let coords = [bx, by, bz];
        let mut offset = [0usize; 3];
        let mut shape = [0usize; 3];
        for a in 0..3 {
            // Even split with the remainder spread over the first blocks.
            let base = self.grid[a] / self.counts[a];
            let rem = self.grid[a] % self.counts[a];
            let c = coords[a];
            offset[a] = c * base + c.min(rem);
            shape[a] = base + usize::from(c < rem);
        }
        Block {
            id,
            coords,
            sub: Subvolume::new(offset, shape),
        }
    }

    /// All blocks in id order.
    pub fn blocks(&self) -> Vec<Block> {
        (0..self.num_blocks()).map(|i| self.block(i)).collect()
    }

    /// The block's subvolume extended by `ghost` voxels on every side,
    /// clamped to the grid — the region a rank actually reads so that
    /// boundary samples interpolate correctly.
    pub fn with_ghost(&self, b: &Block, ghost: usize) -> Subvolume {
        let mut offset = [0usize; 3];
        let mut shape = [0usize; 3];
        for a in 0..3 {
            let lo = b.sub.offset[a].saturating_sub(ghost);
            let hi = (b.sub.offset[a] + b.sub.shape[a] + ghost).min(self.grid[a]);
            offset[a] = lo;
            shape[a] = hi - lo;
        }
        Subvolume::new(offset, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_matches_block_count() {
        for n in [1usize, 2, 3, 4, 8, 12, 64, 100, 128, 1000, 2048] {
            let d = BlockDecomposition::new([512, 512, 512], n);
            assert_eq!(d.num_blocks(), n, "n={n} counts={:?}", d.counts());
        }
    }

    #[test]
    fn near_cubic_for_cubic_grids() {
        let d = BlockDecomposition::new([1120, 1120, 1120], 4096);
        let c = d.counts();
        assert_eq!(c[0] * c[1] * c[2], 4096);
        let max = *c.iter().max().unwrap();
        let min = *c.iter().min().unwrap();
        assert!(max / min <= 2, "skewed counts {c:?}");
    }

    #[test]
    fn blocks_partition_the_grid() {
        let d = BlockDecomposition::new([37, 23, 11], 24);
        let mut seen = vec![false; 37 * 23 * 11];
        for b in d.blocks() {
            let e = b.sub.end();
            for z in b.sub.offset[2]..e[2] {
                for y in b.sub.offset[1]..e[1] {
                    for x in b.sub.offset[0]..e[0] {
                        let i = (z * 23 + y) * 37 + x;
                        assert!(!seen[i], "voxel ({x},{y},{z}) covered twice");
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some voxels uncovered");
    }

    #[test]
    fn ghost_clamps_at_domain_edges() {
        let d = BlockDecomposition::new([16, 16, 16], 8);
        let b = d.block(0);
        let g = d.with_ghost(&b, 1);
        assert_eq!(g.offset, [0, 0, 0]);
        assert_eq!(g.shape, [9, 9, 9]);
        let b7 = d.block(7);
        let g7 = d.with_ghost(&b7, 1);
        assert_eq!(g7.offset, [7, 7, 7]);
        assert_eq!(g7.end(), [16, 16, 16]);
    }

    #[test]
    fn anisotropic_grids_split_long_axis_first() {
        let d = BlockDecomposition::new([1000, 10, 10], 8);
        assert_eq!(d.counts(), [8, 1, 1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn decomposition_partitions_exactly(
            // Grid dims at least as large as any prime factor of n, so
            // the factorization precondition always holds.
            gx in 64usize..128, gy in 64usize..128, gz in 64usize..128,
            n in 1usize..64,
        ) {
            let d = BlockDecomposition::new([gx, gy, gz], n);
            prop_assert_eq!(d.num_blocks(), n);
            let total: usize = d.blocks().iter().map(|b| b.sub.num_elements()).sum();
            prop_assert_eq!(total, gx * gy * gz);
            for b in d.blocks() {
                prop_assert!(b.sub.fits([gx, gy, gz]));
                prop_assert!(b.sub.num_elements() > 0);
            }
        }
    }
}
