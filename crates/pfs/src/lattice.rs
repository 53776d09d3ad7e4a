//! The scatter plan of a regular block lattice, built in file order.
//!
//! [`ScatterPlan::build`] takes any request list: it gathers every
//! rank's placed runs and radix-sorts them into `(file_offset, rank)`
//! order. A frame's blocks are not any request list. They are a lattice
//! of boxes, and the file stores the grid row by row, `(z, y)` rows with
//! x fastest. So walking the file's rows and, in each row, the blocks
//! that store part of it, emits the runs already in that order:
//! [`ScatterPlan::from_lattice`] holds the run list once, at its exact
//! length, and coalesces the aggregate request as the runs go by. No
//! request list, no sort, no scratch copy.

use std::ops::Range;

use pvr_formats::extent::Extent;
use pvr_formats::layout::FileLayout;
use pvr_formats::{Subvolume, ELEM_SIZE};

use crate::twophase::{CollectiveHints, ScatterPlan, ScatterRun};

/// The stored regions of a regular block lattice, given per axis: block
/// `(bx, by, bz)` stores `x[bx] × y[by] × z[bz]` of the grid, ghosts
/// included, and is rank `(bz · y.len() + by) · x.len() + bx` — x
/// fastest, as the volume crate's block decomposition numbers blocks.
/// Along an axis, the intervals' starts and ends do not decrease; two
/// blocks may start at the same voxel where a ghost is clamped to the
/// grid.
#[derive(Debug)]
pub struct StoredLattice {
    axes: [Vec<Range<usize>>; 3],
}

impl StoredLattice {
    /// The lattice of `axes = [x, y, z]`; panics on an empty axis or
    /// interval, or on intervals whose starts or ends decrease.
    pub fn new(axes: [Vec<Range<usize>>; 3]) -> StoredLattice {
        for axis in &axes {
            assert!(!axis.is_empty(), "a lattice axis without blocks");
            assert!(axis.iter().all(|r| r.start < r.end), "an empty interval");
            assert!(
                axis.windows(2)
                    .all(|w| w[0].start <= w[1].start && w[0].end <= w[1].end),
                "intervals along an axis must not go backwards"
            );
        }
        StoredLattice { axes }
    }

    /// Blocks, one per rank.
    fn num_blocks(&self) -> usize {
        self.axes.iter().map(Vec::len).product()
    }

    /// The stored region of `rank`'s block.
    pub fn block(&self, rank: usize) -> Subvolume {
        let [cx, cy, _] = self.axes.each_ref().map(Vec::len);
        let coords = [rank % cx, rank / cx % cy, rank / (cx * cy)];
        let r = |a: usize| &self.axes[a][coords[a]];
        Subvolume::new([0, 1, 2].map(|a| r(a).start), [0, 1, 2].map(|a| r(a).len()))
    }

    /// The blocks along axis `a` whose interval holds voxel `c`: a range,
    /// since starts and ends both ascend.
    fn covering(&self, a: usize, c: usize) -> Range<usize> {
        let axis = &self.axes[a];
        axis.partition_point(|r| r.end <= c)..axis.partition_point(|r| r.start <= c)
    }
}

impl ScatterPlan {
    /// [`ScatterPlan::build`]'s plan of the lattice's blocks reading
    /// variable `var` of `layout`, built in file order. One
    /// `placed_runs` call per z-slab gives the base offset of each of
    /// its rows, which must ascend without overlapping (every layout
    /// whose rows are contiguous in the file). In a row, the blocks
    /// storing part of it are visited in groups of equal stored x start,
    /// ascending, then by `bz`, `by` and `bx`: `(file_offset, rank)`
    /// order, as `build` sorts it.
    pub fn from_lattice(
        layout: &dyn FileLayout,
        var: usize,
        lattice: &StoredLattice,
        num_aggregators: usize,
        hints: &CollectiveHints,
    ) -> ScatterPlan {
        let [xs, ys, zs] = &lattice.axes;
        let nranks = lattice.num_blocks();
        let rank_of = |bx: usize, by: usize, bz: usize| {
            u32::try_from((bz * ys.len() + by) * xs.len() + bx).expect("fewer than 2^32 ranks")
        };
        // Blocks along x with one stored start: a run of them reads one
        // file offset, so rank order decides among them.
        let mut at = 0;
        let x_groups: Vec<Range<usize>> = xs
            .chunk_by(|a, b| a.start == b.start)
            .map(|g| {
                at += g.len();
                at - g.len()..at
            })
            .collect();
        let rows_stored = |axis: &[Range<usize>]| axis.iter().map(Range::len).sum::<usize>();
        let count = xs.len() * rows_stored(ys) * rows_stored(zs);
        let mut runs = Vec::with_capacity(count);
        let mut aggregate: Vec<Extent> = Vec::new();

        let grid = layout.grid();
        let fits = |(axis, n): (&Vec<Range<usize>>, usize)| axis.iter().all(|r| r.end <= n);
        assert!(
            lattice.axes.iter().zip(grid).all(fits),
            "the lattice reaches outside the grid"
        );
        let [nx, ny, nz] = grid;
        let row_bytes = nx as u64 * ELEM_SIZE;
        let mut next_row = 0u64;
        for z in 0..nz {
            let bzs = lattice.covering(2, z);
            if bzs.is_empty() {
                continue;
            }
            let slab = Subvolume::new([0, 0, z], [nx, ny, 1]);
            layout.placed_runs(var, &slab, &mut |row| {
                assert!(
                    row.elems == nx && row.file_offset >= next_row,
                    "the file's rows must be contiguous and ascend"
                );
                next_row = row.file_offset + row_bytes;
                let y = row.out_start / nx;
                for g in &x_groups {
                    let file_offset = row.file_offset + xs[g.start].start as u64 * ELEM_SIZE;
                    for bz in bzs.clone() {
                        for by in lattice.covering(1, y) {
                            let plane = ((z - zs[bz].start) * ys[by].len() + y - ys[by].start)
                                * ELEM_SIZE as usize;
                            for bx in g.clone() {
                                let run = ScatterRun {
                                    file_offset,
                                    out_byte: plane * xs[bx].len(),
                                    elems: u32::try_from(xs[bx].len())
                                        .expect("a run of fewer than 2^32 elements"),
                                    rank: rank_of(bx, by, bz),
                                };
                                extend(&mut aggregate, run.file_offset, run.bytes());
                                runs.push(run);
                            }
                        }
                    }
                }
            });
        }
        debug_assert_eq!(runs.len(), count, "the lattice's runs, counted");
        ScatterPlan::from_sorted(runs, &aggregate, nranks, num_aggregators, hints)
    }
}

/// Add the extent `[offset, offset + len)`, which starts at or after
/// the last one's start, to the sorted, disjoint `aggregate`, merging
/// touching and overlapping extents as `merge_sorted` does.
fn extend(aggregate: &mut Vec<Extent>, offset: u64, len: u64) {
    match aggregate.last_mut() {
        Some(last) if last.end() >= offset => {
            last.len = last.len.max(offset + len - last.offset);
        }
        _ => aggregate.push(Extent::new(offset, len)),
    }
}
