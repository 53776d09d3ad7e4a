//! Min/max macrocells for conservative empty-space skipping.
//!
//! A [`MacrocellGrid`] summarizes a volume at two granularities: one
//! `(min, max)` pair per 8³-voxel macrocell, and one per 2³-voxel
//! *refined* cell. Built in one O(voxels) pass per block — per frame,
//! when every frame is a new time step, so the build runs at close to
//! the speed of reading the voxels — it is reusable across views of the
//! same data: the renderer uses the ranges to prove that a trilinear
//! fetch *must* land in a value range the transfer function maps to
//! exactly zero opacity, and skips the fetch, classification, and
//! shading for that sample. The macrocell ranges say whether a block
//! has anything to skip at all; the refined ranges make the ray-packet
//! kernel's shared skip field, whose dilation by the packet's lane
//! spread would be drowned out by 8-voxel quantization.
//!
//! Conservativeness: trilinear interpolation is a convex combination of
//! the eight corner voxels, so the result lies in `[min, max]` of the
//! corners. Each cell's range is taken over the *inclusive* voxel range
//! `[s·c, min(s·c + s, n-1)]` per axis (`s` = cell size) — one voxel of
//! overlap with the next cell — so that for any sample position `p`
//! with `floor(clamp(p)) = x0` inside the cell, both corners `x0` and
//! `x1 = min(x0+1, n-1)` are covered. Clamped out-of-volume positions
//! resolve to boundary voxels, which boundary cells cover. The ranges
//! ignore NaN voxels, so the grid also records whether any voxel is
//! non-finite ([`MacrocellGrid::holds_non_finite`]): no range of such a
//! grid proves a sample transparent.

use crate::grid::Volume;

/// Edge length of a macrocell in voxels.
pub const MACROCELL_SIZE: usize = 8;

/// Edge length of a refined summary cell in voxels. Divides
/// [`MACROCELL_SIZE`], so every macrocell is exactly a 4³ block of
/// refined cells.
pub const REFINED_SIZE: usize = 2;

/// The empty range: the identity of the min/max fold.
const EMPTY: (f32, f32) = (f32::INFINITY, f32::NEG_INFINITY);

/// `(lo, hi)` widened to cover `(a, b)`. Compare-and-select rather than
/// `f32::min`/`max`: a NaN compares false and is ignored just the same
/// (the range itself, grown from [`EMPTY`], is never NaN), but each
/// select is a bare vector min/max with no NaN fix-up around it.
#[inline]
fn cover((lo, hi): (f32, f32), (a, b): (f32, f32)) -> (f32, f32) {
    (if a < lo { a } else { lo }, if b > hi { b } else { hi })
}

/// Range of a run of voxels, NaNs ignored.
#[inline]
fn range_of(voxels: &[f32]) -> (f32, f32) {
    voxels.iter().fold(EMPTY, |r, &v| cover(r, (v, v)))
}

/// Widen each range in `dst` to cover the matching range in `src`.
fn widen(dst: &mut [(f32, f32)], src: &[(f32, f32)]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = cover(*d, s);
    }
}

/// Two-level per-cell min/max summary of a [`Volume`].
#[derive(Debug, Clone)]
pub struct MacrocellGrid {
    cells: [usize; 3],
    /// Row-major (x fastest) `(min, max)` per macrocell.
    minmax: Vec<(f32, f32)>,
    refined_cells: [usize; 3],
    /// Row-major (x fastest) `(min, max)` per refined cell.
    refined: Vec<(f32, f32)>,
    /// Some voxel is NaN or ±∞ (see [`MacrocellGrid::holds_non_finite`]).
    non_finite: bool,
}

impl MacrocellGrid {
    /// Build both summaries in one pass over the volume: the refined
    /// ranges by three separable min/max reductions (below), the
    /// macrocell ranges by folding the refined cells they tile. The fold
    /// covers exactly the macrocell's inclusive voxel range (the chained
    /// one-voxel overlaps line up), and min/max is insensitive to the
    /// repeated boundary voxels, so the macrocell ranges are bitwise
    /// identical to a direct pass.
    ///
    /// A refined cell's range is a min/max over a box of voxels, and
    /// min/max (NaN ignored) does not care about order, so it splits per
    /// axis: each voxel row is reduced along x to one range per refined
    /// column, each reduced row is folded into the refined row(s) its
    /// `y` belongs to, and each finished plane into the refined slab(s)
    /// its `z` belongs to. The y and z folds are element-wise over
    /// contiguous rows and planes, so they vectorise; the scratch is one
    /// reduced row and one reduced plane.
    pub fn build(vol: &Volume) -> Self {
        let dims = vol.dims();
        let cells = [
            Self::cells_along(dims[0]),
            Self::cells_along(dims[1]),
            Self::cells_along(dims[2]),
        ];
        let refined_cells = [
            Self::cells_along_size(dims[0], REFINED_SIZE),
            Self::cells_along_size(dims[1], REFINED_SIZE),
            Self::cells_along_size(dims[2], REFINED_SIZE),
        ];
        let [rx, ry, rz] = refined_cells;
        let mut refined = vec![EMPTY; rx * ry * rz];
        let mut scratch = vec![EMPTY; rx + rx * ry];
        let (row, plane) = scratch.split_at_mut(rx);
        let mut non_finite = false;
        for z in 0..dims[2] {
            plane.fill(EMPTY);
            for y in 0..dims[1] {
                let voxels = &vol.data()[vol.index(0, y, z)..][..dims[0]];
                // A branch-free pass over the row while it is in L1.
                non_finite |= voxels.iter().fold(false, |n, v| n | !v.is_finite());
                // Whole (overlap included) cells are fixed-length windows;
                // the last cell is whatever voxels remain.
                let whole = voxels.windows(REFINED_SIZE + 1).step_by(REFINED_SIZE);
                for (out, cell) in row.iter_mut().zip(whole) {
                    *out = range_of(cell);
                }
                row[rx - 1] = range_of(&voxels[(rx - 1) * REFINED_SIZE..]);
                for cy in Self::refined_cells_of(y) {
                    widen(&mut plane[cy * rx..][..rx], row);
                }
            }
            for cz in Self::refined_cells_of(z) {
                widen(&mut refined[cz * rx * ry..][..rx * ry], plane);
            }
        }
        let fold = MACROCELL_SIZE / REFINED_SIZE;
        let mut minmax = vec![EMPTY; cells[0] * cells[1] * cells[2]];
        for cz in 0..cells[2] {
            for cy in 0..cells[1] {
                for cx in 0..cells[0] {
                    let mut lo = f32::INFINITY;
                    let mut hi = f32::NEG_INFINITY;
                    for rz in (cz * fold)..((cz * fold + fold).min(refined_cells[2])) {
                        for ry in (cy * fold)..((cy * fold + fold).min(refined_cells[1])) {
                            let row = (rz * refined_cells[1] + ry) * refined_cells[0];
                            let rx0 = cx * fold;
                            let rx1 = (rx0 + fold).min(refined_cells[0]);
                            for &(rlo, rhi) in &refined[row + rx0..row + rx1] {
                                lo = lo.min(rlo);
                                hi = hi.max(rhi);
                            }
                        }
                    }
                    minmax[(cz * cells[1] + cy) * cells[0] + cx] = (lo, hi);
                }
            }
        }
        MacrocellGrid {
            cells,
            minmax,
            refined_cells,
            refined,
            non_finite,
        }
    }

    /// Whether any voxel is NaN or ±∞. The ranges ignore NaNs, but a
    /// trilinear fetch touching one is NaN, and so is one touching an
    /// infinity at a zero fraction (`(∞ − a)·0`) or two of opposite
    /// sign; a NaN sample classifies to NaN, which is not a zero-opacity
    /// no-op. No range of such a grid proves a sample transparent.
    pub fn holds_non_finite(&self) -> bool {
        self.non_finite
    }

    /// Refined cells whose inclusive voxel range holds voxel index `i`
    /// along an axis: `i / 2`, preceded by `i / 2 - 1` when `i` is that
    /// cell's overlap voxel (even, and not the first).
    fn refined_cells_of(i: usize) -> std::ops::RangeInclusive<usize> {
        let c = i / REFINED_SIZE;
        c.saturating_sub(i.is_multiple_of(REFINED_SIZE) as usize)..=c
    }

    fn cells_along(n: usize) -> usize {
        Self::cells_along_size(n, MACROCELL_SIZE)
    }

    fn cells_along_size(n: usize, size: usize) -> usize {
        // Cells must cover voxel indices 0..=n-1.
        (n.max(1) - 1) / size + 1
    }

    /// Inclusive voxel range summarized by a size-`size` cell `c`:
    /// `[size·c, min(size·c + size, n-1)]` (one voxel of overlap).
    #[cfg(test)]
    fn voxel_range_size(c: usize, n: usize, size: usize) -> (usize, usize) {
        let lo = c * size;
        let hi = (lo + size).min(n - 1);
        (lo, hi.max(lo))
    }

    /// The definition, as a test oracle: one serial min/max fold per
    /// size-`size` cell over its inclusive voxel box (how `build`
    /// computed the refined ranges before it went separable).
    #[cfg(test)]
    fn brute_force_ranges(vol: &Volume, size: usize) -> Vec<(f32, f32)> {
        let dims = vol.dims();
        let n = dims.map(|d| Self::cells_along_size(d, size));
        let mut out = Vec::with_capacity(n[0] * n[1] * n[2]);
        for cz in 0..n[2] {
            let (z0, z1) = Self::voxel_range_size(cz, dims[2], size);
            for cy in 0..n[1] {
                let (y0, y1) = Self::voxel_range_size(cy, dims[1], size);
                for cx in 0..n[0] {
                    let (x0, x1) = Self::voxel_range_size(cx, dims[0], size);
                    let mut lo = f32::INFINITY;
                    let mut hi = f32::NEG_INFINITY;
                    for z in z0..=z1 {
                        for y in y0..=y1 {
                            let row = vol.index(x0, y, z);
                            for &v in &vol.data()[row..row + (x1 - x0 + 1)] {
                                lo = lo.min(v);
                                hi = hi.max(v);
                            }
                        }
                    }
                    out.push((lo, hi));
                }
            }
        }
        out
    }

    /// Cell counts per axis.
    pub fn cells(&self) -> [usize; 3] {
        self.cells
    }

    pub fn num_cells(&self) -> usize {
        self.minmax.len()
    }

    /// Cell coordinates of the cell holding voxel `(x, y, z)` — the
    /// cell whose range covers the trilinear support of any sample
    /// position that floors (after clamping) to that voxel.
    #[inline]
    pub fn cell_of_voxel(&self, x: usize, y: usize, z: usize) -> [usize; 3] {
        [
            (x / MACROCELL_SIZE).min(self.cells[0] - 1),
            (y / MACROCELL_SIZE).min(self.cells[1] - 1),
            (z / MACROCELL_SIZE).min(self.cells[2] - 1),
        ]
    }

    /// Row-major index of cell `c` (x fastest).
    #[inline]
    pub fn index_of_cell(&self, c: [usize; 3]) -> usize {
        (c[2] * self.cells[1] + c[1]) * self.cells[0] + c[0]
    }

    /// Index of the cell holding voxel `(x, y, z)`; see
    /// [`MacrocellGrid::cell_of_voxel`].
    #[inline]
    pub fn cell_index_of_voxel(&self, x: usize, y: usize, z: usize) -> usize {
        self.index_of_cell(self.cell_of_voxel(x, y, z))
    }

    /// `(min, max)` of cell `i` (row-major, x fastest).
    #[inline]
    pub fn min_max(&self, i: usize) -> (f32, f32) {
        self.minmax[i]
    }

    /// All per-cell ranges (row-major, x fastest) — used to precompute
    /// per-cell verdicts against a transfer function once per render.
    pub fn ranges(&self) -> &[(f32, f32)] {
        &self.minmax
    }

    /// Refined (2³-voxel) cell counts per axis.
    pub fn refined_cells(&self) -> [usize; 3] {
        self.refined_cells
    }

    /// All refined per-cell ranges (row-major, x fastest). Same
    /// conservativeness contract as [`MacrocellGrid::ranges`], at
    /// [`REFINED_SIZE`] granularity.
    pub fn refined_ranges(&self) -> &[(f32, f32)] {
        &self.refined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ramp(dims: [usize; 3]) -> Volume {
        let mut v = Volume::zeros(dims);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    v.set(x, y, z, (x + 10 * y + 100 * z) as f32);
                }
            }
        }
        v
    }

    #[test]
    fn cell_counts_cover_all_voxels() {
        for n in [1usize, 7, 8, 9, 16, 17, 24, 128] {
            let cells = MacrocellGrid::cells_along(n);
            // Last voxel index n-1 maps into the last cell.
            assert!((n - 1) / MACROCELL_SIZE < cells, "n={n}");
            // No empty trailing cell.
            assert!((cells - 1) * MACROCELL_SIZE < n, "n={n}");
        }
    }

    #[test]
    fn ranges_overlap_by_one_voxel() {
        let v = ramp([17, 9, 9]);
        let g = MacrocellGrid::build(&v);
        assert_eq!(g.cells(), [3, 2, 2]);
        // Cell 0 along x covers voxels 0..=8 (values 0..=8).
        let (lo, hi) = g.min_max(g.cell_index_of_voxel(0, 0, 0));
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 8.0 + 10.0 * 8.0 + 100.0 * 8.0);
    }

    #[test]
    fn every_trilinear_sample_is_inside_its_cell_range() {
        let v = ramp([13, 11, 10]);
        let g = MacrocellGrid::build(&v);
        let dims = v.dims();
        // Probe a lattice of positions, including out-of-volume ones.
        let probe = |t: f32, n: usize| -> f32 { t * (n as f32 + 2.0) - 1.5 };
        for iz in 0..8 {
            for iy in 0..8 {
                for ix in 0..8 {
                    let p = [
                        probe(ix as f32 / 7.0, dims[0]),
                        probe(iy as f32 / 7.0, dims[1]),
                        probe(iz as f32 / 7.0, dims[2]),
                    ];
                    let s = v.sample_trilinear(p);
                    let vx = (p[0].clamp(0.0, (dims[0] - 1) as f32)) as usize;
                    let vy = (p[1].clamp(0.0, (dims[1] - 1) as f32)) as usize;
                    let vz = (p[2].clamp(0.0, (dims[2] - 1) as f32)) as usize;
                    let (lo, hi) = g.min_max(g.cell_index_of_voxel(vx, vy, vz));
                    assert!(s >= lo && s <= hi, "p={p:?} s={s} range=({lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn refined_ranges_cover_trilinear_support() {
        let v = ramp([13, 11, 10]);
        let g = MacrocellGrid::build(&v);
        let dims = v.dims();
        let probe = |t: f32, n: usize| -> f32 { t * (n as f32 + 2.0) - 1.5 };
        let rc = g.refined_cells();
        for iz in 0..8 {
            for iy in 0..8 {
                for ix in 0..8 {
                    let p = [
                        probe(ix as f32 / 7.0, dims[0]),
                        probe(iy as f32 / 7.0, dims[1]),
                        probe(iz as f32 / 7.0, dims[2]),
                    ];
                    let s = v.sample_trilinear(p);
                    let cell = |c: f32, n: usize, rc_n: usize| -> usize {
                        ((c.clamp(0.0, (n - 1) as f32) as usize) / REFINED_SIZE).min(rc_n - 1)
                    };
                    let cx = cell(p[0], dims[0], rc[0]);
                    let cy = cell(p[1], dims[1], rc[1]);
                    let cz = cell(p[2], dims[2], rc[2]);
                    let (lo, hi) = g.refined_ranges()[(cz * rc[1] + cy) * rc[0] + cx];
                    assert!(s >= lo && s <= hi, "p={p:?} s={s} range=({lo},{hi})");
                }
            }
        }
    }

    /// Voxels drawn from a small palette, so duplicates, signed zeros,
    /// infinities and (ignored) NaNs all meet inside single cells.
    fn palette_volume(dims: [usize; 3], seed: u64) -> Volume {
        const PALETTE: [f32; 10] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.0,
            1.0,
            -2.5,
            f32::MIN_POSITIVE,
            7.25,
        ];
        let mut rng = proptest::Rng::seeded(seed);
        let data = (0..dims[0] * dims[1] * dims[2])
            .map(|_| match rng.below(3) {
                0 => PALETTE[rng.below(PALETTE.len() as u64) as usize],
                _ => rng.below(1 << 20) as f32 / 1024.0 - 512.0,
            })
            .collect();
        Volume::from_data(dims, data)
    }

    fn assert_build_matches_brute_force(v: &Volume) {
        let g = MacrocellGrid::build(v);
        let dims = v.dims();
        assert!(
            g.refined_ranges() == MacrocellGrid::brute_force_ranges(v, REFINED_SIZE),
            "refined ranges differ for dims {dims:?}"
        );
        assert!(
            g.ranges() == MacrocellGrid::brute_force_ranges(v, MACROCELL_SIZE),
            "macrocell ranges differ for dims {dims:?}"
        );
    }

    #[test]
    fn build_matches_brute_force_at_edge_dims() {
        assert_build_matches_brute_force(&ramp([17, 9, 9]));
        // 1, 2, 3, odd, even and 8k+1 extents on every axis.
        for (i, dims) in [
            [1, 1, 1],
            [2, 1, 3],
            [3, 2, 1],
            [1, 3, 2],
            [9, 17, 33],
            [33, 9, 17],
            [8, 16, 7],
            [35, 34, 25],
        ]
        .into_iter()
        .enumerate()
        {
            assert_build_matches_brute_force(&palette_volume(dims, i as u64));
        }
    }

    #[test]
    fn one_non_finite_voxel_anywhere_is_recorded() {
        let dims = [9, 5, 4];
        let finite = ramp(dims);
        assert!(!MacrocellGrid::build(&finite).holds_non_finite());
        let n = finite.data().len();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // First, last, a row's last voxel (the x-reduction's ragged
            // cell) and an interior one.
            for at in [0, n - 1, dims[0] - 1, n / 2] {
                let mut v = finite.clone();
                v.data_mut()[at] = bad;
                assert!(
                    MacrocellGrid::build(&v).holds_non_finite(),
                    "{bad} at voxel {at}"
                );
            }
        }
    }

    #[test]
    fn all_nan_cells_stay_empty() {
        let v = Volume::from_data([3, 3, 3], vec![f32::NAN; 27]);
        let g = MacrocellGrid::build(&v);
        assert!(g.refined_ranges().iter().all(|&r| r == EMPTY));
        assert_eq!(g.ranges(), [EMPTY]);
    }

    proptest! {
        // Miri interprets the build and both oracles; a handful of
        // cases is what its CI job can afford.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 128 }))]

        #[test]
        fn build_matches_brute_force(
            nx in 1usize..=35, ny in 1usize..=35, nz in 1usize..=35,
            seed in 0u64..u64::MAX,
        ) {
            assert_build_matches_brute_force(&palette_volume([nx, ny, nz], seed));
        }
    }

    #[test]
    fn single_voxel_volume() {
        let v = Volume::from_data([1, 1, 1], vec![4.5]);
        let g = MacrocellGrid::build(&v);
        assert_eq!(g.num_cells(), 1);
        assert_eq!(g.min_max(0), (4.5, 4.5));
    }
}
