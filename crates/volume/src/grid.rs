//! In-memory structured-grid volumes with trilinear sampling.

use rayon::prelude::*;

use crate::field::{voxel_centre, ScalarField};

/// A dense 3D scalar volume, row-major with x fastest.
///
/// Volumes are the unit of data each rank holds after I/O: its block of
/// the global grid (usually padded by a one-voxel ghost layer so ray
/// samples near block faces interpolate correctly).
///
/// ```
/// use pvr_volume::{SupernovaField, Volume};
///
/// // Sample the synthetic supernova's X velocity at 32^3.
/// let field = SupernovaField::new(1530).variable(2);
/// let vol = Volume::from_field(&field, [32, 32, 32]);
/// assert_eq!(vol.dims(), [32, 32, 32]);
///
/// // Trilinear sampling between voxel centers is bounded by the data.
/// let (lo, hi) = vol.min_max();
/// let s = vol.sample_trilinear([15.3, 16.7, 15.9]);
/// assert!(s >= lo && s <= hi);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Volume {
    dims: [usize; 3],
    /// Row stride (`dims[0]`) and slab stride (`dims[0] * dims[1]`),
    /// precomputed once so the hot fetch paths do no per-access
    /// multiply chain over `dims`.
    row_stride: usize,
    slab_stride: usize,
    data: Vec<f32>,
}

impl Volume {
    fn with_data(dims: [usize; 3], data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), dims[0] * dims[1] * dims[2]);
        Volume {
            dims,
            row_stride: dims[0],
            slab_stride: dims[0] * dims[1],
            data,
        }
    }

    /// Create a zero-filled volume.
    pub fn zeros(dims: [usize; 3]) -> Self {
        Self::with_data(dims, vec![0.0; dims[0] * dims[1] * dims[2]])
    }

    /// Wrap existing data (length must match `dims`).
    pub fn from_data(dims: [usize; 3], data: Vec<f32>) -> Self {
        assert_eq!(data.len(), dims[0] * dims[1] * dims[2]);
        Self::with_data(dims, data)
    }

    /// Sample `field` over the unit cube at `dims` resolution
    /// (voxel centers), in parallel.
    pub fn from_field(field: &(impl ScalarField + Sync), dims: [usize; 3]) -> Self {
        Self::from_field_window(field, dims, [0; 3], dims)
    }

    /// Sample a *window* of a larger logical grid: voxels
    /// `offset .. offset+dims` of a `global` grid over the unit cube,
    /// at the [`voxel_centre`]s a written dataset stores.
    /// This is how a rank materializes its block of a procedural field.
    pub fn from_field_window(
        field: &(impl ScalarField + Sync),
        global: [usize; 3],
        offset: [usize; 3],
        dims: [usize; 3],
    ) -> Self {
        let [nx, ny, _] = dims;
        let mut data = vec![0.0f32; dims[0] * dims[1] * dims[2]];
        data.par_chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(z, slab)| {
                let pz = voxel_centre(offset[2] + z, global[2]);
                for (y, row) in slab.chunks_exact_mut(nx).enumerate() {
                    let py = voxel_centre(offset[1] + y, global[1]);
                    field.sample_row(offset[0], global[0], py, pz, row);
                }
            });
        Self::with_data(dims, data)
    }

    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The voxels, the volume given up, so that their buffer can be
    /// reused.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        z * self.slab_stride + y * self.row_stride + x
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.index(x, y, z)]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let i = self.index(x, y, z);
        self.data[i] = v;
    }

    /// Trilinear interpolation at a continuous voxel-space position
    /// (`0.0 ..= dims-1` per axis); coordinates are clamped to the
    /// volume, so sampling just outside returns the boundary value.
    ///
    /// Interior positions (`0 <= p[axis] < dims[axis]-1`) take an
    /// unchecked stride-indexed path: the clamp is the identity there
    /// and all eight corners are in bounds, so the fast path performs
    /// the exact same lerps on the exact same corners and is
    /// bit-identical to the general path.
    #[inline]
    pub fn sample_trilinear(&self, p: [f32; 3]) -> f32 {
        let [nx, ny, nz] = self.dims;
        if p[0] >= 0.0
            && p[0] < (nx - 1) as f32
            && p[1] >= 0.0
            && p[1] < (ny - 1) as f32
            && p[2] >= 0.0
            && p[2] < (nz - 1) as f32
        {
            return self.sample_trilinear_interior(p);
        }
        self.sample_trilinear_clamped(p)
    }

    /// The general clamped path (boundary and out-of-volume positions).
    fn sample_trilinear_clamped(&self, p: [f32; 3]) -> f32 {
        let [nx, ny, nz] = self.dims;
        let cx = p[0].clamp(0.0, (nx - 1) as f32);
        let cy = p[1].clamp(0.0, (ny - 1) as f32);
        let cz = p[2].clamp(0.0, (nz - 1) as f32);
        let (x0, y0, z0) = (cx as usize, cy as usize, cz as usize);
        let x1 = (x0 + 1).min(nx - 1);
        let y1 = (y0 + 1).min(ny - 1);
        let z1 = (z0 + 1).min(nz - 1);
        let (fx, fy, fz) = (cx - x0 as f32, cy - y0 as f32, cz - z0 as f32);

        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(self.get(x0, y0, z0), self.get(x1, y0, z0), fx);
        let c10 = lerp(self.get(x0, y1, z0), self.get(x1, y1, z0), fx);
        let c01 = lerp(self.get(x0, y0, z1), self.get(x1, y0, z1), fx);
        let c11 = lerp(self.get(x0, y1, z1), self.get(x1, y1, z1), fx);
        lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
    }

    /// Interior fetch: no clamps, no per-corner index multiplies —
    /// one base offset plus precomputed row/slab strides, bounds checks
    /// elided in release. Caller must guarantee
    /// `0 <= p[axis] < dims[axis]-1` for every axis.
    #[inline]
    fn sample_trilinear_interior(&self, p: [f32; 3]) -> f32 {
        let (x0, y0, z0) = (p[0] as usize, p[1] as usize, p[2] as usize);
        let (fx, fy, fz) = (p[0] - x0 as f32, p[1] - y0 as f32, p[2] - z0 as f32);
        debug_assert!(
            x0 + 1 < self.dims[0] && y0 + 1 < self.dims[1] && z0 + 1 < self.dims[2],
            "interior precondition violated: p = {p:?}, dims = {:?}",
            self.dims
        );
        let base = z0 * self.slab_stride + y0 * self.row_stride + x0;
        // The largest offset fetched below is the (x0+1, y0+1, z0+1)
        // corner; assert it strictly in bounds, not just <= len.
        debug_assert!(base + self.slab_stride + self.row_stride + 1 < self.data.len());
        // SAFETY: the caller guarantees 0 <= p[axis] < dims[axis]-1, so
        // x0+1 <= nx-1, y0+1 <= ny-1, z0+1 <= nz-1 (debug-asserted
        // above). The eight corners fetched are base + {0,1} +
        // {0,row_stride} + {0,slab_stride}; the largest is
        // (z0+1)*slab + (y0+1)*row + (x0+1) <= (nz-1)*slab +
        // (ny-1)*row + (nx-1) = data.len()-1, with row_stride = nx and
        // slab_stride = nx*ny as set in `Volume::zeros`. `data` is a
        // plain owned Vec<f32> borrowed shared here — no aliasing or
        // validity concerns beyond the bounds.
        let at = |off: usize| unsafe { *self.data.get_unchecked(base + off) };
        let (sy, sz) = (self.row_stride, self.slab_stride);
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(at(0), at(1), fx);
        let c10 = lerp(at(sy), at(sy + 1), fx);
        let c01 = lerp(at(sz), at(sz + 1), fx);
        let c11 = lerp(at(sz + sy), at(sz + sy + 1), fx);
        lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
    }

    /// Whether the packet fetch's 32-bit lane arithmetic covers this
    /// volume: every axis at most 2²⁴ voxels, so `dims - 1` and every
    /// voxel index are exact in `f32` and fit `i32`, and a slab of at
    /// most `u32::MAX` voxels, so the base offset is a sum of
    /// `u32 × u32` products.
    #[inline]
    fn lanes_fit_32(&self) -> bool {
        const EXACT: usize = 1 << 24;
        self.dims.iter().all(|&n| n <= EXACT) && self.slab_stride <= u32::MAX as usize
    }

    /// Packet variant of [`Volume::sample_trilinear`]: up to `W`
    /// gathered fetches per call, one per enabled lane, positions in
    /// structure-of-arrays form (`xs[i], ys[i], zs[i]`). Each enabled
    /// lane's result is **bit-identical** to calling
    /// [`Volume::sample_trilinear`] on that lane's position alone — the
    /// packet only batches the address computation, the eight-corner
    /// gathers, and the (lane-independent) lerp arithmetic into
    /// branch-free lane-parallel passes the compiler vectorizes: every
    /// test is a non-short-circuit `&`, every mask a select, and the
    /// coordinates are truncated in 32-bit lanes. Disabled lanes return
    /// `0.0`; their position values may be arbitrary (even NaN) — they
    /// are replaced by `0.0` before any cast and their result is
    /// discarded, so they read voxel 0's corners and never anything out
    /// of bounds.
    ///
    /// When every enabled lane is interior (`0 <= p[a] < dims[a]-1`),
    /// the corners are gathered over the precomputed-stride unchecked
    /// path; a single enabled boundary lane demotes the whole packet to
    /// the general clamped path, which is rare — only rays grazing the
    /// stored region's faces produce such packets.
    pub fn sample_trilinear_packet<const W: usize>(
        &self,
        xs: &[f32; W],
        ys: &[f32; W],
        zs: &[f32; W],
        mask: &[bool; W],
    ) -> [f32; W] {
        let [nx, ny, nz] = self.dims;
        let (hx, hy, hz) = ((nx - 1) as f32, (ny - 1) as f32, (nz - 1) as f32);
        let mut interior = true;
        let mut any = false;
        for i in 0..W {
            let inb = (xs[i] >= 0.0)
                & (xs[i] < hx)
                & (ys[i] >= 0.0)
                & (ys[i] < hy)
                & (zs[i] >= 0.0)
                & (zs[i] < hz);
            interior &= inb | !mask[i];
            any |= mask[i];
        }
        let mut out = [0.0f32; W];
        if !any {
            return out;
        }
        if !interior || !self.lanes_fit_32() {
            for i in 0..W {
                if mask[i] {
                    out[i] = self.sample_trilinear([xs[i], ys[i], zs[i]]);
                }
            }
            return out;
        }
        // Pass 1: per-lane base offsets and interpolation fractions,
        // unconditionally. A disabled lane's coordinates become 0.0
        // first, so the truncation below only ever sees interior values
        // and the lane reads from base 0.
        let (sy, sz) = (self.row_stride, self.slab_stride);
        let mut base = [0u64; W];
        let mut fx = [0.0f32; W];
        let mut fy = [0.0f32; W];
        let mut fz = [0.0f32; W];
        for i in 0..W {
            let x = if mask[i] { xs[i] } else { 0.0 };
            let y = if mask[i] { ys[i] } else { 0.0 };
            let z = if mask[i] { zs[i] } else { 0.0 };
            // SAFETY: `to_int_unchecked` needs a finite value whose
            // truncation fits `i32`. A disabled lane is 0.0 here; an
            // enabled lane passed the interior test, so
            // 0 <= x < dims[0]-1 < 2^24 (`lanes_fit_32`), and likewise
            // for y and z. NaN and ±inf fail that test.
            let (x0, y0, z0) = unsafe {
                (
                    x.to_int_unchecked::<i32>(),
                    y.to_int_unchecked::<i32>(),
                    z.to_int_unchecked::<i32>(),
                )
            };
            // The same fractions as the scalar path's `p - p as usize as
            // f32`: the truncations agree on non-negative values and
            // every integer below 2^24 is exact in `f32`.
            fx[i] = x - x0 as f32;
            fy[i] = y - y0 as f32;
            fz[i] = z - z0 as f32;
            base[i] = z0 as u32 as u64 * sz as u32 as u64
                + y0 as u32 as u64 * sy as u32 as u64
                + x0 as u32 as u64;
        }
        // Pass 2: gather the eight corners, transposed (corner-major) so
        // pass 3 is a straight W-wide lerp per corner pair.
        let mut c0 = [0.0f32; W];
        let mut c1 = [0.0f32; W];
        let mut c2 = [0.0f32; W];
        let mut c3 = [0.0f32; W];
        let mut c4 = [0.0f32; W];
        let mut c5 = [0.0f32; W];
        let mut c6 = [0.0f32; W];
        let mut c7 = [0.0f32; W];
        for i in 0..W {
            let base = base[i] as usize;
            debug_assert!(base + sz + sy + 1 < self.data.len());
            // SAFETY: every enabled lane passed the interior test above,
            // so the bounds argument of `sample_trilinear_interior`
            // applies verbatim: the largest offset, base + slab + row +
            // 1, addresses the (x0+1, y0+1, z0+1) corner, strictly
            // inside `data` (the u64 products cannot wrap: each is below
            // data.len()). Disabled lanes read from base 0; because at
            // least one enabled interior lane exists (checked above),
            // every axis has >= 2 voxels, so slab + row + 1 =
            // nx*ny + nx + 1 < 2*nx*ny <= data.len().
            let at = |off: usize| unsafe { *self.data.get_unchecked(base + off) };
            c0[i] = at(0);
            c1[i] = at(1);
            c2[i] = at(sy);
            c3[i] = at(sy + 1);
            c4[i] = at(sz);
            c5[i] = at(sz + 1);
            c6[i] = at(sz + sy);
            c7[i] = at(sz + sy + 1);
        }
        // Pass 3: the same lerp tree as the scalar interior path, in the
        // same order, W lanes wide and branch-free. Disabled lanes
        // computed voxel 0's value; a select restores their 0.0.
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        for i in 0..W {
            let c00 = lerp(c0[i], c1[i], fx[i]);
            let c10 = lerp(c2[i], c3[i], fx[i]);
            let c01 = lerp(c4[i], c5[i], fx[i]);
            let c11 = lerp(c6[i], c7[i], fx[i]);
            let v = lerp(lerp(c00, c10, fy[i]), lerp(c01, c11, fy[i]), fz[i]);
            out[i] = if mask[i] { v } else { 0.0 };
        }
        out
    }

    /// Minimum and maximum voxel values.
    pub fn min_max(&self) -> (f32, f32) {
        self.data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Trilinear upsampling by an integer factor per axis — the
    /// preprocessing step the paper used to build its 2240³ and 4480³
    /// time steps from the 1120³ original ("upsampling preserves the
    /// structure of the data").
    pub fn upsample(&self, factor: usize) -> Volume {
        assert!(factor >= 1);
        let nd = [
            self.dims[0] * factor,
            self.dims[1] * factor,
            self.dims[2] * factor,
        ];
        let mut out = Volume::zeros(nd);
        let scale = 1.0 / factor as f32;
        let nx = nd[0];
        let ny = nd[1];
        out.data
            .par_chunks_mut(nx * ny)
            .enumerate()
            .for_each(|(z, slab)| {
                let pz = z as f32 * scale;
                for y in 0..ny {
                    let py = y as f32 * scale;
                    for x in 0..nx {
                        slab[y * nx + x] = self.sample_trilinear([x as f32 * scale, py, pz]);
                    }
                }
            });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut v = Volume::zeros([4, 3, 2]);
        v.set(3, 2, 1, 7.5);
        assert_eq!(v.get(3, 2, 1), 7.5);
        assert_eq!(v.data()[v.index(3, 2, 1)], 7.5);
    }

    #[test]
    fn trilinear_at_grid_points_is_exact() {
        let mut v = Volume::zeros([3, 3, 3]);
        for z in 0..3 {
            for y in 0..3 {
                for x in 0..3 {
                    v.set(x, y, z, (x + 10 * y + 100 * z) as f32);
                }
            }
        }
        for z in 0..3 {
            for y in 0..3 {
                for x in 0..3 {
                    let s = v.sample_trilinear([x as f32, y as f32, z as f32]);
                    assert_eq!(s, (x + 10 * y + 100 * z) as f32);
                }
            }
        }
    }

    #[test]
    fn trilinear_is_linear_along_axes() {
        let mut v = Volume::zeros([2, 2, 2]);
        v.set(1, 0, 0, 2.0);
        v.set(1, 1, 0, 2.0);
        v.set(1, 0, 1, 2.0);
        v.set(1, 1, 1, 2.0);
        assert!((v.sample_trilinear([0.25, 0.5, 0.5]) - 0.5).abs() < 1e-6);
        assert!((v.sample_trilinear([0.75, 0.0, 0.9]) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn sampling_outside_clamps() {
        let mut v = Volume::zeros([2, 2, 2]);
        v.set(0, 0, 0, 5.0);
        assert_eq!(v.sample_trilinear([-3.0, -3.0, -3.0]), 5.0);
    }

    #[test]
    fn upsample_preserves_linear_ramp() {
        let mut v = Volume::zeros([4, 4, 4]);
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    v.set(x, y, z, x as f32);
                }
            }
        }
        let u = v.upsample(2);
        assert_eq!(u.dims(), [8, 8, 8]);
        // The x ramp is reproduced at half steps.
        assert!((u.get(2, 3, 3) - 1.0).abs() < 1e-6);
        assert!((u.get(3, 3, 3) - 1.5).abs() < 1e-6);
        let (lo, hi) = u.min_max();
        let (lo0, hi0) = v.min_max();
        assert_eq!((lo, hi), (lo0, hi0));
    }

    #[test]
    fn min_max() {
        let v = Volume::from_data([2, 1, 1], vec![-3.5, 9.0]);
        assert_eq!(v.min_max(), (-3.5, 9.0));
    }

    /// Every enabled lane equals the scalar fetch bitwise, every
    /// disabled lane is `+0.0`.
    fn assert_packet_matches_scalar<const W: usize>(
        v: &Volume,
        xs: &[f32; W],
        ys: &[f32; W],
        zs: &[f32; W],
        mask: &[bool; W],
    ) {
        let got = v.sample_trilinear_packet::<W>(xs, ys, zs, mask);
        for i in 0..W {
            let want = if mask[i] {
                v.sample_trilinear([xs[i], ys[i], zs[i]])
            } else {
                0.0
            };
            assert_eq!(
                got[i].to_bits(),
                want.to_bits(),
                "lane {i} pos ({}, {}, {}) mask {} dims {:?}",
                xs[i],
                ys[i],
                zs[i],
                mask[i],
                v.dims()
            );
        }
    }

    /// The largest float below `x`.
    fn ulp_below(x: f32) -> f32 {
        f32::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn packet_fetch_is_bit_identical_to_scalar() {
        use crate::field::SupernovaField;
        let f = SupernovaField::new(7).variable(2);
        let v = Volume::from_field(&f, [13, 10, 9]);
        // Probe packets spanning interior, boundary, and outside lanes,
        // with assorted masks (including all-off).
        for w8 in 0..40 {
            let mut xs = [0.0f32; 8];
            let mut ys = [0.0f32; 8];
            let mut zs = [0.0f32; 8];
            let mut mask = [false; 8];
            for i in 0..8 {
                let s = (w8 * 8 + i) as f32;
                xs[i] = (s * 0.37).rem_euclid(15.0) - 1.0;
                ys[i] = (s * 0.73).rem_euclid(12.0) - 1.0;
                zs[i] = (s * 1.19).rem_euclid(11.0) - 1.0;
                mask[i] = (w8 + i) % 5 != 0;
            }
            assert_packet_matches_scalar(&v, &xs, &ys, &zs, &mask);
        }
        // The truncation's edge cases, every lane interior so the packet
        // stays on the gather path: exact integers (fraction +0.0), one
        // ulp below `dims - 1` (the largest interior coordinate,
        // fraction just under 1) and -0.0 (interior, fraction -0.0).
        let (hx, hy, hz) = (ulp_below(12.0), ulp_below(9.0), ulp_below(8.0));
        let xs = [0.0, -0.0, 3.0, hx, 11.0, 0.5, hx, 6.0];
        let ys = [0.0, 2.0, -0.0, hy, 8.0, hy, 0.0, 4.0];
        let zs = [0.0, 1.0, 7.0, hz, -0.0, 3.0, hz, 5.0];
        assert_packet_matches_scalar(&v, &xs, &ys, &zs, &[true; 8]);
        // Disabled lanes carrying exactly what a truncating or unchecked
        // cast gets wrong — NaN, ±inf, ±1e30 — beside interior lanes
        // (the gather path) and beside a boundary lane at `dims - 1`
        // (the demoted per-lane path).
        let garbage = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0e30, -1.0e30];
        for (g, &junk) in garbage.iter().enumerate() {
            let mut xs = xs;
            let mut ys = ys;
            let mut zs = zs;
            let mut mask = [true; 8];
            for i in 4..8 {
                xs[i] = junk;
                ys[i] = garbage[(g + i) % garbage.len()];
                zs[i] = garbage[(g + 2 * i) % garbage.len()];
                mask[i] = false;
            }
            assert_packet_matches_scalar(&v, &xs, &ys, &zs, &mask);
            xs[3] = 12.0;
            assert_packet_matches_scalar(&v, &xs, &ys, &zs, &mask);
        }
        // Width 4, and a width-4 packet whose only enabled lane is
        // interior while the rest carry garbage.
        let xs4 = [1.2, 5.5, 2.0, f32::NAN];
        let ys4 = [2.3, 4.4, 2.0, f32::NAN];
        let zs4 = [3.4, 3.3, 2.0, -1.0e30];
        assert_packet_matches_scalar(&v, &xs4, &ys4, &zs4, &[true, true, true, false]);
        assert_packet_matches_scalar(&v, &xs4, &ys4, &zs4, &[false, true, false, false]);
    }

    proptest::proptest! {
        // Miri interprets every fetch; a handful of cases is what its
        // CI job can afford.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 256 }
        ))]

        #[test]
        fn packet_fetch_matches_scalar_on_random_volumes(
            nx in 1usize..=20, ny in 1usize..=20, nz in 1usize..=20,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::Rng::seeded(seed);
            let dims = [nx, ny, nz];
            let data = (0..nx * ny * nz)
                .map(|_| rng.below(1 << 16) as f32 / 256.0 - 128.0)
                .collect();
            let v = Volume::from_data(dims, data);
            for _ in 0..16 {
                // Half the packets keep every lane interior (the gather
                // path), half mix in boundary and outside lanes (the
                // demoted path).
                let interior = rng.below(2) == 0 && dims.iter().all(|&n| n >= 2);
                let mut p = [[0.0f32; 8]; 3];
                let mut mask = [false; 8];
                for i in 0..8 {
                    for (a, axis) in p.iter_mut().enumerate() {
                        let h = (dims[a] - 1) as f32;
                        let unit = rng.below(1 << 12) as f32 / 4096.0;
                        axis[i] = match (interior, rng.below(4)) {
                            (true, 0) => rng.below(dims[a] as u64 - 1) as f32,
                            (true, 1) => ulp_below(h),
                            (true, _) => unit * h,
                            (false, 0) => h,
                            (false, 1) => -0.5 * rng.below(3) as f32,
                            (false, _) => unit * (h + 2.0) - 0.5,
                        };
                    }
                    mask[i] = rng.below(4) != 0;
                    if !mask[i] && rng.below(2) == 0 {
                        p[0][i] = f32::NAN;
                        p[2][i] = f32::INFINITY;
                    }
                }
                assert_packet_matches_scalar(&v, &p[0], &p[1], &p[2], &mask);
            }
        }
    }

    #[test]
    fn interior_fast_path_is_bit_identical_to_clamped() {
        use crate::field::SupernovaField;
        let f = SupernovaField::new(99).variable(2);
        let v = Volume::from_field(&f, [11, 9, 13]);
        let dims = v.dims();
        // Dense probe lattice spanning interior, boundary, and outside.
        for iz in 0..20 {
            for iy in 0..20 {
                for ix in 0..20 {
                    let p = [
                        ix as f32 * 0.7 - 1.0,
                        iy as f32 * 0.55 - 1.0,
                        iz as f32 * 0.8 - 1.0,
                    ];
                    let fast = v.sample_trilinear(p);
                    let slow = v.sample_trilinear_clamped(p);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "p={p:?} dims={dims:?}: {fast} != {slow}"
                    );
                }
            }
        }
    }
}
