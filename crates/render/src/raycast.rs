//! The ray caster: front-to-back sampling of one block.
//!
//! Sample positions are global (see the crate docs): every rank computes
//! the same per-pixel ray and the same ladder of sample parameters
//! `t = t_global_enter + (k + 1/2) Δt`, and claims exactly the samples
//! whose position lies inside its *owned* half-open cell region. A
//! "block" covering the whole grid therefore IS the serial renderer —
//! [`render_serial`] is implemented that way — and compositing the
//! per-block results in depth order reproduces it.

use pvr_formats::Subvolume;
use pvr_volume::{MacrocellGrid, Volume};

use crate::camera::Camera;
use crate::image::{PixelRect, SubImage};
use crate::math::Vec3;
use crate::transfer::{OpacityLut, TransferFunction};

/// Where a block's data sits in the global grid.
#[derive(Debug, Clone, Copy)]
pub struct BlockDomain {
    /// Global grid dimensions (cells).
    pub grid: [usize; 3],
    /// The half-open cell region this block *owns* (samples in here are
    /// accumulated by this block and no other).
    pub owned: Subvolume,
    /// The region actually stored in the block's volume — `owned`
    /// extended by the ghost layer, clamped to the grid.
    pub stored: Subvolume,
}

impl BlockDomain {
    /// A domain covering the whole grid (the serial case).
    pub fn whole(grid: [usize; 3]) -> Self {
        BlockDomain {
            grid,
            owned: Subvolume::whole(grid),
            stored: Subvolume::whole(grid),
        }
    }

    /// Centroid of the owned region in cell space.
    pub fn centroid(&self) -> Vec3 {
        let e = self.owned.end();
        Vec3::new(
            (self.owned.offset[0] + e[0]) as f64 * 0.5,
            (self.owned.offset[1] + e[1]) as f64 * 0.5,
            (self.owned.offset[2] + e[2]) as f64 * 0.5,
        )
    }
}

/// Gradient (Phong-style) shading parameters. The gradient is estimated
/// by central differences one cell around each sample, so parallel
/// rendering with shading needs a **two**-cell ghost layer for exact
/// serial equivalence.
#[derive(Debug, Clone, Copy)]
pub struct Shading {
    /// Direction *toward* the light (normalized at use).
    pub light: [f32; 3],
    /// Ambient term in [0, 1].
    pub ambient: f32,
    /// Diffuse weight in [0, 1].
    pub diffuse: f32,
    /// Gradient magnitude below which a sample is treated as
    /// homogeneous and left unshaded (avoids noise amplification).
    pub gradient_floor: f32,
}

impl Default for Shading {
    fn default() -> Self {
        Shading {
            light: [0.4, 0.5, 0.77],
            ambient: 0.35,
            diffuse: 0.65,
            gradient_floor: 1e-3,
        }
    }
}

/// When a ray may stop *evaluating* samples before its exit point.
///
/// Early termination is the classic front-to-back optimization: once a
/// ray is nearly opaque, everything behind it is invisible. The catch in
/// a block-parallel renderer is exactness — a block cannot know what is
/// in front of it, so naive thresholding changes pixels. The two `On`
/// modes here are gated so the default is safe:
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Termination {
    /// Never terminate. Together with [`RenderOpts::exact`] this is the
    /// pre-packet behavior, kept for golden traces and model checking.
    Off,
    /// The bitwise gate (the default): a ray stops evaluating only once
    /// its accumulators provably cannot change again. Every future
    /// blend weight satisfies `w <= w_max = (1-α)·a_cap` (with `a_cap`
    /// the transfer function's step-corrected alpha cap), so if
    /// `α + w_max == α` and `c ± w_max·rgb_cap == c` under float
    /// rounding, every further sample is a bitwise no-op — rounding is
    /// monotone, so the checks squeeze all smaller contributions too,
    /// and since `α` never decreases the condition holds inductively for
    /// the rest of the ray. The ray still *marches* (ownership tests and
    /// macrocell accounting continue) so pixels **and** sample counts
    /// are bit-identical to [`Termination::Off`]; only the evaluation
    /// work disappears. Saturation typically fires a few samples into
    /// opaque material and shaves the long tail behind it.
    Bitwise,
    /// The bounded-error gate: stop the ray outright once accumulated
    /// alpha reaches `alpha`, and record a conservative bound on the
    /// per-pixel error in [`RenderStats::error_bound`] — the same
    /// explicit error accounting the fault-tolerance degradation ladder
    /// uses for coarsened blocks. Cheapest, but visibly approximate:
    /// use when an `error_bound` in the frame report is acceptable.
    Bounded { alpha: f32 },
}

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct RenderOpts {
    /// Ray step in cells.
    pub step: f64,
    /// Early-termination mode; the default [`Termination::Bitwise`] is
    /// invisible in pixels and sample counts (see [`Termination`]).
    pub termination: Termination,
    /// Optional gradient shading (requires ghost >= 2 for exact
    /// parallel/serial equivalence).
    pub shading: Option<Shading>,
    /// Macrocell empty-space skipping: consult a per-block min/max
    /// [`MacrocellGrid`] against the transfer function's opacity LUT and
    /// skip the fetch/classify/shade of samples that provably classify
    /// to alpha exactly `0.0`. A skipped sample contributes
    /// `w = (1 - alpha) * 0.0 = 0.0` in the naive kernel, and
    /// `x + 0.0 == x` bitwise for the non-negative accumulators, so the
    /// output is **bit-identical** to the naive kernel — only
    /// [`RenderStats::skipped_samples`] tells them apart.
    pub fast_path: bool,
    /// Rays marched in lockstep per packet: `8` (the default) and `4`
    /// run the hand-unrolled packet kernel with gathered trilinear
    /// fetches; `1` (or any width below 4) runs the scalar kernel.
    /// Other values round down to the nearest supported width. Packet
    /// results are bit-identical to scalar for every width — lanes
    /// carry independent accumulators and per-lane masks, so lockstep
    /// marching only reorders work between rays, never within one.
    pub packet_width: usize,
}

impl Default for RenderOpts {
    fn default() -> Self {
        RenderOpts {
            step: 1.0,
            termination: Termination::Bitwise,
            shading: None,
            fast_path: true,
            packet_width: 8,
        }
    }
}

impl RenderOpts {
    /// Today's defaults are already bit-identical to the historical
    /// scalar/no-termination kernel; this preset additionally pins the
    /// scalar kernel and [`Termination::Off`] for paths that want the
    /// *machinery* of PR 5 unchanged (golden traces, model checking,
    /// microbenchmark baselines).
    pub fn exact() -> Self {
        RenderOpts {
            termination: Termination::Off,
            packet_width: 1,
            ..Default::default()
        }
    }

    /// Bounded-error preset: classic early-ray termination at `alpha`,
    /// with the introduced error reported in
    /// [`RenderStats::error_bound`].
    pub fn bounded(alpha: f32) -> Self {
        RenderOpts {
            termination: Termination::Bounded { alpha },
            ..Default::default()
        }
    }
}

/// Screen-space footprint of a cell-space box: the conservative pixel
/// bounding rectangle of its corner projections.
pub fn footprint(
    camera: &Camera,
    lo: [usize; 3],
    hi: [usize; 3],
    image: (usize, usize),
) -> PixelRect {
    let (w, h) = image;
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for i in 0..8 {
        let p = Vec3::new(
            (if i & 1 == 0 { lo[0] } else { hi[0] }) as f64,
            (if i & 2 == 0 { lo[1] } else { hi[1] }) as f64,
            (if i & 4 == 0 { lo[2] } else { hi[2] }) as f64,
        );
        let (px, py) = camera.project(p);
        min_x = min_x.min(px);
        min_y = min_y.min(py);
        max_x = max_x.max(px);
        max_y = max_y.max(py);
    }
    let x0 = (min_x - 1.0).floor().max(0.0) as usize;
    let y0 = (min_y - 1.0).floor().max(0.0) as usize;
    let x1 = ((max_x + 1.0).ceil() as usize).min(w);
    let y1 = ((max_y + 1.0).ceil() as usize).min(h);
    if x0 >= x1 || y0 >= y1 {
        PixelRect::new(0, 0, 0, 0)
    } else {
        PixelRect::new(x0, y0, x1 - x0, y1 - y0)
    }
}

/// Statistics of one block render.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RenderStats {
    /// Scalar samples owned by this block (the unit of rendering work
    /// the performance model scales by). Counts *every* owned ladder
    /// sample whether evaluated or skipped, so the parallel total equals
    /// the serial total regardless of which path ran.
    pub samples: u64,
    /// Of [`RenderStats::samples`], how many the macrocell fast path
    /// proved transparent and skipped (0 on the naive path).
    pub skipped_samples: u64,
    /// Rays that intersected the block.
    pub rays: u64,
    /// Ray packets launched (packets with at least one intersecting
    /// lane; 0 on the scalar path).
    pub packets: u64,
    /// Lanes that evaluated a sample across all lockstep evaluation
    /// rounds — the numerator of lane utilization.
    pub packet_eval_lanes: u64,
    /// Lane slots (rounds × width) across all lockstep evaluation
    /// rounds with at least one evaluating lane — the denominator of
    /// lane utilization. Rounds where every lane is masked off (leaping
    /// empty space, saturated, or exited) are skipped outright and do
    /// not count against utilization.
    pub packet_eval_slots: u64,
    /// Rays whose accumulation terminated early: provably saturated
    /// ([`Termination::Bitwise`]) or cut at the alpha threshold
    /// ([`Termination::Bounded`]).
    pub terminated_rays: u64,
    /// Conservative upper bound on the per-pixel, per-channel absolute
    /// error introduced by [`Termination::Bounded`] in this block
    /// (exactly `0.0` under `Off` and `Bitwise`, which are lossless).
    pub error_bound: f32,
}

impl RenderStats {
    /// Fraction of lockstep lane slots that evaluated a sample
    /// (`None` when the packet kernel never evaluated anything).
    pub fn lane_utilization(&self) -> Option<f64> {
        (self.packet_eval_slots > 0)
            .then(|| self.packet_eval_lanes as f64 / self.packet_eval_slots as f64)
    }

    /// Fold another block's statistics into this one (error bounds take
    /// the max: blocks composite over disjoint sample sets, so the
    /// per-pixel bound of the union is bounded by per-block sums, and
    /// callers tracking frame-level bounds sum instead).
    pub fn merge(&mut self, o: &RenderStats) {
        self.samples += o.samples;
        self.skipped_samples += o.skipped_samples;
        self.rays += o.rays;
        self.packets += o.packets;
        self.packet_eval_lanes += o.packet_eval_lanes;
        self.packet_eval_slots += o.packet_eval_slots;
        self.terminated_rays += o.terminated_rays;
        self.error_bound = self.error_bound.max(o.error_bound);
    }
}

/// Render one block into its footprint subimage.
///
/// `volume` holds the block's stored region (`dom.stored`), usually the
/// owned region plus a one-cell ghost layer so interpolation near owned
/// faces sees neighbour data.
///
/// With [`RenderOpts::fast_path`] set (the default) this builds the
/// block's [`MacrocellGrid`] and forwards to
/// [`render_block_with_grid`]; callers rendering the same block across
/// frames or views should build the grid once themselves and call that
/// directly.
pub fn render_block(
    volume: &Volume,
    dom: &BlockDomain,
    camera: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (SubImage, RenderStats) {
    let macrocells = opts.fast_path.then(|| MacrocellGrid::build(volume));
    render_block_with_grid(volume, macrocells.as_ref(), dom, camera, tf, opts)
}

/// Voxel index the clamped sample position floors to — the key into the
/// macrocell whose min/max covers the sample's trilinear support.
#[inline]
fn support_voxel(c: f32, n: usize) -> usize {
    if c <= 0.0 {
        0
    } else {
        (c as usize).min(n - 1)
    }
}

/// Conservative number of ladder steps beyond the current (exactly
/// verified) sample whose positions provably stay (a) before the global
/// exit `tg1`, (b) strictly inside the owned region, and (c) inside
/// macrocells sharing the entry cell's verdict (`empty[cell] ==
/// target`) — a 3D-DDA walk over the macrocell lattice that crosses
/// whole runs of same-verdict cells in one bound. The returned count
/// carries a one-full-step safety margin, so f64 rounding in this
/// analytic bound (including the reciprocal-multiplies standing in for
/// divisions) can never disagree with the exact per-sample tests it
/// stands in for: the first sample *beyond* the bound is always
/// re-examined exactly.
///
/// Boundary cells extend to infinity on their clamped side, mirroring
/// [`support_voxel`], so the walk never leaves the lattice.
/// `inv_step[a]` is the per-ray precomputed `1 / |dir[a] * dt|` (`inf`
/// on zero axes — such axes contribute no crossing and no exit bound).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn leap_run_steps(
    p: Vec3,
    t: f64,
    local: [f64; 3],
    cell: [usize; 3],
    g: &MacrocellGrid,
    empty: &[bool],
    target: bool,
    dir: Vec3,
    inv_step: [f64; 3],
    inv_dt: f64,
    own_lo: Vec3,
    own_hi: Vec3,
    tg1: f64,
) -> i64 {
    const M: f64 = pvr_volume::MACROCELL_SIZE as f64;
    let cells = g.cells();
    // Ladder steps until the ray exits the owned region or passes tg1,
    // and until the next lattice-plane crossing on each axis. All in
    // step units measured from the current sample.
    let mut limit = (tg1 - t) * inv_dt;
    let mut next = [f64::INFINITY; 3];
    let mut delta = [0.0f64; 3];
    let mut dcell = [0isize; 3];
    for a in 0..3 {
        let s = dir.get(a);
        if s == 0.0 {
            continue;
        }
        let (own_dist, cell_dist) = if s > 0.0 {
            let hi = if cell[a] + 1 == cells[a] {
                f64::INFINITY
            } else {
                ((cell[a] + 1) * pvr_volume::MACROCELL_SIZE) as f64
            };
            (own_hi.get(a) - p.get(a), hi - local[a])
        } else {
            let lo = if cell[a] == 0 {
                f64::NEG_INFINITY
            } else {
                (cell[a] * pvr_volume::MACROCELL_SIZE) as f64
            };
            (p.get(a) - own_lo.get(a), local[a] - lo)
        };
        limit = limit.min(own_dist * inv_step[a]);
        next[a] = cell_dist * inv_step[a];
        delta[a] = M * inv_step[a];
        dcell[a] = if s > 0.0 { 1 } else { -1 };
    }
    let mut cell = cell;
    let steps = loop {
        // Nearest lattice crossing; `limit` is finite, so the walk
        // always terminates even with every `next` infinite.
        let a = if next[0] <= next[1] && next[0] <= next[2] {
            0
        } else if next[1] <= next[2] {
            1
        } else {
            2
        };
        if next[a] >= limit {
            break limit;
        }
        // A finite crossing only exists on unclamped faces, so the
        // neighbor index stays on the lattice.
        cell[a] = cell[a].wrapping_add_signed(dcell[a]);
        if empty[g.index_of_cell(cell)] != target {
            break next[a];
        }
        // An edge cell extends to infinity on its clamped side — no
        // further crossing on this axis.
        let clamped = if dcell[a] > 0 {
            cell[a] + 1 == cells[a]
        } else {
            cell[a] == 0
        };
        next[a] = if clamped {
            f64::INFINITY
        } else {
            next[a] + delta[a]
        };
    };
    (steps.floor() as i64).saturating_sub(1).max(0)
}

/// Edge length, in voxels, of the refined lattice the packet kernel
/// leaps over — the [`MacrocellGrid`] refined summary's cell size, so
/// dilating by a couple of voxels of lane spread erodes far less
/// skippable space than dilating whole macrocells would, and each cell
/// gets its own min/max transparency verdict instead of inheriting its
/// parent macrocell's.
const PACKET_CELL: usize = pvr_volume::REFINED_SIZE;

/// Per-render, per-packet-geometry skip field: the [`MacrocellGrid`]
/// refined (2³-voxel) lattice over the same local (voxel-center)
/// coordinates, in which a cell is marked empty only when **every**
/// refined cell reachable from anywhere in the cell dilated by `spread`
/// voxels has a min/max range the transfer function maps to zero
/// opacity. One Amanatides–Woo walk of the *packet centroid* over this
/// field then proves whole runs of samples empty for **all** lanes at
/// once — the emptiness verdict is computed once per packet instead of
/// once per ray, and lanes never need their own run bookkeeping.
/// Because the verdicts come from the refined summary, the field can
/// prove samples empty that the scalar kernel's 8³ macrocells cannot;
/// the packet path may therefore *skip more* than the scalar path while
/// still evaluating the identical sample set bitwise (skipping is only
/// ever applied to provably-zero-contribution samples).
struct PacketField {
    rc: [usize; 3],
    /// Row-major (x fastest): true = provably empty for any position
    /// within `spread` voxels of this refined cell.
    empty: Vec<bool>,
    /// Baked per-axis dilation radius in voxels; packets whose lanes
    /// stray further than this from their centroid (on any axis, after
    /// removing each lane's along-direction shift) must not use the
    /// field. Per-axis radii matter: the residual lane spread is
    /// lateral to the view direction, and dilating the marching axis by
    /// the lateral spread would erode skippable space for nothing.
    spread: [f64; 3],
}

impl PacketField {
    /// Refined cells covering voxel indices `0..n` along one axis.
    fn cells_along(n: usize) -> usize {
        (n.max(1) - 1) / PACKET_CELL + 1
    }

    /// Per-refined-cell emptiness verdicts, computed once per render and
    /// shared by every bake: a 2³ cell is empty when its min/max range
    /// classifies to zero opacity (the parent macrocell's verdict
    /// short-circuits the LUT query — a subrange of a transparent range
    /// is transparent).
    fn refined_verdicts(g: &MacrocellGrid, empty: &[bool], lut: &OpacityLut) -> Vec<bool> {
        let cells = g.cells();
        let sc = g.refined_cells();
        let fold = pvr_volume::MACROCELL_SIZE / pvr_volume::REFINED_SIZE;
        let rranges = g.refined_ranges();
        let mut rempty = vec![false; sc[0] * sc[1] * sc[2]];
        for sz in 0..sc[2] {
            let cz = (sz / fold).min(cells[2] - 1);
            for sy in 0..sc[1] {
                let cy = (sy / fold).min(cells[1] - 1);
                let mrow = (cz * cells[1] + cy) * cells[0];
                let srow = (sz * sc[1] + sy) * sc[0];
                for sx in 0..sc[0] {
                    let cx = (sx / fold).min(cells[0] - 1);
                    rempty[srow + sx] = empty[mrow + cx] || {
                        let (lo, hi) = rranges[srow + sx];
                        lut.range_is_transparent(lo, hi)
                    };
                }
            }
        }
        rempty
    }

    /// Inclusive range of refined cells (of `c` along an axis of `n`
    /// voxels) covered by field cell `r` dilated by `spread` voxels.
    fn covered(r: usize, n: usize, c: usize, spread: f64) -> (usize, usize) {
        // A little slack on both ends so the f32 cast can never
        // shrink the covered range.
        let lo = r as f64 * PACKET_CELL as f64 - spread - 1e-3;
        let hi = r as f64 * PACKET_CELL as f64 + PACKET_CELL as f64 + spread + 1e-3;
        let v_lo = support_voxel(lo as f32, n);
        let v_hi = support_voxel(hi as f32, n);
        (
            (v_lo / pvr_volume::REFINED_SIZE).min(c - 1),
            (v_hi / pvr_volume::REFINED_SIZE).min(c - 1),
        )
    }

    /// Bake one field from the render's [`PacketField::refined_verdicts`]
    /// by separable erosion: per axis, a field cell covers the refined
    /// cells whose (clamped) support voxels any position in
    /// `[r·2 − spread, r·2 + 2 + spread)` can resolve to; three sweeps
    /// AND the emptiness over those ranges one axis at a time. Boundary
    /// cells extend to infinity on their clamped side — clamping
    /// resolves such positions to boundary voxels, which the finite
    /// range already covers.
    fn build(rempty: &[bool], vdims: [usize; 3], spread: [f64; 3]) -> Self {
        // The field's leap cells are the grid's refined cells.
        let rc = vdims.map(Self::cells_along);
        let plane = rc[0] * rc[1];
        assert_eq!(
            rempty.len(),
            plane * rc[2],
            "lane verdicts require the leap lattice to be the refined lattice"
        );
        // Refined-cell span each field cell covers, per axis.
        let spans = |a: usize| -> Vec<(usize, usize)> {
            (0..rc[a])
                .map(|r| Self::covered(r, vdims[a], rc[a], spread[a]))
                .collect()
        };
        let (spans_x, spans_y, spans_z) = (spans(0), spans(1), spans(2));
        // Sweep x: per-row prefix counts of empty cells make each "all
        // empty in [a, b]?" query O(1).
        let mut t1 = vec![false; rempty.len()];
        let mut pref = vec![0u32; rc[0] + 1];
        for (src, dst) in rempty.chunks_exact(rc[0]).zip(t1.chunks_exact_mut(rc[0])) {
            for (sx, &e) in src.iter().enumerate() {
                pref[sx + 1] = pref[sx] + e as u32;
            }
            for (d, &(a, b)) in dst.iter_mut().zip(&spans_x) {
                *d = (pref[b + 1] - pref[a]) as usize == b + 1 - a;
            }
        }
        // Sweeps y and z: AND whole contiguous runs — x-rows for y,
        // xy-planes for z — so the compiler can vectorize the byte-wise
        // conjunction. `src` is read as consecutive `dst.len()`-long
        // runs, of which runs `a..=b` are conjoined into `dst`.
        let and_runs = |dst: &mut [bool], src: &[bool], (a, b): (usize, usize)| {
            let n = dst.len();
            dst.copy_from_slice(&src[a * n..][..n]);
            for run in a + 1..=b {
                for (d, &s) in dst.iter_mut().zip(&src[run * n..][..n]) {
                    *d &= s;
                }
            }
        };
        let mut t2 = vec![false; rempty.len()];
        for (row, dst) in t2.chunks_exact_mut(rc[0]).enumerate() {
            let (rz, ry) = (row / rc[1], row % rc[1]);
            let (a, b) = spans_y[ry];
            and_runs(dst, &t1, (rz * rc[1] + a, rz * rc[1] + b));
        }
        let mut out = vec![false; rempty.len()];
        for (rz, dst) in out.chunks_exact_mut(plane).enumerate() {
            and_runs(dst, &t2, spans_z[rz]);
        }
        PacketField {
            rc,
            empty: out,
            spread,
        }
    }

    #[inline]
    fn cell_of_local(&self, l: [f64; 3]) -> [usize; 3] {
        let f = |c: f64, rc: usize| -> usize {
            if c <= 0.0 {
                0
            } else {
                ((c as usize) / PACKET_CELL).min(rc - 1)
            }
        };
        [
            f(l[0], self.rc[0]),
            f(l[1], self.rc[1]),
            f(l[2], self.rc[2]),
        ]
    }

    #[inline]
    fn index(&self, c: [usize; 3]) -> usize {
        (c[2] * self.rc[1] + c[1]) * self.rc[0] + c[0]
    }

    /// The packet-shared run: verdict of the refined cell under the
    /// centroid, plus a conservative count of further ladder steps the
    /// verdict provably holds for — the same 3D-DDA walk and
    /// one-full-step safety margin as [`leap_run_steps`], on the
    /// refined lattice. Returns `(empty, steps)`.
    #[inline]
    fn leap(&self, local: [f64; 3], dir: Vec3, inv_step: [f64; 3], limit: f64) -> (bool, i64) {
        const M: f64 = PACKET_CELL as f64;
        let mut cell = self.cell_of_local(local);
        let target = self.empty[self.index(cell)];
        let mut next = [f64::INFINITY; 3];
        let mut delta = [0.0f64; 3];
        let mut dcell = [0isize; 3];
        for a in 0..3 {
            let s = dir.get(a);
            if s == 0.0 {
                continue;
            }
            let cell_dist = if s > 0.0 {
                if cell[a] + 1 == self.rc[a] {
                    f64::INFINITY
                } else {
                    ((cell[a] + 1) * PACKET_CELL) as f64 - local[a]
                }
            } else if cell[a] == 0 {
                f64::INFINITY
            } else {
                local[a] - (cell[a] * PACKET_CELL) as f64
            };
            next[a] = cell_dist * inv_step[a];
            delta[a] = M * inv_step[a];
            dcell[a] = if s > 0.0 { 1 } else { -1 };
        }
        let steps = loop {
            let a = if next[0] <= next[1] && next[0] <= next[2] {
                0
            } else if next[1] <= next[2] {
                1
            } else {
                2
            };
            if next[a] >= limit {
                break limit;
            }
            cell[a] = cell[a].wrapping_add_signed(dcell[a]);
            if self.empty[self.index(cell)] != target {
                break next[a];
            }
            let clamped = if dcell[a] > 0 {
                cell[a] + 1 == self.rc[a]
            } else {
                cell[a] == 0
            };
            next[a] = if clamped {
                f64::INFINITY
            } else {
                next[a] + delta[a]
            };
        };
        (target, (steps.floor() as i64).saturating_sub(1).max(0))
    }
}

/// Accumulated-opacity level below which the bitwise saturation test is
/// not even attempted — a cheap, deterministic pretest identical on the
/// scalar and packet paths.
const SATURATION_PRETEST: f32 = 0.999;

/// Loop-invariant caps the termination gates compare against.
///
/// `a_cap` bounds every step-corrected sample alpha: `lookup` never
/// exceeds the table maximum, and `classify`'s clamp and `1-(1-α)^dt`
/// correction are monotone operations, each a single rounding, so the
/// cap computed the same way from the table maximum dominates every
/// per-sample value *as floats*, not just as reals. `rgb_cap` bounds
/// every (shaded) color-channel magnitude the same way; the `1.01`
/// factor in the luminance cap absorbs the few ULP by which a rounded
/// `n·l / (|n||l|)` can exceed one.
struct TermCaps {
    a_cap: f32,
    rgb_cap: f32,
}

impl TermCaps {
    fn new(tf: &TransferFunction, dt: f32, shading: Option<&Shading>) -> Self {
        let a_max = tf.max_table_alpha().clamp(0.0, 0.999_999);
        let a_cap = 1.0 - (1.0 - a_max).powf(dt);
        let lum_cap = shading.map_or(1.0f32, |sh| {
            1.0f32.max(sh.ambient.abs() + sh.diffuse.abs() * 1.01)
        });
        TermCaps {
            a_cap,
            rgb_cap: tf.max_table_rgb() * lum_cap,
        }
    }
}

/// The [`Termination::Bitwise`] gate: true when no future sample can
/// change this ray's accumulators. Every future blend weight satisfies
/// `w <= w_max` bitwise (monotone rounding from `w = (1-α')·a` with
/// `α' >= α` and `a <= a_cap`), and rounding's monotonicity squeezes
/// `fl(x + w)` between `fl(x + 0) = x` and `fl(x + w_max)`; the color
/// checks run both directions because shaded contributions, while
/// non-negative for every shipped transfer function, are only bounded in
/// magnitude here. Once true it stays true: a no-op sample leaves `α`
/// (hence `w_max`) unchanged.
#[inline]
fn provably_saturated(alpha: f32, color: &[f32; 3], caps: &TermCaps) -> bool {
    if alpha < SATURATION_PRETEST {
        return false;
    }
    let w = (1.0 - alpha) * caps.a_cap;
    if alpha + w != alpha {
        return false;
    }
    let q = w * caps.rgb_cap;
    color[0] + q == color[0]
        && color[0] - q == color[0]
        && color[1] + q == color[1]
        && color[1] - q == color[1]
        && color[2] + q == color[2]
        && color[2] - q == color[2]
}

/// Conservative per-pixel, per-channel error bound for cutting a ray at
/// accumulated opacity `alpha`: the remaining weights telescope to at
/// most `1 - alpha`, each multiplied by a channel value bounded by
/// `max(1, rgb_cap)` (the `1` covers the alpha channel itself). The
/// relative slack and epsilon absorb the rounding noise of the
/// accumulation the bound is compared against.
#[inline]
fn bounded_error(alpha: f32, caps: &TermCaps) -> f32 {
    ((1.0 - alpha).max(0.0) * caps.rgb_cap.max(1.0)) * (1.0 + 1e-3) + 1e-6
}

#[inline]
fn record_bounded_termination(alpha: f32, caps: &TermCaps, stats: &mut RenderStats) {
    stats.error_bound = stats.error_bound.max(bounded_error(alpha, caps));
    stats.terminated_rays += 1;
}

/// Loop-invariant state shared by the scalar and packet kernels; both
/// perform the identical per-sample computation over it, which is what
/// makes packet width a pure performance knob.
struct KernelCtx<'a> {
    volume: &'a Volume,
    tf: &'a TransferFunction,
    skip: Option<(&'a MacrocellGrid, Vec<bool>, OpacityLut)>,
    shading: Option<(Shading, f32)>,
    term: Termination,
    caps: TermCaps,
    dt: f64,
    inv_dt: f64,
    /// `dt == 1.0` exactly: dispatch classification to the powf-free
    /// [`TransferFunction::classify_unit_step`].
    dt_one: bool,
    grid_hi: Vec3,
    own_lo: Vec3,
    own_hi: Vec3,
    st_off: [usize; 3],
    vdims: [usize; 3],
}

/// [`render_block`] with a caller-supplied macrocell summary, so a
/// caller rendering the same data more than once (several views, or
/// the kernels of a benchmark) pays the O(voxels) build once. Neither
/// frame executor is such a caller: each frame is a new time step, and
/// both go through [`render_block`], which builds per block per frame.
/// `macrocells` must summarize `volume`; pass `None` (or set
/// `opts.fast_path = false`) for the naive kernel.
pub fn render_block_with_grid(
    volume: &Volume,
    macrocells: Option<&MacrocellGrid>,
    dom: &BlockDomain,
    camera: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (SubImage, RenderStats) {
    assert_eq!(
        volume.dims(),
        dom.stored.shape,
        "volume dims must match the stored region"
    );
    let (iw, ih) = camera.image_size();
    let rect = footprint(camera, dom.owned.offset, dom.owned.end(), (iw, ih));
    let mut sub = SubImage::transparent(rect, camera.depth(dom.centroid()));
    let mut stats = RenderStats::default();
    if rect.is_empty() {
        return (sub, stats);
    }

    // Per-render macrocell verdicts: one LUT range query per cell up
    // front buys a single bool load per sample in the loop. A block
    // with nothing to skip (every cell can classify to nonzero alpha)
    // degrades to the naive kernel with zero per-sample overhead.
    let skip = macrocells
        .filter(|_| opts.fast_path)
        .map(|g| {
            let lut = tf.opacity_lut();
            let empty: Vec<bool> = g
                .ranges()
                .iter()
                .map(|&(lo, hi)| lut.range_is_transparent(lo, hi))
                .collect();
            (g, empty, lut)
        })
        .filter(|(_, empty, _)| empty.iter().any(|&e| e));

    // Light-vector normalization is loop-invariant; hoist it out of the
    // per-sample shading branch.
    let shading = opts.shading.map(|sh| {
        let ll =
            (sh.light[0] * sh.light[0] + sh.light[1] * sh.light[1] + sh.light[2] * sh.light[2])
                .sqrt()
                .max(1e-6);
        (sh, ll)
    });

    let dt = opts.step;
    let oe = dom.owned.end();
    let ctx = KernelCtx {
        volume,
        tf,
        skip,
        shading,
        term: opts.termination,
        caps: TermCaps::new(tf, dt as f32, opts.shading.as_ref()),
        dt,
        inv_dt: dt.recip(),
        dt_one: dt == 1.0,
        grid_hi: Vec3::new(dom.grid[0] as f64, dom.grid[1] as f64, dom.grid[2] as f64),
        own_lo: Vec3::new(
            dom.owned.offset[0] as f64,
            dom.owned.offset[1] as f64,
            dom.owned.offset[2] as f64,
        ),
        own_hi: Vec3::new(oe[0] as f64, oe[1] as f64, oe[2] as f64),
        st_off: dom.stored.offset,
        vdims: volume.dims(),
    };

    // Width rounds down to the nearest supported kernel; every width
    // produces bit-identical pixels and (samples, rays) stats. Skip
    // counts are conservative on the packet path (shared, spread-
    // dilated runs) — never larger than the scalar kernel's.
    if opts.packet_width >= 8 {
        march_packets::<8>(&ctx, camera, rect, &mut sub, &mut stats);
    } else if opts.packet_width >= 4 {
        march_packets::<4>(&ctx, camera, rect, &mut sub, &mut stats);
    } else {
        march_scalar(&ctx, camera, rect, &mut sub, &mut stats);
    }
    (sub, stats)
}

/// The scalar kernel: one ray at a time, exactly the PR 5 loop plus the
/// termination gates.
fn march_scalar(
    ctx: &KernelCtx,
    camera: &Camera,
    rect: PixelRect,
    sub: &mut SubImage,
    stats: &mut RenderStats,
) {
    for py in rect.y0..rect.y1() {
        for px in rect.x0..rect.x1() {
            march_one_ray(ctx, camera, px, py, rect, sub, stats);
        }
    }
}

/// One scalar ray: the shared per-pixel body of [`march_scalar`], also
/// the exact fallback for packets too divergent for the shared-run
/// machinery (pixels are bit-identical either way).
fn march_one_ray(
    ctx: &KernelCtx,
    camera: &Camera,
    px: usize,
    py: usize,
    rect: PixelRect,
    sub: &mut SubImage,
    stats: &mut RenderStats,
) {
    let [vnx, vny, vnz] = ctx.vdims;
    {
        {
            let ray = camera.ray(px, py);
            // Global entry defines the sample ladder shared by all blocks.
            let Some((tg0, tg1)) = ray.intersect_box(Vec3::ZERO, ctx.grid_hi, 0.0) else {
                return;
            };
            let Some((tb0, tb1)) = ray.intersect_box(ctx.own_lo, ctx.own_hi, tg0) else {
                return;
            };
            stats.rays += 1;

            // Per-ray reciprocals for the leap bounds: the hot loop
            // multiplies instead of divides.
            let inv_step = [
                (ray.dir.x * ctx.dt).abs().recip(),
                (ray.dir.y * ctx.dt).abs().recip(),
                (ray.dir.z * ctx.dt).abs().recip(),
            ];

            // Candidate sample indices overlapping the block interval,
            // padded by one to absorb floating-point edge effects; each
            // candidate is then tested against the owned region, which
            // is the authoritative (and globally consistent) criterion.
            let k_lo = (((tb0 - tg0) / ctx.dt - 0.5).floor() as i64 - 1).max(0);
            let k_hi = ((tb1.min(tg1) - tg0) / ctx.dt - 0.5).ceil() as i64 + 1;

            let mut color = [0.0f32; 3];
            let mut alpha = 0.0f32;
            let mut sat = false;
            // Samples with `k < skip_until` were already accounted by an
            // empty-space leap below; samples with `k < lit_until` are
            // known to share a non-empty macrocell with an earlier
            // sample, so the verdict lookup is elided.
            let mut skip_until = k_lo;
            let mut lit_until = k_lo;
            for k in k_lo..=k_hi {
                if k < skip_until {
                    continue;
                }
                let t = tg0 + (k as f64 + 0.5) * ctx.dt;
                if t >= tg1 {
                    break;
                }
                let p = ray.at(t);
                // Half-open ownership test: exactly one block claims
                // each sample.
                if p.x < ctx.own_lo.x
                    || p.x >= ctx.own_hi.x
                    || p.y < ctx.own_lo.y
                    || p.y >= ctx.own_hi.y
                    || p.z < ctx.own_lo.z
                    || p.z >= ctx.own_hi.z
                {
                    continue;
                }
                // Cell-space position -> voxel-center lattice of the
                // stored volume.
                let lf = [
                    p.x - ctx.st_off[0] as f64 - 0.5,
                    p.y - ctx.st_off[1] as f64 - 0.5,
                    p.z - ctx.st_off[2] as f64 - 0.5,
                ];
                let local = [lf[0] as f32, lf[1] as f32, lf[2] as f32];
                stats.samples += 1;
                if k >= lit_until {
                    if let Some((g, empty, _)) = &ctx.skip {
                        let cell = g.cell_of_voxel(
                            support_voxel(local[0], vnx),
                            support_voxel(local[1], vny),
                            support_voxel(local[2], vnz),
                        );
                        if !empty[g.index_of_cell(cell)] {
                            // Lit cell: the lookup's outcome is the same
                            // until the ray provably leaves the run of
                            // lit cells, so elide it until then.
                            // (Evaluating a sample is always exact —
                            // eliding a lookup can only cost a missed
                            // skip, never correctness.)
                            lit_until = (k + 1).saturating_add(leap_run_steps(
                                p, t, lf, cell, g, empty, false, ray.dir, inv_step, ctx.inv_dt,
                                ctx.own_lo, ctx.own_hi, tg1,
                            ));
                        } else {
                            // Provably alpha == 0.0: the naive kernel would
                            // accumulate w = (1 - alpha) * 0.0 = 0.0 into
                            // every channel, a bitwise no-op. Re-check the
                            // bounded-termination condition exactly as it
                            // would.
                            stats.skipped_samples += 1;
                            if let Termination::Bounded { alpha: th } = ctx.term {
                                if alpha >= th {
                                    record_bounded_termination(alpha, &ctx.caps, stats);
                                    break;
                                }
                            }
                            // Empty-space leap: account the whole run of
                            // provably-empty samples without touching
                            // them. Run interiors are covered by the
                            // conservative bound; the first sample beyond
                            // it re-enters the exact per-sample
                            // computation (and may start another leap),
                            // so ownership and sample counts stay exact.
                            // (Alpha is unchanged across the run, so the
                            // termination re-check above covers it.)
                            let m = leap_run_steps(
                                p, t, lf, cell, g, empty, true, ray.dir, inv_step, ctx.inv_dt,
                                ctx.own_lo, ctx.own_hi, tg1,
                            )
                            .min(k_hi - k);
                            if m > 0 {
                                stats.samples += m as u64;
                                stats.skipped_samples += m as u64;
                                skip_until = k + m + 1;
                            }
                            continue;
                        }
                    }
                }
                // A provably-saturated ray keeps marching (ownership and
                // macrocell accounting above stay exact) but skips the
                // evaluation it cannot be changed by.
                if sat {
                    continue;
                }
                let v = ctx.volume.sample_trilinear(local);
                let (mut rgb, a) = if ctx.dt_one {
                    ctx.tf.classify_unit_step(v)
                } else {
                    ctx.tf.classify(v, ctx.dt as f32)
                };
                if let Some((sh, ll)) = &ctx.shading {
                    // Central-difference gradient in cell units.
                    let g = [
                        ctx.volume
                            .sample_trilinear([local[0] + 1.0, local[1], local[2]])
                            - ctx
                                .volume
                                .sample_trilinear([local[0] - 1.0, local[1], local[2]]),
                        ctx.volume
                            .sample_trilinear([local[0], local[1] + 1.0, local[2]])
                            - ctx
                                .volume
                                .sample_trilinear([local[0], local[1] - 1.0, local[2]]),
                        ctx.volume
                            .sample_trilinear([local[0], local[1], local[2] + 1.0])
                            - ctx
                                .volume
                                .sample_trilinear([local[0], local[1], local[2] - 1.0]),
                    ];
                    let mag = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
                    if mag > sh.gradient_floor {
                        let ndotl =
                            ((g[0] * sh.light[0] + g[1] * sh.light[1] + g[2] * sh.light[2])
                                / (mag * ll))
                                .abs();
                        let lum = sh.ambient + sh.diffuse * ndotl;
                        rgb = [rgb[0] * lum, rgb[1] * lum, rgb[2] * lum];
                    }
                }
                let w = (1.0 - alpha) * a;
                color[0] += w * rgb[0];
                color[1] += w * rgb[1];
                color[2] += w * rgb[2];
                alpha += w;
                match ctx.term {
                    Termination::Off => {}
                    Termination::Bitwise => {
                        if provably_saturated(alpha, &color, &ctx.caps) {
                            sat = true;
                            stats.terminated_rays += 1;
                        }
                    }
                    Termination::Bounded { alpha: th } => {
                        if alpha >= th {
                            record_bounded_termination(alpha, &ctx.caps, stats);
                            break;
                        }
                    }
                }
            }
            if alpha > 0.0 {
                let idx = (py - rect.y0) * rect.w + (px - rect.x0);
                sub.pixels[idx] = [color[0], color[1], color[2], alpha];
            }
        }
    }
}

/// One packet evaluation round: gathered trilinear fetch for the
/// enabled lanes, optional gradient shading, classification, and
/// front-to-back blending — each lane performing exactly the scalar
/// kernel's arithmetic in the scalar kernel's order. Lanes that prove
/// saturated (`Bitwise`) flip `sat`; lanes crossing a `Bounded`
/// threshold flip `done`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn eval_lanes<const W: usize>(
    ctx: &KernelCtx,
    lx: &[f32; W],
    ly: &[f32; W],
    lz: &[f32; W],
    eval: &[bool; W],
    colr: &mut [f32; W],
    colg: &mut [f32; W],
    colb: &mut [f32; W],
    alpha: &mut [f32; W],
    sat: &mut [bool; W],
    done: &mut [bool; W],
    stats: &mut RenderStats,
) {
    let n_eval = eval.iter().map(|&e| e as u64).sum::<u64>();
    if n_eval == 0 {
        return;
    }
    stats.packet_eval_slots += W as u64;
    stats.packet_eval_lanes += n_eval;
    let vals = ctx.volume.sample_trilinear_packet::<W>(lx, ly, lz, eval);
    let mut grad = [[0.0f32; 3]; W];
    if ctx.shading.is_some() {
        // Central differences, one gathered packet per face: same
        // per-lane fetches as the scalar kernel, in the same order per
        // axis.
        #[allow(clippy::needless_range_loop)]
        for axis in 0..3 {
            let mut pxs = *lx;
            let mut pys = *ly;
            let mut pzs = *lz;
            let mut mxs = *lx;
            let mut mys = *ly;
            let mut mzs = *lz;
            for i in 0..W {
                match axis {
                    0 => {
                        pxs[i] += 1.0;
                        mxs[i] -= 1.0;
                    }
                    1 => {
                        pys[i] += 1.0;
                        mys[i] -= 1.0;
                    }
                    _ => {
                        pzs[i] += 1.0;
                        mzs[i] -= 1.0;
                    }
                }
            }
            let vp = ctx
                .volume
                .sample_trilinear_packet::<W>(&pxs, &pys, &pzs, eval);
            let vm = ctx
                .volume
                .sample_trilinear_packet::<W>(&mxs, &mys, &mzs, eval);
            for i in 0..W {
                grad[i][axis] = vp[i] - vm[i];
            }
        }
    }
    // Classification: the unit-step path is batched lane-parallel (the
    // packet classify is bitwise identical per lane); the general path
    // classifies per lane.
    let (mut cr, mut cg, mut cb, ca) = if ctx.dt_one {
        ctx.tf.classify_unit_step_packet::<W>(&vals)
    } else {
        let mut cr = [0.0f32; W];
        let mut cg = [0.0f32; W];
        let mut cb = [0.0f32; W];
        let mut ca = [0.0f32; W];
        for i in 0..W {
            if eval[i] {
                let (rgb, a) = ctx.tf.classify(vals[i], ctx.dt as f32);
                cr[i] = rgb[0];
                cg[i] = rgb[1];
                cb[i] = rgb[2];
                ca[i] = a;
            }
        }
        (cr, cg, cb, ca)
    };
    if let Some((sh, ll)) = &ctx.shading {
        for i in 0..W {
            if !eval[i] {
                continue;
            }
            let g = grad[i];
            let mag = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
            if mag > sh.gradient_floor {
                let ndotl = ((g[0] * sh.light[0] + g[1] * sh.light[1] + g[2] * sh.light[2])
                    / (mag * ll))
                    .abs();
                let lum = sh.ambient + sh.diffuse * ndotl;
                cr[i] *= lum;
                cg[i] *= lum;
                cb[i] *= lum;
            }
        }
    }
    // Front-to-back blend, W lanes wide and branch-free: disabled lanes
    // blend with weight +0.0, which leaves color and alpha bitwise
    // unchanged (alpha and the color channels can never be -0.0 — they
    // start at +0.0 and weights are non-negative).
    let mut w = [0.0f32; W];
    for i in 0..W {
        w[i] = if eval[i] {
            (1.0 - alpha[i]) * ca[i]
        } else {
            0.0
        };
    }
    for i in 0..W {
        colr[i] += w[i] * cr[i];
        colg[i] += w[i] * cg[i];
        colb[i] += w[i] * cb[i];
        alpha[i] += w[i];
    }
    match ctx.term {
        Termination::Off => {}
        Termination::Bitwise => {
            for i in 0..W {
                if eval[i]
                    && !sat[i]
                    && provably_saturated(alpha[i], &[colr[i], colg[i], colb[i]], &ctx.caps)
                {
                    sat[i] = true;
                    stats.terminated_rays += 1;
                }
            }
        }
        Termination::Bounded { alpha: th } => {
            for i in 0..W {
                if eval[i] && alpha[i] >= th {
                    record_bounded_termination(alpha[i], &ctx.caps, stats);
                    done[i] = true;
                }
            }
        }
    }
}

/// First `k` in `[lo, hi_excl)` for which the monotone (false-then-true)
/// predicate holds, or `hi_excl` if it never does.
fn first_true(mut lo: i64, mut hi_excl: i64, pred: impl Fn(i64) -> bool) -> i64 {
    while lo < hi_excl {
        let mid = lo + (hi_excl - lo) / 2;
        if pred(mid) {
            hi_excl = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `first_true` seeded with an analytic guess of the flip point. The
/// guess only steers the search — correctness never depends on it: the
/// bracket edges are validated against the predicate and the search
/// falls back to full bisection when the guess was off. With a good
/// guess this costs ~5 predicate evaluations instead of ~9, which
/// matters because the packet setup runs seven of these per lane.
fn first_true_near(lo: i64, hi_excl: i64, guess: i64, pred: impl Fn(i64) -> bool) -> i64 {
    let g = guess.clamp(lo, hi_excl);
    let a = (g - 1).max(lo);
    let b = (g + 1).min(hi_excl);
    if a > lo && pred(a) {
        return first_true(lo, a, pred);
    }
    if b < hi_excl && !pred(b) {
        return first_true(b + 1, hi_excl, pred);
    }
    first_true(a, b, pred)
}

/// Active-lane count and per-axis lane-to-centroid spread of the packet
/// tile anchored at `(px0, py0)`. Mirrors the packet-setup geometry in
/// `march_packets`: with `u = (k + 1/2)*dt`, lane i sits at `e_i + d_i*u`
/// (`e_i = o_i + d_i*tg0_i`), so the offset from the centroid is affine
/// in `u` and maximal at an endpoint of the packet's k-range. Used to
/// probe a representative dilation radius before baking the shared skip
/// field.
fn tile_spread<const W: usize>(
    ctx: &KernelCtx,
    camera: &Camera,
    rect: PixelRect,
    px0: usize,
    py0: usize,
    tw: usize,
) -> (u64, [f64; 3], [f64; 3]) {
    let mut e = [[0.0f64; 3]; W];
    let mut d = [[0.0f64; 3]; W];
    let mut act = [false; W];
    let mut n_act = 0u64;
    let mut k = i64::MAX;
    let mut kmax = i64::MIN;
    for i in 0..W {
        let px = px0 + i % tw;
        let py = py0 + i / tw;
        if px >= rect.x1() || py >= rect.y1() {
            continue;
        }
        let ray = camera.ray(px, py);
        let Some((tg0, tg1)) = ray.intersect_box(Vec3::ZERO, ctx.grid_hi, 0.0) else {
            continue;
        };
        let Some((tb0, tb1)) = ray.intersect_box(ctx.own_lo, ctx.own_hi, tg0) else {
            continue;
        };
        let k_lo = (((tb0 - tg0) / ctx.dt - 0.5).floor() as i64 - 1).max(0);
        let k_hi = ((tb1.min(tg1) - tg0) / ctx.dt - 0.5).ceil() as i64 + 1;
        e[i] = [
            ray.origin.x + ray.dir.x * tg0,
            ray.origin.y + ray.dir.y * tg0,
            ray.origin.z + ray.dir.z * tg0,
        ];
        d[i] = [ray.dir.x, ray.dir.y, ray.dir.z];
        act[i] = true;
        n_act += 1;
        k = k.min(k_lo);
        kmax = kmax.max(k_hi);
    }
    if n_act == 0 {
        return (0, [0.0; 3], [0.0; 3]);
    }
    let inv_n = 1.0 / n_act as f64;
    let mut ec = [0.0f64; 3];
    let mut dc = [0.0f64; 3];
    for i in 0..W {
        if act[i] {
            for a in 0..3 {
                ec[a] += e[i][a];
                dc[a] += d[i][a];
            }
        }
    }
    for a in 0..3 {
        ec[a] *= inv_n;
        dc[a] *= inv_n;
    }
    let u_lo = (k as f64 + 0.5) * ctx.dt;
    let u_hi = (kmax as f64 + 0.5) * ctx.dt;
    let um = 0.5 * (u_lo + u_hi);
    let dcn = dc[0] * dc[0] + dc[1] * dc[1] + dc[2] * dc[2];
    let mut s_shift = [0.0f64; 3];
    let mut s_raw = [0.0f64; 3];
    for i in 0..W {
        if !act[i] {
            continue;
        }
        let de = [e[i][0] - ec[0], e[i][1] - ec[1], e[i][2] - ec[2]];
        let dd = [d[i][0] - dc[0], d[i][1] - dc[1], d[i][2] - dc[2]];
        // Along-direction shift: the marching loop absorbs it exactly
        // by sliding the lane's covered ladder window, so only the
        // perpendicular residual needs field dilation.
        let sig = if dcn > 1e-12 {
            ((de[0] + dd[0] * um) * dc[0]
                + (de[1] + dd[1] * um) * dc[1]
                + (de[2] + dd[2] * um) * dc[2])
                / dcn
        } else {
            0.0
        };
        for u in [u_lo, u_hi] {
            for a in 0..3 {
                let r = de[a] + dd[a] * u;
                s_raw[a] = s_raw[a].max(r.abs());
                s_shift[a] = s_shift[a].max((r - sig * dc[a]).abs());
            }
        }
    }
    for v in &mut s_shift {
        *v = *v * (1.0 + 1e-9) + 1e-6;
    }
    for v in &mut s_raw {
        *v = *v * (1.0 + 1e-9) + 1e-6;
    }
    (n_act, s_shift, s_raw)
}

fn march_packets<const W: usize>(
    ctx: &KernelCtx,
    camera: &Camera,
    rect: PixelRect,
    sub: &mut SubImage,
    stats: &mut RenderStats,
) {
    // Residual (perpendicular) lane-to-centroid spread, in voxels, the
    // shared skip field will at most be baked for. A probe tile
    // exceeding this (extreme zoom-out, strongly divergent perspective
    // lanes) is excluded from the bake; packets whose residual exceeds
    // the bake fall back to the scalar ray loop — bit-identical
    // pixels, just without packet batching.
    const MAX_PROBE_SPREAD: f64 = 2.25;
    // Packets are two-pixel-wide tiles (2x4 at W=8, 2x2 at W=4) rather
    // than scanline runs. Tiles beat runs because they shrink the
    // lane-to-centroid spread; *tall* tiles beat wide ones because the
    // along-direction stagger of lanes entering a non-facing box side
    // grows with the tile's extent along the image x axis — a narrow
    // tile keeps the per-lane ladder shifts (and with them the
    // staggered head/tail rounds of every empty run) small.
    let tw: usize = 2;
    let th: usize = W / tw;
    // Two bakes from a 4x4 probe grid of tiles across the rect: a
    // *tight* one from tiles whose raw lane spread is already small
    // (interior tiles — the ones that carry the render — keep minimal
    // erosion and need no per-lane ladder shifts), and a *loose* one
    // from every tile whose shift-removed residual is small (adds
    // box-silhouette tiles whose lanes enter through different faces;
    // their residual is modest but would erode the tight field for
    // everyone). Each packet later picks the tightest field it fits.
    let mut field: Option<PacketField> = None;
    let mut field_loose: Option<PacketField> = None;
    if let Some((g, empty, lut)) = &ctx.skip {
        let mut tight: [Vec<f64>; 3] = Default::default();
        let mut loose: [Vec<f64>; 3] = Default::default();
        let tiles_x = rect.w.div_ceil(tw);
        let tiles_y = rect.h.div_ceil(th);
        for iy in 0..4usize {
            for ix in 0..4usize {
                let px0 = rect.x0 + (tiles_x * (2 * ix + 1) / 8).min(tiles_x - 1) * tw;
                let py0 = rect.y0 + (tiles_y * (2 * iy + 1) / 8).min(tiles_y - 1) * th;
                let (n, s_shift, s_raw) = tile_spread::<W>(ctx, camera, rect, px0, py0, tw);
                if n != W as u64 {
                    continue;
                }
                if s_raw[0].max(s_raw[1]).max(s_raw[2]) <= MAX_PROBE_SPREAD {
                    for a in 0..3 {
                        tight[a].push(s_raw[a]);
                    }
                }
                if s_shift[0].max(s_shift[1]).max(s_shift[2]) <= MAX_PROBE_SPREAD {
                    for a in 0..3 {
                        loose[a].push(s_shift[a]);
                    }
                }
            }
        }
        // No well-behaved probe tile (tiny rect, or every tile
        // straddles a silhouette): bake zero spread — the shared walk
        // then never engages for unshifted packets, and shifted ones
        // still have the loose field.
        let top = |v: &Vec<f64>| v.iter().copied().fold(0.0f64, f64::max);
        let bake = |s: &[Vec<f64>; 3]| {
            [
                top(&s[0]) * 1.08 + 0.12,
                top(&s[1]) * 1.08 + 0.12,
                top(&s[2]) * 1.08 + 0.12,
            ]
        };
        let bt = bake(&tight);
        let bl = bake(&loose);
        let rempty = PacketField::refined_verdicts(g, empty, lut);
        field = Some(PacketField::build(&rempty, ctx.vdims, bt));
        // A second build only pays off when some probe tile genuinely
        // needs the looser dilation; otherwise shifted packets share
        // the tight field.
        if bl.iter().zip(&bt).any(|(l, t)| l > &(t + 0.25)) {
            field_loose = Some(PacketField::build(&rempty, ctx.vdims, bl));
        }
    }

    let stx = ctx.st_off[0] as f64;
    let sty = ctx.st_off[1] as f64;
    let stz = ctx.st_off[2] as f64;

    let mut py0 = rect.y0;
    while py0 < rect.y1() {
        let mut px0 = rect.x0;
        while px0 < rect.x1() {
            // ---- Packet setup: one lane per pixel, masked off where
            // the scanline ends (ragged edge) or the ray misses. Ray
            // components in structure-of-arrays form so the per-k
            // ladder arithmetic below runs as W-wide branch-free loops.
            let mut act = [false; W];
            let mut done = [true; W];
            let mut sat = [false; W];
            let mut oxa = [0.0f64; W];
            let mut oya = [0.0f64; W];
            let mut oza = [0.0f64; W];
            let mut dxa = [0.0f64; W];
            let mut dya = [0.0f64; W];
            let mut dza = [0.0f64; W];
            let mut tg0a = [0.0f64; W];
            let mut tg1a = [0.0f64; W];
            let mut kloa = [0i64; W];
            let mut khia = [0i64; W];
            let mut colr = [0.0f32; W];
            let mut colg = [0.0f32; W];
            let mut colb = [0.0f32; W];
            let mut alpha = [0.0f32; W];
            let mut k = i64::MAX;
            let mut kmax = i64::MIN;
            let mut n_act = 0u64;
            for i in 0..W {
                let px = px0 + i % tw;
                let py = py0 + i / tw;
                if px >= rect.x1() || py >= rect.y1() {
                    continue;
                }
                let ray = camera.ray(px, py);
                let Some((tg0, tg1)) = ray.intersect_box(Vec3::ZERO, ctx.grid_hi, 0.0) else {
                    continue;
                };
                let Some((tb0, tb1)) = ray.intersect_box(ctx.own_lo, ctx.own_hi, tg0) else {
                    continue;
                };
                let k_lo = (((tb0 - tg0) / ctx.dt - 0.5).floor() as i64 - 1).max(0);
                let k_hi = ((tb1.min(tg1) - tg0) / ctx.dt - 0.5).ceil() as i64 + 1;
                oxa[i] = ray.origin.x;
                oya[i] = ray.origin.y;
                oza[i] = ray.origin.z;
                dxa[i] = ray.dir.x;
                dya[i] = ray.dir.y;
                dza[i] = ray.dir.z;
                tg0a[i] = tg0;
                tg1a[i] = tg1;
                kloa[i] = k_lo;
                khia[i] = k_hi;
                act[i] = true;
                done[i] = false;
                n_act += 1;
                k = k.min(k_lo);
                kmax = kmax.max(k_hi);
            }
            if k == i64::MAX {
                px0 += tw;
                continue;
            }

            // ---- Exact per-lane owned k-interval. Every ownership
            // predicate — the six half-open box tests and the `t < tg1`
            // guard — is monotone in k: the ladder position is
            // re-derived from the ray equation each round (not
            // accumulated), so it advances strictly along the ray and
            // each predicate flips at most once. The owned ks therefore
            // form one contiguous interval. Locating its endpoints by
            // binary search over the *same* float expressions the
            // scalar kernel evaluates per step keeps the accounting
            // bitwise-exact, lets lit rounds test ownership with two
            // integer compares, and lets provably-empty runs account a
            // whole lane overlap in O(1).
            let mut koa = [i64::MAX; W];
            let mut kob = [i64::MIN; W];
            for i in 0..W {
                if !act[i] {
                    continue;
                }
                let t_of = |k: i64| tg0a[i] + (k as f64 + 0.5) * ctx.dt;
                let lo0 = kloa[i];
                let hi1 = khia[i] + 1;
                let mut a = lo0;
                let mut b = khia[i];
                {
                    let g = ((tg1a[i] - tg0a[i]) * ctx.inv_dt - 0.5).ceil();
                    let g = g.clamp(-1e18, 1e18) as i64;
                    b = b.min(first_true_near(lo0, hi1, g, |k| t_of(k) >= tg1a[i]) - 1);
                }
                let axes = [
                    (oxa[i], dxa[i], ctx.own_lo.x, ctx.own_hi.x),
                    (oya[i], dya[i], ctx.own_lo.y, ctx.own_hi.y),
                    (oza[i], dza[i], ctx.own_lo.z, ctx.own_hi.z),
                ];
                for (o, d, blo, bhi) in axes {
                    let p = |k: i64| o + d * t_of(k);
                    if d != 0.0 {
                        // First integer k past the real-arithmetic
                        // crossing of plane `x`; ±1-2 of the float
                        // flip point, which the bracket absorbs.
                        let kc = |x: f64| {
                            let g = (((x - o) / d - tg0a[i]) * ctx.inv_dt - 0.5).ceil();
                            g.clamp(-1e18, 1e18) as i64
                        };
                        if d > 0.0 {
                            a = a.max(first_true_near(lo0, hi1, kc(blo), |k| p(k) >= blo));
                            b = b.min(first_true_near(lo0, hi1, kc(bhi), |k| p(k) >= bhi) - 1);
                        } else {
                            a = a.max(first_true_near(lo0, hi1, kc(bhi), |k| p(k) < bhi));
                            b = b.min(first_true_near(lo0, hi1, kc(blo), |k| p(k) < blo) - 1);
                        }
                    } else {
                        // Constant coordinate: the lane owns nothing
                        // unless it sits inside `[blo, bhi)` (NaN
                        // counts as outside).
                        let x = o + d * t_of(lo0);
                        if !(x >= blo && x < bhi) {
                            b = i64::MIN;
                        }
                    }
                }
                koa[i] = a;
                kob[i] = b;
            }

            // ---- Packet geometry for the shared skip field. With
            // `u = (k + 1/2)·dt`, lane i sits at `e_i + d_i·u` where
            // `e_i = o_i + d_i·tg0_i`, so the lane-to-centroid offset
            // is affine in `u` and its maximum over the packet's whole
            // k-range is attained at an endpoint.
            let mut ecx = 0.0f64;
            let mut ecy = 0.0f64;
            let mut ecz = 0.0f64;
            let mut dcx = 0.0f64;
            let mut dcy = 0.0f64;
            let mut dcz = 0.0f64;
            let mut u_max = 0.0f64;
            for i in 0..W {
                if !act[i] {
                    continue;
                }
                ecx += oxa[i] + dxa[i] * tg0a[i];
                ecy += oya[i] + dya[i] * tg0a[i];
                ecz += oza[i] + dza[i] * tg0a[i];
                dcx += dxa[i];
                dcy += dya[i];
                dcz += dza[i];
                u_max = u_max.max(tg1a[i] - tg0a[i]);
            }
            let inv_n = 1.0 / n_act as f64;
            ecx *= inv_n;
            ecy *= inv_n;
            ecz *= inv_n;
            dcx *= inv_n;
            dcy *= inv_n;
            dcz *= inv_n;
            let u_lo = (k as f64 + 0.5) * ctx.dt;
            let u_hi = (kmax as f64 + 0.5) * ctx.dt;
            // Decompose each lane's centroid offset into an
            // along-direction shift `sig` (lane i at ladder u sits
            // where the centroid sits at `u + sig_i`, to within the
            // residual) plus a perpendicular residual. Only the
            // residual needs field dilation; the shift is absorbed
            // exactly in the empty-run accounting by sliding the
            // lane's covered ladder window — this is what makes tiles
            // whose lanes enter through different box faces (staggered
            // entry depths, offsets almost purely along the ray)
            // eligible for the shared walk at all.
            let um = 0.5 * (u_lo + u_hi);
            let dca = [dcx, dcy, dcz];
            let dcn = dcx * dcx + dcy * dcy + dcz * dcz;
            let mut sha = [0.0f64; W];
            let mut s_raw = [0.0f64; 3];
            let mut s_shift = [0.0f64; 3];
            for i in 0..W {
                if !act[i] {
                    continue;
                }
                let de = [
                    (oxa[i] + dxa[i] * tg0a[i]) - ecx,
                    (oya[i] + dya[i] * tg0a[i]) - ecy,
                    (oza[i] + dza[i] * tg0a[i]) - ecz,
                ];
                let dd = [dxa[i] - dcx, dya[i] - dcy, dza[i] - dcz];
                let sig = if dcn > 1e-12 {
                    ((de[0] + dd[0] * um) * dca[0]
                        + (de[1] + dd[1] * um) * dca[1]
                        + (de[2] + dd[2] * um) * dca[2])
                        / dcn
                } else {
                    0.0
                };
                sha[i] = sig;
                for u in [u_lo, u_hi] {
                    for a in 0..3 {
                        let r = de[a] + dd[a] * u;
                        s_raw[a] = s_raw[a].max(r.abs());
                        s_shift[a] = s_shift[a].max((r - sig * dca[a]).abs());
                    }
                }
            }
            // Absorb the few ULP by which rounded per-lane positions
            // can exceed the affine bound.
            for s in &mut s_raw {
                *s = *s * (1.0 + 1e-9) + 1e-6;
            }
            for s in &mut s_shift {
                *s = *s * (1.0 + 1e-9) + 1e-6;
            }

            // Shared-walk eligibility: the baked dilation must cover
            // this packet's lane spread. Prefer the raw (unshifted)
            // geometry on the tight field when it already fits — zero
            // shifts mean empty runs need no per-lane head/tail rounds
            // at all — then shifted on the tight field, then shifted
            // on the loose one.
            let fits = |s: &[f64; 3], f: &Option<PacketField>| {
                f.as_ref().is_some_and(|f| {
                    s[0] <= f.spread[0] && s[1] <= f.spread[1] && s[2] <= f.spread[2]
                })
            };
            let (use_shared, shifted, fld) = if fits(&s_raw, &field) {
                (true, false, field.as_ref())
            } else if fits(&s_shift, &field) {
                (true, true, field.as_ref())
            } else if fits(&s_shift, &field_loose) {
                (true, true, field_loose.as_ref())
            } else {
                (false, false, None)
            };
            if !shifted {
                sha = [0.0f64; W];
            }
            if ctx.skip.is_some() && !use_shared {
                // Too divergent for the baked dilation even after
                // removing the along-direction shifts (extreme
                // zoom-out or perspective divergence): scalar fallback
                // — it keeps per-ray empty-space leaping, and pixels
                // are bit-identical either way.
                for py in py0..(py0 + th).min(rect.y1()) {
                    for px in px0..(px0 + tw).min(rect.x1()) {
                        march_one_ray(ctx, camera, px, py, rect, sub, stats);
                    }
                }
                px0 += tw;
                continue;
            }
            stats.rays += n_act;
            stats.packets += 1;

            // Per-round coverage windows: the ladder indices at which
            // lane i's sample is proven empty by the current run.
            // Rewritten at every run boundary; lit runs leave every
            // window empty (lo > hi).
            let mut cov_lo = [1i64; W];
            let mut cov_hi = [0i64; W];
            // One marching round at ladder index `k`: ladder position
            // and ownership per lane, coverage-skip accounting, then
            // the gathered fetch/classify/blend for the rest. A macro
            // rather than a function so the W-wide working arrays stay
            // borrowed in place.
            macro_rules! round {
                () => {{
                    // Masks first — all integer compares — so rounds
                    // with nothing to evaluate (coverage-staggered
                    // edges of empty runs) cost no ladder arithmetic.
                    let mut own = [false; W];
                    let mut covd = [false; W];
                    let mut n_own = 0u64;
                    let mut n_skip = 0u64;
                    let mut eval = [false; W];
                    let mut any = false;
                    for i in 0..W {
                        own[i] = act[i] & !done[i] & (k >= koa[i]) & (k <= kob[i]);
                        covd[i] = (k >= cov_lo[i]) & (k <= cov_hi[i]);
                        n_own += own[i] as u64;
                        n_skip += (own[i] & covd[i]) as u64;
                        let e = own[i] & !sat[i] & !covd[i];
                        eval[i] = e;
                        any |= e;
                    }
                    stats.samples += n_own;
                    stats.skipped_samples += n_skip;
                    if n_skip > 0 {
                        if let Termination::Bounded { alpha: th } = ctx.term {
                            // Mirror the scalar kernel's re-check of the
                            // bounded gate on provably-empty samples.
                            for i in 0..W {
                                if own[i] && covd[i] && alpha[i] >= th {
                                    record_bounded_termination(alpha[i], &ctx.caps, stats);
                                    done[i] = true;
                                }
                            }
                        }
                    }
                    if any {
                        let kf = k as f64 + 0.5;
                        let mut lx = [0.0f32; W];
                        let mut ly = [0.0f32; W];
                        let mut lz = [0.0f32; W];
                        for i in 0..W {
                            let t = tg0a[i] + kf * ctx.dt;
                            let px = oxa[i] + dxa[i] * t;
                            let py = oya[i] + dya[i] * t;
                            let pz = oza[i] + dza[i] * t;
                            lx[i] = (px - stx - 0.5) as f32;
                            ly[i] = (py - sty - 0.5) as f32;
                            lz[i] = (pz - stz - 0.5) as f32;
                        }
                        eval_lanes::<W>(
                            ctx, &lx, &ly, &lz, &eval, &mut colr, &mut colg, &mut colb, &mut alpha,
                            &mut sat, &mut done, stats,
                        );
                    }
                }};
            }

            // ---- Lockstep march over the shared ladder index.
            //
            // One Amanatides–Woo walk of the packet centroid over the
            // dilated skip field yields a shared verdict run: either
            // the run is empty — the walked centroid segment, slid by
            // each lane's along-direction shift, proves whole per-lane
            // ladder windows empty, so the interior of the run is
            // accounted in O(W) and only the shift-staggered head and
            // tail indices (none at all when shifts are zero) take
            // normal rounds — or the run is lit and every round is
            // straight-line lane-parallel arithmetic: ladder position,
            // ownership mask, gathered fetch, blend. Either way there
            // is exactly one verdict per packet per run.
            //
            // Every per-lane float expression matches the scalar kernel
            // exactly — same operations, same order — so owned lanes
            // accumulate bitwise identically to the scalar march
            // (skipped samples are provably exact-zero contributions,
            // i.e. bitwise no-ops, for both kernels).
            // Largest lagging (positive) shift, in ladder units: how
            // far past its own exit the centroid walk must extend so
            // trailing lanes' windows reach their final owned indices.
            let lag_ext = sha.iter().copied().fold(0.0f64, f64::max).max(0.0) * ctx.inv_dt;
            let mut run_until = k;
            let mut run_lit = true;
            loop {
                // Retire scan.
                let mut alive = false;
                for i in 0..W {
                    if act[i] && !done[i] {
                        if k > khia[i] {
                            done[i] = true;
                        } else {
                            alive = true;
                        }
                    }
                }
                if !alive {
                    break;
                }
                if k >= run_until {
                    match fld {
                        Some(f) => {
                            let u = (k as f64 + 0.5) * ctx.dt;
                            let lc = [
                                ecx + dcx * u - stx - 0.5,
                                ecy + dcy * u - sty - 0.5,
                                ecz + dcz * u - stz - 0.5,
                            ];
                            let dir = Vec3::new(dcx, dcy, dcz);
                            let inv_step = [
                                (dcx * ctx.dt).abs().recip(),
                                (dcy * ctx.dt).abs().recip(),
                                (dcz * ctx.dt).abs().recip(),
                            ];
                            // Walk past the centroid's own exit by the
                            // largest lagging shift, so lanes whose
                            // windows trail the segment stay covered
                            // through their final owned indices.
                            let limit = (u_max - u) * ctx.inv_dt + lag_ext;
                            let (is_empty, steps) = f.leap(lc, dir, inv_step, limit);
                            run_lit = !is_empty;
                            run_until = (k + 1).saturating_add(steps);
                        }
                        None => {
                            run_lit = true;
                            run_until = i64::MAX;
                        }
                    }
                }
                let end = run_until.min(kmax + 1);

                // ---- Per-lane coverage windows and the bulk interval
                // for this run. An empty run means the walk proved the
                // centroid segment `[u_k, u_k + (S+1)·dt)` lies in
                // empty (residual-dilated) field cells; lane i tracks
                // the centroid at parameter `u + sig_i`, so its proven
                // ladder indices are the segment's, slid by `-sig_i/dt`
                // and rounded inward. `[bulk_lo, bulk_hi)` is the
                // intersection of every live lane's window: accounted
                // per lane in one move. The staggered edges take
                // normal rounds, where uncovered lanes evaluate and
                // covered lanes are skip-counted — with zero shifts
                // the edges are empty and the whole run is bulk.
                let (bulk_lo, bulk_hi) = if run_lit {
                    for i in 0..W {
                        cov_lo[i] = 1;
                        cov_hi[i] = 0;
                    }
                    (end, end)
                } else {
                    // Proven segment length comes from the walk itself
                    // (`run_until`), not the march bound `end`: the
                    // extended walk may prove lagging lanes' windows
                    // well past `kmax`.
                    let s_run = run_until - k - 1;
                    let mut head_end = k;
                    let mut tail_start = end;
                    for i in 0..W {
                        cov_lo[i] = 1;
                        cov_hi[i] = 0;
                        if !act[i] | done[i] {
                            continue;
                        }
                        let sh = sha[i] * ctx.inv_dt;
                        // Covered iff `(k'-k)·dt + sig` lands in the
                        // proven segment `[0, (S+1)·dt)`; the 1e-9
                        // bias keeps the strict upper bound strict at
                        // exact-integer shifts, and sub-ULP overshoot
                        // is absorbed by the bake margin.
                        let lo = k + (-sh).ceil() as i64;
                        let hi = k + ((s_run + 1) as f64 - sh - 1e-9).ceil() as i64 - 1;
                        cov_lo[i] = lo;
                        cov_hi[i] = hi;
                        if lo > hi {
                            head_end = end;
                        } else {
                            head_end = head_end.max(lo);
                            tail_start = tail_start.min(hi + 1);
                        }
                    }
                    let b_lo = head_end.min(end);
                    (b_lo, tail_start.max(b_lo).min(end))
                };

                // Head rounds (all rounds, for a lit run).
                while k < bulk_lo {
                    round!();
                    k += 1;
                }
                // Bulk: every owned sample here is provably a bitwise
                // no-op for every live lane — no fetch, no classify,
                // one interval count per lane.
                if bulk_lo < bulk_hi {
                    for i in 0..W {
                        if !act[i] | done[i] {
                            continue;
                        }
                        let lo = koa[i].max(bulk_lo);
                        let hi = kob[i].min(bulk_hi - 1);
                        if lo > hi {
                            continue;
                        }
                        let mut n = (hi - lo + 1) as u64;
                        if let Termination::Bounded { alpha: th } = ctx.term {
                            // Mirror the scalar kernel's re-check of the
                            // bounded gate on provably-empty samples: it
                            // counts the terminating sample, then stops.
                            if alpha[i] >= th {
                                n = 1;
                                record_bounded_termination(alpha[i], &ctx.caps, stats);
                                done[i] = true;
                            }
                        }
                        stats.samples += n;
                        stats.skipped_samples += n;
                    }
                    k = bulk_hi;
                }
                // Tail rounds: lanes whose window leads the segment.
                while k < end {
                    round!();
                    k += 1;
                }
            }

            // ---- Write-out, identical to the scalar kernel's.
            for i in 0..W {
                let px = px0 + i % tw;
                let py = py0 + i / tw;
                if act[i] && alpha[i] > 0.0 {
                    let idx = (py - rect.y0) * rect.w + (px - rect.x0);
                    sub.pixels[idx] = [colr[i], colg[i], colb[i], alpha[i]];
                }
            }
            px0 += tw;
        }
        py0 += th;
    }
}

/// Serial reference renderer: the whole grid as one block.
pub fn render_serial(
    volume: &Volume,
    camera: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (crate::image::Image, RenderStats) {
    let grid = volume.dims();
    let dom = BlockDomain::whole(grid);
    let (sub, stats) = render_block(volume, &dom, camera, tf, opts);
    let (w, h) = camera.image_size();
    let mut img = crate::image::Image::new(w, h);
    img.paste(&sub);
    (img, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::over;
    use pvr_volume::{BlockDecomposition, SupernovaField};

    fn test_volume(n: usize) -> Volume {
        let f = SupernovaField::new(1530);
        Volume::from_field(&f.variable(2), [n, n, n])
    }

    fn tf() -> TransferFunction {
        TransferFunction::supernova_velocity()
    }

    /// A near-opaque map: every sample accumulates hard, so rays cross
    /// the termination gates within a handful of steps. The supernova
    /// map's 0.6 alpha cap never drives 32^3 rays near saturation —
    /// termination tests need this instead.
    fn opaque_tf() -> TransferFunction {
        TransferFunction::from_points(
            (-1.0, 1.0),
            &[(0.0, [0.2, 0.3, 0.4, 0.9]), (1.0, [1.0, 0.9, 0.8, 0.98])],
        )
    }

    #[test]
    fn serial_render_produces_nonempty_image() {
        let v = test_volume(32);
        let cam = Camera::axis_aligned([32, 32, 32], 48, 48);
        let (img, stats) = render_serial(&v, &cam, &tf(), &RenderOpts::default());
        assert!(stats.samples > 10_000, "samples {}", stats.samples);
        let lit = img.pixels().iter().filter(|p| p[3] > 0.01).count();
        assert!(lit > 200, "lit pixels {lit}");
        // Nothing exceeds full opacity.
        for p in img.pixels() {
            assert!(p[3] <= 1.0 + 1e-5);
        }
    }

    /// The core exactness property: blocks partition the serial sample
    /// set, so compositing block results per pixel in depth order equals
    /// the serial image.
    #[test]
    fn blocks_reproduce_serial_image() {
        let n = 24;
        let field = SupernovaField::new(1530).variable(2);
        let full = Volume::from_field(&field, [n, n, n]);
        for view in [
            Vec3::new(0.0, 0.0, -1.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.37, -0.61, 0.58),
        ] {
            let cam = Camera::orthographic([n, n, n], view, 40, 40);
            let opts = RenderOpts::default();
            let (serial, serial_stats) = render_serial(&full, &cam, &tf(), &opts);

            let decomp = BlockDecomposition::new([n, n, n], 8);
            let mut subs = Vec::new();
            let mut total_samples = 0;
            for b in decomp.blocks() {
                let stored = decomp.with_ghost(&b, 1);
                let vol = Volume::from_field_window(&field, [n, n, n], stored.offset, stored.shape);
                let dom = BlockDomain {
                    grid: [n, n, n],
                    owned: b.sub,
                    stored,
                };
                let (sub, st) = render_block(&vol, &dom, &cam, &tf(), &opts);
                total_samples += st.samples;
                subs.push(sub);
            }
            // Sample partition: parallel total == serial total.
            assert_eq!(
                total_samples, serial_stats.samples,
                "view {view:?}: sample sets differ"
            );

            // Composite per pixel in depth order.
            subs.sort_by(|a, b| a.depth.total_cmp(&b.depth));
            let mut img = crate::image::Image::new(40, 40);
            for y in 0..40 {
                for x in 0..40 {
                    let mut acc = [0.0f32; 4];
                    for s in &subs {
                        if s.rect.contains(x, y) {
                            acc = over(acc, s.get(x, y));
                        }
                    }
                    img.set(x, y, acc);
                }
            }
            let diff = img.max_abs_diff(&serial);
            assert!(diff < 2e-3, "view {view:?}: max diff {diff}");
        }
    }

    #[test]
    fn footprints_cover_lit_pixels() {
        let n = 24;
        let cam = Camera::orthographic([n, n, n], Vec3::new(0.2, 0.3, -0.9), 32, 32);
        let decomp = BlockDecomposition::new([n, n, n], 4);
        for b in decomp.blocks() {
            let fp = footprint(&cam, b.sub.offset, b.sub.end(), (32, 32));
            assert!(!fp.is_empty());
            // The whole-grid footprint contains every block footprint.
            let whole = footprint(&cam, [0, 0, 0], [n, n, n], (32, 32));
            assert!(whole.intersect(&fp) == Some(fp));
        }
    }

    #[test]
    fn bounded_termination_saves_samples_with_small_error() {
        let v = test_volume(32);
        let cam = Camera::axis_aligned([32, 32, 32], 40, 40);
        let exact = RenderOpts::exact();
        let et = RenderOpts {
            termination: Termination::Bounded { alpha: 0.995 },
            ..RenderOpts::exact()
        };
        let (img0, s0) = render_serial(&v, &cam, &opaque_tf(), &exact);
        let (img1, s1) = render_serial(&v, &cam, &opaque_tf(), &et);
        assert!(s1.samples <= s0.samples);
        assert!(s1.terminated_rays > 0, "no ray hit the alpha threshold");
        assert!(s1.error_bound > 0.0, "bounded cuts must report a bound");
        assert!(img0.max_abs_diff(&img1) < 0.01);
        // The reported bound really bounds the damage.
        assert!(
            img0.max_abs_diff(&img1) <= f64::from(s1.error_bound),
            "diff {} > bound {}",
            img0.max_abs_diff(&img1),
            s1.error_bound
        );
        assert_eq!(s0.error_bound, 0.0, "exact mode must report zero error");
    }

    /// The default-on bitwise gate must be invisible everywhere except
    /// `terminated_rays`: pixels AND legacy sample stats match
    /// `Termination::Off` bit for bit, on both the scalar and packet
    /// kernels, while the saturated rays stop paying for evaluation.
    #[test]
    fn bitwise_termination_is_invisible_and_fires() {
        let v = test_volume(32);
        let cam = Camera::axis_aligned([32, 32, 32], 40, 40);
        for (tfn, must_fire) in [(tf(), false), (opaque_tf(), true)] {
            for packet_width in [1, 8] {
                let off = RenderOpts {
                    termination: Termination::Off,
                    packet_width,
                    ..Default::default()
                };
                let on = RenderOpts {
                    termination: Termination::Bitwise,
                    ..off
                };
                let (img0, s0) = render_serial(&v, &cam, &tfn, &off);
                let (img1, s1) = render_serial(&v, &cam, &tfn, &on);
                assert_eq!(s0.samples, s1.samples);
                assert_eq!(s0.skipped_samples, s1.skipped_samples);
                assert_eq!(s0.rays, s1.rays);
                assert_eq!(s0.terminated_rays, 0);
                if must_fire {
                    assert!(
                        s1.terminated_rays > 0,
                        "width {packet_width}: near-opaque rays should saturate"
                    );
                    // Saturation shows up as evaluation work saved on
                    // the packet path.
                    if packet_width > 1 {
                        assert!(s1.packet_eval_lanes < s0.packet_eval_lanes);
                    }
                }
                assert_eq!(s1.error_bound, 0.0, "bitwise mode is lossless");
                for (a, b) in img0.pixels().iter().zip(img1.pixels()) {
                    for c in 0..4 {
                        assert_eq!(a[c].to_bits(), b[c].to_bits());
                    }
                }
            }
        }
    }

    /// Packet widths are a pure performance knob: every width produces
    /// the scalar kernel's pixels and (samples, rays) stats bit for
    /// bit, across shading and termination modes. `skipped_samples`
    /// may differ in either direction: the packet path's skip field is
    /// dilated by the residual lane spread (proving fewer samples than
    /// the scalar walk can), but it is built on the refined 2³-voxel
    /// summary (proving samples the scalar kernel's 8³ macrocells
    /// cannot). Both only ever skip provably-exact-zero contributions,
    /// so the pixels and the evaluated results stay bitwise equal.
    #[test]
    fn packet_kernel_is_bit_identical_to_scalar() {
        let v = test_volume(32);
        let cam = Camera::orthographic([32, 32, 32], Vec3::new(0.3, -0.2, 0.93), 47, 47);
        for tfn in [tf(), opaque_tf()] {
            for shading in [None, Some(Shading::default())] {
                for term in [
                    Termination::Off,
                    Termination::Bitwise,
                    Termination::Bounded { alpha: 0.99 },
                ] {
                    let scalar = RenderOpts {
                        packet_width: 1,
                        shading,
                        termination: term,
                        ..Default::default()
                    };
                    let (img0, s0) = render_serial(&v, &cam, &tfn, &scalar);
                    for packet_width in [4, 8] {
                        let packet = RenderOpts {
                            packet_width,
                            ..scalar
                        };
                        let (img1, s1) = render_serial(&v, &cam, &tfn, &packet);
                        let tag = format!("width {packet_width}, term {term:?}");
                        assert_eq!(s0.samples, s1.samples, "{tag}: samples");
                        assert_eq!(s0.rays, s1.rays, "{tag}: rays");
                        assert_eq!(s0.terminated_rays, s1.terminated_rays, "{tag}: terminated");
                        assert_eq!(
                            s0.error_bound.to_bits(),
                            s1.error_bound.to_bits(),
                            "{tag}: error bound"
                        );
                        assert_eq!(s0.packets, 0);
                        assert!(s1.packets > 0, "{tag}: packet kernel did not run");
                        assert!(
                            s1.lane_utilization().unwrap_or(0.0) > 0.2,
                            "{tag}: implausibly low lane utilization"
                        );
                        for (a, b) in img0.pixels().iter().zip(img1.pixels()) {
                            for c in 0..4 {
                                assert_eq!(a[c].to_bits(), b[c].to_bits(), "{tag}: pixel bits");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn smaller_steps_converge() {
        // Halving the step should change the image only slightly
        // (opacity correction keeps accumulation consistent).
        let v = test_volume(24);
        let cam = Camera::axis_aligned([24, 24, 24], 32, 32);
        let (a, _) = render_serial(
            &v,
            &cam,
            &tf(),
            &RenderOpts {
                step: 1.0,
                ..Default::default()
            },
        );
        let (b, _) = render_serial(
            &v,
            &cam,
            &tf(),
            &RenderOpts {
                step: 0.5,
                ..Default::default()
            },
        );
        assert!(a.mean_abs_diff(&b) < 0.02, "diff {}", a.mean_abs_diff(&b));
    }

    #[test]
    fn transparent_volume_renders_transparent() {
        let v = Volume::zeros([16, 16, 16]);
        let tf = TransferFunction::from_points(
            (0.0, 1.0),
            &[(0.0, [0.0; 4]), (1.0, [1.0, 1.0, 1.0, 0.9])],
        );
        let cam = Camera::axis_aligned([16, 16, 16], 16, 16);
        let (img, _) = render_serial(&v, &cam, &tf, &RenderOpts::default());
        for p in img.pixels() {
            assert_eq!(*p, [0.0; 4]);
        }
    }

    #[test]
    fn perspective_render_is_sane() {
        let v = test_volume(24);
        let cam = Camera::perspective([24, 24, 24], Vec3::new(12.0, 12.0, 90.0), 35.0, 32, 32);
        let (img, stats) = render_serial(&v, &cam, &tf(), &RenderOpts::default());
        assert!(stats.samples > 1000);
        assert!(img.pixels().iter().any(|p| p[3] > 0.05));
    }

    #[test]
    fn shading_darkens_and_stays_bounded() {
        let v = test_volume(24);
        let cam = Camera::axis_aligned([24, 24, 24], 32, 32);
        let flat = RenderOpts::default();
        let shaded = RenderOpts {
            shading: Some(crate::raycast::Shading::default()),
            ..Default::default()
        };
        let (img0, _) = render_serial(&v, &cam, &tf(), &flat);
        let (img1, _) = render_serial(&v, &cam, &tf(), &shaded);
        // Same opacity everywhere (shading modulates color only).
        for (a, b) in img0.pixels().iter().zip(img1.pixels()) {
            assert!((a[3] - b[3]).abs() < 1e-6);
            for c in 0..3 {
                assert!(b[c] <= a[c] + 1e-5, "shaded brighter than unshaded");
            }
        }
        // But it does change the picture.
        assert!(img0.mean_abs_diff(&img1) > 1e-3);
    }

    #[test]
    fn shaded_blocks_reproduce_shaded_serial_with_ghost_2() {
        let n = 24;
        let field = SupernovaField::new(1530).variable(2);
        let full = Volume::from_field(&field, [n, n, n]);
        let cam = Camera::orthographic([n, n, n], Vec3::new(0.3, -0.5, 0.8), 40, 40);
        let opts = RenderOpts {
            shading: Some(crate::raycast::Shading::default()),
            ..Default::default()
        };
        let (serial, _) = render_serial(&full, &cam, &tf(), &opts);

        let decomp = BlockDecomposition::new([n, n, n], 8);
        let mut subs = Vec::new();
        for b in decomp.blocks() {
            let stored = decomp.with_ghost(&b, 2); // shading needs 2
            let vol = Volume::from_field_window(&field, [n, n, n], stored.offset, stored.shape);
            let dom = BlockDomain {
                grid: [n, n, n],
                owned: b.sub,
                stored,
            };
            subs.push(render_block(&vol, &dom, &cam, &tf(), &opts).0);
        }
        subs.sort_by(|a, b| a.depth.total_cmp(&b.depth));
        let mut img = crate::image::Image::new(40, 40);
        for y in 0..40 {
            for x in 0..40 {
                let mut acc = [0.0f32; 4];
                for s in &subs {
                    if s.rect.contains(x, y) {
                        acc = over(acc, s.get(x, y));
                    }
                }
                img.set(x, y, acc);
            }
        }
        let diff = img.max_abs_diff(&serial);
        assert!(diff < 2e-3, "shaded parallel/serial diff {diff}");
    }

    /// The fast-path gate: macrocell skipping must be invisible in the
    /// pixels, visible only in `skipped_samples`.
    #[test]
    fn fast_path_is_bit_identical_and_skips() {
        let v = test_volume(32);
        let cam = Camera::orthographic([32, 32, 32], Vec3::new(0.3, -0.2, 0.93), 48, 48);
        for shading in [None, Some(Shading::default())] {
            for termination in [
                Termination::Off,
                Termination::Bitwise,
                Termination::Bounded { alpha: 0.995 },
            ] {
                let naive = RenderOpts {
                    fast_path: false,
                    shading,
                    termination,
                    ..Default::default()
                };
                let fast = RenderOpts {
                    fast_path: true,
                    ..naive
                };
                let (img0, s0) = render_serial(&v, &cam, &tf(), &naive);
                let (img1, s1) = render_serial(&v, &cam, &tf(), &fast);
                assert_eq!(s0.samples, s1.samples, "sample ladder must not change");
                assert_eq!(s0.skipped_samples, 0);
                assert!(
                    s1.skipped_samples > 0,
                    "supernova TF plateau should cull the far field"
                );
                for (a, b) in img0.pixels().iter().zip(img1.pixels()) {
                    for c in 0..4 {
                        assert_eq!(
                            a[c].to_bits(),
                            b[c].to_bits(),
                            "pixels must be bit-identical"
                        );
                    }
                }
            }
        }
    }

    /// Tight and loose bakes built from one shared set of refined
    /// verdicts must equal bakes that each compute their own, and both
    /// must equal the field's definition: a cell is empty exactly when
    /// every refined cell in its dilated box is.
    #[test]
    fn shared_verdict_bakes_equal_independent_bakes() {
        // Odd, unequal dims: ragged last cells on every axis.
        let f = SupernovaField::new(1530);
        let v = Volume::from_field(&f.variable(2), [37, 30, 33]);
        let vdims = v.dims();
        let g = MacrocellGrid::build(&v);
        let lut = tf().opacity_lut();
        let empty: Vec<bool> = g
            .ranges()
            .iter()
            .map(|&(lo, hi)| lut.range_is_transparent(lo, hi))
            .collect();
        let shared = PacketField::refined_verdicts(&g, &empty, &lut);
        assert!(shared.contains(&true) && shared.contains(&false));
        let rc = g.refined_cells();
        for spread in [[0.12; 3], [0.9, 0.4, 2.55], [2.55, 1.3, 0.12]] {
            let tight = PacketField::build(&shared, vdims, spread);
            let loose = PacketField::build(&shared, vdims, spread.map(|s| s + 1.0));
            for (field, spread) in [(&tight, spread), (&loose, spread.map(|s| s + 1.0))] {
                let own = PacketField::refined_verdicts(&g, &empty, &lut);
                let alone = PacketField::build(&own, vdims, spread);
                assert_eq!(field.empty, alone.empty, "spread {spread:?}");
                assert!(field.empty.contains(&true), "spread {spread:?} erodes all");
                for rz in 0..rc[2] {
                    let (z0, z1) = PacketField::covered(rz, vdims[2], rc[2], spread[2]);
                    for ry in 0..rc[1] {
                        let (y0, y1) = PacketField::covered(ry, vdims[1], rc[1], spread[1]);
                        for rx in 0..rc[0] {
                            let (x0, x1) = PacketField::covered(rx, vdims[0], rc[0], spread[0]);
                            let all = (z0..=z1).all(|z| {
                                (y0..=y1)
                                    .all(|y| (x0..=x1).all(|x| shared[(z * rc[1] + y) * rc[0] + x]))
                            });
                            assert_eq!(
                                field.empty[field.index([rx, ry, rz])],
                                all,
                                "cell ({rx},{ry},{rz}) spread {spread:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sample_count_scales_with_resolution() {
        let f = SupernovaField::new(1).variable(2);
        let v16 = Volume::from_field(&f, [16, 16, 16]);
        let v32 = Volume::from_field(&f, [32, 32, 32]);
        let cam16 = Camera::axis_aligned([16, 16, 16], 32, 32);
        let cam32 = Camera::axis_aligned([32, 32, 32], 32, 32);
        let (_, s16) = render_serial(&v16, &cam16, &tf(), &RenderOpts::default());
        let (_, s32) = render_serial(&v32, &cam32, &tf(), &RenderOpts::default());
        // Twice the depth -> about twice the samples per lit ray.
        let ratio = s32.samples as f64 / s16.samples as f64;
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
    }
}
