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
    /// Never terminate: every owned sample a skip field cannot prove
    /// empty is evaluated.
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
    /// `w = (1 - alpha) * 0.0 = 0.0` in the reference loop, and
    /// `x + 0.0 == x` bitwise for the non-negative accumulators, so the
    /// output is **bit-identical** to the reference loop — only the
    /// perf-decision counters ([`RenderStats::skipped_samples`],
    /// [`RenderStats::packets`], the lane counts) tell them apart.
    ///
    /// This is also the kernel selector: `false` runs the plain per-sample
    /// reference loop, which shares no control flow with the march and is
    /// what the tests compare it against; `true` lets [`render_block`]
    /// run the 8-lane packet march only where a pure rule of block
    /// geometry (DESIGN §17.7) says it repays its macrocell build and skip
    /// bake, and the reference loop, building nothing, elsewhere.
    pub fast_path: bool,
}

impl Default for RenderOpts {
    fn default() -> Self {
        RenderOpts {
            step: 1.0,
            termination: Termination::Bitwise,
            shading: None,
            fast_path: true,
        }
    }
}

impl RenderOpts {
    /// The [`Termination::Off`] preset: the defaults are already
    /// bit-identical to it in pixels and sample counts; this one also
    /// evaluates every sample a saturated ray would have elided.
    pub fn exact() -> Self {
        RenderOpts {
            termination: Termination::Off,
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
    /// proved transparent and skipped (0 in the reference loop).
    pub skipped_samples: u64,
    /// Rays that intersected the block.
    pub rays: u64,
    /// Eight-wide ray packets marched (tiles with at least one
    /// intersecting lane that fit the skip field; 0 in the reference
    /// loop). A tile too divergent for the field is marched one lane at
    /// a time and adds to `rays`, `samples` and `skipped_samples` only —
    /// this and the two lane counters describe eight-wide rounds alone.
    pub packets: u64,
    /// Lanes that evaluated a sample across all eight-wide evaluation
    /// rounds — the numerator of lane utilization.
    pub packet_eval_lanes: u64,
    /// Lane slots (rounds × width) across all eight-wide evaluation
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
/// This function chooses the kernel: with [`RenderOpts::fast_path`] set
/// and the march paying for itself by a pure rule of the block's
/// footprint, shapes and step (DESIGN §17.7), it builds the block's
/// [`MacrocellGrid`] and marches packets; otherwise it runs the
/// reference loop and builds nothing. The kernels are bit-identical.
/// [`render_block_with_grid`] forces a kernel.
pub fn render_block(
    volume: &Volume,
    dom: &BlockDomain,
    camera: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (SubImage, RenderStats) {
    let rect = owned_footprint(dom, camera);
    let macrocells =
        (opts.fast_path && march_pays(rect, dom, opts.step)).then(|| MacrocellGrid::build(volume));
    render_rect(volume, macrocells.as_ref(), dom, camera, tf, opts, rect)
}

/// Whether the packet march repays its preparation on this block, from
/// geometry alone (DESIGN §17.7): the rect's rays, each taking the owned
/// block's shortest axis over the step in samples, less `RAY` samples of
/// tile set-up a ray, must cover `VOXEL` samples a stored voxel for the
/// macrocell build and skip bake plus `BLOCK` a block. Constants fitted
/// to a geometry sweep (max regret 1.12); `render_bench` gates it at 1.25.
fn march_pays(rect: PixelRect, dom: &BlockDomain, step: f64) -> bool {
    const RAY: f64 = 4.0;
    const VOXEL: f64 = 0.25;
    const BLOCK: f64 = 2000.0;
    let chord = dom.owned.shape.into_iter().min().unwrap_or(0) as f64;
    rect.num_pixels() as f64 * (chord / step - RAY)
        >= VOXEL * dom.stored.num_elements() as f64 + BLOCK
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

/// Edge length, in voxels, of the refined lattice the packet kernel
/// leaps over — the [`MacrocellGrid`] refined summary's cell size, so
/// dilating by a couple of voxels of lane spread erodes far less
/// skippable space than dilating whole macrocells would, and each cell
/// gets its own min/max transparency verdict instead of inheriting its
/// parent macrocell's.
const PACKET_CELL: usize = pvr_volume::REFINED_SIZE;

/// The per-render skip field: the [`MacrocellGrid`] refined (2³-voxel)
/// lattice over the same local (voxel-center) coordinates, in which a
/// cell is marked empty only when **every** refined cell reachable from
/// anywhere in the cell dilated by `spread` voxels has a min/max range
/// the transfer function maps to zero opacity. One Amanatides–Woo walk
/// of the *packet centroid* over this field then proves whole runs of
/// samples empty for **all** lanes at once — the emptiness verdict is
/// computed once per packet instead of once per ray, and lanes never
/// need their own run bookkeeping. Skipping is only ever applied to
/// provably-zero-contribution samples, so the march evaluates the
/// reference loop's sample set bitwise.
struct PacketField {
    rc: [usize; 3],
    /// Row-major (x fastest): true = provably empty for any position
    /// within `spread` voxels of this refined cell.
    empty: Vec<bool>,
    /// Baked per-axis dilation radius in voxels; packets whose lanes
    /// stray further than this from their centroid on any axis must not
    /// use the field ([`PacketField::fits`]). Per-axis radii matter: the
    /// lane spread is lateral to the view direction, and dilating the
    /// marching axis by the lateral spread would erode skippable space
    /// for nothing.
    spread: [f64; 3],
}

impl PacketField {
    /// The render's one skip field, or `None` when the transfer function
    /// leaves no macrocell transparent — a block with nothing to skip
    /// marches with zero per-sample skip overhead. A block holding a NaN
    /// voxel has nothing provably skippable either: the ranges ignore
    /// NaNs, and a sample that fetches one blends NaN in the reference
    /// loop.
    ///
    /// The dilation is probed, not assumed: the largest lane spread over
    /// a 4×4 grid of full tiles across the rect, plus a margin. A probe
    /// tile spread wider than `MAX_PROBE_SPREAD` voxels (one straddling
    /// a box silhouette, whose lanes enter through different faces) is
    /// left out — it would erode the field for the interior tiles that
    /// carry the render — and with no well-behaved tile at all (tiny
    /// rect, extreme zoom-out) only the margin is baked: eight-wide
    /// tiles then never fit and every pixel marches alone.
    fn bake(ctx: &KernelCtx, g: &MacrocellGrid, camera: &Camera, rect: PixelRect) -> Option<Self> {
        const MAX_PROBE_SPREAD: f64 = 2.25;
        if g.holds_non_finite() {
            return None;
        }
        let lut = ctx.tf.opacity_lut();
        let empty: Vec<bool> = g
            .ranges()
            .iter()
            .map(|&(lo, hi)| lut.range_is_transparent(lo, hi))
            .collect();
        if !empty.contains(&true) {
            return None;
        }
        let (tw, th) = tile_dims(PACKET_WIDTH);
        let tiles_x = rect.w.div_ceil(tw);
        let tiles_y = rect.h.div_ceil(th);
        let mut top = [0.0f64; 3];
        for iy in 0..4usize {
            for ix in 0..4usize {
                let px0 = rect.x0 + (tiles_x * (2 * ix + 1) / 8).min(tiles_x - 1) * tw;
                let py0 = rect.y0 + (tiles_y * (2 * iy + 1) / 8).min(tiles_y - 1) * th;
                let Some(pk) = Packet::<PACKET_WIDTH>::setup(ctx, camera, rect, px0, py0) else {
                    continue;
                };
                let s = pk.spread;
                if pk.n_act == PACKET_WIDTH as u64 && s[0].max(s[1]).max(s[2]) <= MAX_PROBE_SPREAD {
                    for a in 0..3 {
                        top[a] = top[a].max(s[a]);
                    }
                }
            }
        }
        let rempty = Self::refined_verdicts(g, &empty, lut);
        let spread = top.map(|s| s * 1.08 + 0.12);
        Some(Self::build(&rempty, ctx.volume.dims(), spread))
    }

    /// Whether the baked dilation covers a packet's lane spread.
    fn fits(&self, spread: &[f64; 3]) -> bool {
        spread.iter().zip(&self.spread).all(|(s, f)| s <= f)
    }

    /// Refined cells covering voxel indices `0..n` along one axis.
    fn cells_along(n: usize) -> usize {
        (n.max(1) - 1) / PACKET_CELL + 1
    }

    /// Per-refined-cell emptiness verdicts, computed once per render for
    /// the bake to erode: a 2³ cell is empty when its min/max range
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
    /// centroid at `local`, plus a conservative count of further ladder
    /// steps — at most `limit` — the verdict provably holds for: a
    /// 3D-DDA walk over the refined lattice that crosses whole runs of
    /// same-verdict cells in one bound. `inv_step[a]` is the precomputed
    /// `1 / |dir[a]·dt|` (`inf` on zero axes — such axes contribute no
    /// crossing). The count carries a one-full-step safety margin, so
    /// f64 rounding in this analytic bound (including the
    /// reciprocal-multiplies standing in for divisions) can never
    /// disagree with the exact per-sample positions it stands in for:
    /// the first sample *beyond* the bound is always re-examined.
    /// Boundary cells extend to infinity on their clamped side,
    /// mirroring [`support_voxel`], so the walk never leaves the
    /// lattice. Returns `(empty, steps)`.
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
            if self.empty[self.index(cell)] != target {
                break next[a];
            }
            // An edge cell extends to infinity on its clamped side — no
            // further crossing on this axis.
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
/// not even attempted — a cheap, deterministic pretest identical in the
/// reference loop and the packet march.
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

/// Loop-invariant state shared by the reference loop and the packet
/// march; both perform the identical per-sample computation over it,
/// which is what makes the choice between them invisible in the pixels.
struct KernelCtx<'a> {
    volume: &'a Volume,
    tf: &'a TransferFunction,
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
}

/// [`render_block`] with the kernel forced by the caller: the packet
/// march over a caller-supplied macrocell summary (which must summarize
/// `volume`), or the reference loop with `None` or `opts.fast_path =
/// false`. Tests and benchmarks force a kernel this way, and a caller
/// rendering the same data for several views pays one build. Both frame
/// executors go through [`render_block`], which chooses per block.
///
/// # Panics
/// If `volume` does not have the stored region's dims, or `opts.step`
/// is not a finite positive number (the sample ladder divides by it).
pub fn render_block_with_grid(
    volume: &Volume,
    macrocells: Option<&MacrocellGrid>,
    dom: &BlockDomain,
    camera: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> (SubImage, RenderStats) {
    let rect = owned_footprint(dom, camera);
    render_rect(volume, macrocells, dom, camera, tf, opts, rect)
}

fn owned_footprint(dom: &BlockDomain, camera: &Camera) -> PixelRect {
    footprint(
        camera,
        dom.owned.offset,
        dom.owned.end(),
        camera.image_size(),
    )
}

fn render_rect(
    volume: &Volume,
    macrocells: Option<&MacrocellGrid>,
    dom: &BlockDomain,
    camera: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    rect: PixelRect,
) -> (SubImage, RenderStats) {
    assert_eq!(
        volume.dims(),
        dom.stored.shape,
        "volume dims must match the stored region"
    );
    assert!(
        opts.step.is_finite() && opts.step > 0.0,
        "ray step must be finite and positive, got {}",
        opts.step
    );
    let mut sub = SubImage::transparent(rect, camera.depth(dom.centroid()));
    let mut stats = RenderStats::default();
    if rect.is_empty() {
        return (sub, stats);
    }

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
    };

    // Kernel selection, from what the call can observe: no macrocell
    // summary (or the fast path switched off) is the reference loop;
    // with one it is the lockstep march, leaping through a baked skip
    // field when the transfer function leaves anything transparent and
    // marching every sample, still eight wide, when it does not.
    match macrocells.filter(|_| opts.fast_path) {
        None => march_reference(&ctx, camera, rect, &mut sub, &mut stats),
        Some(g) => {
            let field = PacketField::bake(&ctx, g, camera, rect);
            march_packets(&ctx, field.as_ref(), camera, rect, &mut sub, &mut stats);
        }
    }
    (sub, stats)
}

/// The reference kernel: one ray at a time, every owned sample of the
/// ladder evaluated — no macrocells, no leaps, no lanes. It shares the
/// per-sample arithmetic with the packet march and none of its control
/// flow, which is what makes it the oracle the march is tested against.
fn march_reference(
    ctx: &KernelCtx,
    camera: &Camera,
    rect: PixelRect,
    sub: &mut SubImage,
    stats: &mut RenderStats,
) {
    // The ray direction's reciprocal, recomputed only when the direction
    // changes: once a block under an orthographic camera.
    let (mut dir, mut inv) = (Vec3::ZERO, Vec3::ZERO);
    for py in rect.y0..rect.y1() {
        for px in rect.x0..rect.x1() {
            let ray = camera.ray(px, py);
            if ray.dir != dir {
                (dir, inv) = (ray.dir, ray.dir.recip());
            }
            // Global entry defines the sample ladder shared by all blocks.
            let Some((tg0, tg1)) = ray.intersect_box_inv(inv, Vec3::ZERO, ctx.grid_hi, 0.0) else {
                continue;
            };
            let Some((tb0, tb1)) = ray.intersect_box_inv(inv, ctx.own_lo, ctx.own_hi, tg0) else {
                continue;
            };
            stats.rays += 1;
            // Candidate sample indices overlapping the block interval,
            // padded by one to absorb floating-point edge effects; each
            // candidate is then tested against the owned region, which
            // is the authoritative (and globally consistent) criterion.
            let k_lo = (((tb0 - tg0) / ctx.dt - 0.5).floor() as i64 - 1).max(0);
            let k_hi = ((tb1.min(tg1) - tg0) / ctx.dt - 0.5).ceil() as i64 + 1;

            let mut color = [0.0f32; 3];
            let mut alpha = 0.0f32;
            let mut sat = false;
            for k in k_lo..=k_hi {
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
                stats.samples += 1;
                // A provably-saturated ray keeps marching (ownership
                // accounting stays exact) but skips the evaluation it
                // cannot be changed by.
                if sat {
                    continue;
                }
                // Cell-space position -> voxel-center lattice of the
                // stored volume.
                let local = [
                    (p.x - ctx.st_off[0] as f64 - 0.5) as f32,
                    (p.y - ctx.st_off[1] as f64 - 0.5) as f32,
                    (p.z - ctx.st_off[2] as f64 - 0.5) as f32,
                ];
                let v = ctx.volume.sample_trilinear(local);
                let (mut rgb, a) = if ctx.dt_one {
                    ctx.tf.classify_unit_step(v)
                } else {
                    ctx.tf.classify(v, ctx.dt as f32)
                };
                if let Some((sh, ll)) = &ctx.shading {
                    // Central-difference gradient in cell units.
                    let mut g = [0.0f32; 3];
                    for (axis, ga) in g.iter_mut().enumerate() {
                        let (mut hi, mut lo) = (local, local);
                        hi[axis] += 1.0;
                        lo[axis] -= 1.0;
                        *ga = ctx.volume.sample_trilinear(hi) - ctx.volume.sample_trilinear(lo);
                    }
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
/// front-to-back blending — each lane performing exactly the reference
/// loop's arithmetic in the reference loop's order. Lanes that prove
/// saturated (`Bitwise`) flip `sat`; lanes crossing a `Bounded`
/// threshold flip `done`. One-lane rounds leave the lane-utilization
/// counters alone: those describe how full the eight-wide rounds were.
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
    if W > 1 {
        stats.packet_eval_slots += W as u64;
        stats.packet_eval_lanes += n_eval;
    }
    let vals = ctx.volume.sample_trilinear_packet::<W>(lx, ly, lz, eval);
    let mut grad = [[0.0f32; 3]; W];
    if ctx.shading.is_some() {
        // Central differences, one gathered packet per face: same
        // per-lane fetches as the reference loop, in the same order per
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

/// `ceil(v)` for `|v| < 2^51` in float operations alone (the x86-64
/// baseline has no packed `ceil`): round to nearest through the
/// 1.5·2⁵² magic constant, then step up where that rounded down.
#[inline]
fn ceil_small(v: f64) -> f64 {
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    let r = (v + MAGIC) - MAGIC;
    if r < v {
        r + 1.0
    } else {
        r
    }
}

/// [`first_true`] for every lane at once, seeded with an analytic guess
/// of each lane's flip point: per lane, the first `k` in
/// `[lo, hi_excl)` (ladder indices held exactly as `f64`) for which the
/// monotone predicate `pred(lane, k)` holds, or `hi_excl`. The guess
/// only steers — a monotone predicate has one flip point, whatever finds
/// it. The predicate is evaluated at `g − 1`, `g`, `g + 1` for all
/// lanes in branch-free lane-parallel passes, which settles every lane
/// whose flip is `g` or `g + 1`; a lane whose guess missed is bisected
/// alone, on the side the bracket rules out. Lanes outside `live` are
/// not bisected and their result is meaningless.
#[inline(always)]
fn first_true_lanes<const W: usize>(
    lo: &[f64; W],
    hi_excl: &[f64; W],
    live: &[bool; W],
    guess: &[f64; W],
    pred: impl Fn(usize, f64) -> bool,
) -> [f64; W] {
    let mut g = [0.0f64; W];
    let mut below = [false; W];
    let mut at = [false; W];
    let mut next = [false; W];
    for i in 0..W {
        // Clamp into [lo, hi_excl] before rounding; NaN lands on lo.
        let v = if guess[i] >= lo[i] { guess[i] } else { lo[i] };
        let v = if v <= hi_excl[i] { v } else { hi_excl[i] };
        g[i] = ceil_small(v);
        // "Nothing true before g", "true at g", "true at g + 1", with
        // the range ends standing in for evaluations outside it.
        below[i] = (g[i] - 1.0 < lo[i]) | !pred(i, g[i] - 1.0);
        at[i] = (g[i] >= hi_excl[i]) | pred(i, g[i]);
        next[i] = (g[i] + 1.0 >= hi_excl[i]) | pred(i, g[i] + 1.0);
    }
    let mut out = g;
    for i in 0..W {
        if !live[i] || (below[i] && at[i]) {
            continue;
        }
        let bisect = |a: f64, b: f64| first_true(a as i64, b as i64, |k| pred(i, k as f64)) as f64;
        out[i] = if !below[i] {
            bisect(lo[i], g[i] - 1.0)
        } else if next[i] {
            g[i] + 1.0
        } else {
            bisect(g[i] + 2.0, hi_excl[i])
        };
    }
    out
}

/// Lanes of the lockstep march.
const PACKET_WIDTH: usize = 8;

/// Pixel tile `(width, height)` of a `W`-lane packet: two pixels wide
/// (2×4 at 8 lanes; the lone pixel at one) rather than a scanline run.
/// Tiles beat runs because they shrink the lane-to-centroid spread;
/// *tall* tiles beat wide ones because the along-direction stagger of
/// lanes entering a non-facing box side grows with the tile's extent
/// along the image x axis.
const fn tile_dims(w: usize) -> (usize, usize) {
    let tw = if w < 2 { 1 } else { 2 };
    (tw, w / tw)
}

/// The rays of one pixel tile, set up once for the skip-field probe and
/// for the march: structure-of-arrays ray components (so the per-`k`
/// ladder arithmetic runs as `W`-wide branch-free loops), per-lane
/// candidate ladder ranges, and the tile's geometry against the shared
/// skip field.
struct Packet<const W: usize> {
    /// Lane has a pixel inside the rect whose ray meets the block.
    act: [bool; W],
    n_act: u64,
    ox: [f64; W],
    oy: [f64; W],
    oz: [f64; W],
    dx: [f64; W],
    dy: [f64; W],
    dz: [f64; W],
    tg0: [f64; W],
    tg1: [f64; W],
    /// Per-lane candidate ladder indices (padded; ownership decides).
    klo: [i64; W],
    khi: [i64; W],
    /// Their union over the active lanes.
    k0: i64,
    k1: i64,
    /// Centroid line `ec + dc·u`, `u = (k + 1/2)·dt`: the mean of the
    /// active lanes' `e_i + d_i·u` with `e_i = o_i + d_i·tg0_i`.
    ec: [f64; 3],
    dc: [f64; 3],
    /// Longest global chord among the lanes, in ladder parameter.
    u_max: f64,
    /// Per-axis bound on any lane's distance from the centroid line over
    /// `[k0, k1]` — what the field's dilation must cover.
    spread: [f64; 3],
}

impl<const W: usize> Packet<W> {
    /// The packet of the tile anchored at `(px0, py0)`; lanes are masked
    /// off where the rect ends (ragged edge) or the ray misses. `None`
    /// when no lane is left.
    #[inline]
    fn setup(
        ctx: &KernelCtx,
        camera: &Camera,
        rect: PixelRect,
        px0: usize,
        py0: usize,
    ) -> Option<Self> {
        let (tw, _) = tile_dims(W);
        let mut p = Packet {
            act: [false; W],
            n_act: 0,
            ox: [0.0; W],
            oy: [0.0; W],
            oz: [0.0; W],
            dx: [0.0; W],
            dy: [0.0; W],
            dz: [0.0; W],
            tg0: [0.0; W],
            tg1: [0.0; W],
            klo: [0; W],
            khi: [0; W],
            k0: i64::MAX,
            k1: i64::MIN,
            ec: [0.0; 3],
            dc: [0.0; 3],
            u_max: 0.0,
            spread: [0.0; 3],
        };
        for i in 0..W {
            let px = px0 + i % tw;
            let py = py0 + i / tw;
            if px >= rect.x1() || py >= rect.y1() {
                continue;
            }
            let ray = camera.ray(px, py);
            // Global entry defines the sample ladder shared by all blocks.
            let Some((tg0, tg1)) = ray.intersect_box(Vec3::ZERO, ctx.grid_hi, 0.0) else {
                continue;
            };
            let Some((tb0, tb1)) = ray.intersect_box(ctx.own_lo, ctx.own_hi, tg0) else {
                continue;
            };
            // Candidate sample indices overlapping the block interval,
            // padded by one to absorb floating-point edge effects.
            p.klo[i] = (((tb0 - tg0) / ctx.dt - 0.5).floor() as i64 - 1).max(0);
            p.khi[i] = ((tb1.min(tg1) - tg0) / ctx.dt - 0.5).ceil() as i64 + 1;
            p.ox[i] = ray.origin.x;
            p.oy[i] = ray.origin.y;
            p.oz[i] = ray.origin.z;
            p.dx[i] = ray.dir.x;
            p.dy[i] = ray.dir.y;
            p.dz[i] = ray.dir.z;
            p.tg0[i] = tg0;
            p.tg1[i] = tg1;
            p.act[i] = true;
            p.n_act += 1;
            p.k0 = p.k0.min(p.klo[i]);
            p.k1 = p.k1.max(p.khi[i]);
        }
        if p.n_act == 0 {
            return None;
        }

        let entry = |p: &Self, i: usize| {
            [
                p.ox[i] + p.dx[i] * p.tg0[i],
                p.oy[i] + p.dy[i] * p.tg0[i],
                p.oz[i] + p.dz[i] * p.tg0[i],
            ]
        };
        for i in (0..W).filter(|&i| p.act[i]) {
            let (e, d) = (entry(&p, i), [p.dx[i], p.dy[i], p.dz[i]]);
            for a in 0..3 {
                p.ec[a] += e[a];
                p.dc[a] += d[a];
            }
            p.u_max = p.u_max.max(p.tg1[i] - p.tg0[i]);
        }
        let inv_n = 1.0 / p.n_act as f64;
        for a in 0..3 {
            p.ec[a] *= inv_n;
            p.dc[a] *= inv_n;
        }
        // A lane's offset from the centroid line is affine in `u`, so
        // its maximum over the packet's k-range sits at an endpoint.
        let u_ends = [(p.k0 as f64 + 0.5) * ctx.dt, (p.k1 as f64 + 0.5) * ctx.dt];
        for i in (0..W).filter(|&i| p.act[i]) {
            let (e, d) = (entry(&p, i), [p.dx[i], p.dy[i], p.dz[i]]);
            for u in u_ends {
                for a in 0..3 {
                    let r = (e[a] - p.ec[a]) + (d[a] - p.dc[a]) * u;
                    p.spread[a] = p.spread[a].max(r.abs());
                }
            }
        }
        // Absorb the few ULP by which rounded per-lane positions can
        // exceed the affine bound.
        for s in &mut p.spread {
            *s = *s * (1.0 + 1e-9) + 1e-6;
        }
        Some(p)
    }

    /// Every lane's exact owned ladder interval `[a, b]` (empty when
    /// `a > b`; meaningless for inactive lanes). Every ownership
    /// predicate — the six half-open box tests and the `t < tg1` guard —
    /// is monotone in `k`: the ladder position is re-derived from the ray
    /// equation each round (not accumulated), so it advances strictly
    /// along the ray and each predicate flips at most once. The owned
    /// `k`s therefore form one contiguous interval. Locating its
    /// endpoints over the *same* float expressions the reference loop
    /// evaluates per step keeps the accounting bitwise-exact, lets lit
    /// rounds test ownership with two integer compares, and lets a
    /// provably empty run account a whole lane overlap in O(1). The seven
    /// searches run lane-parallel ([`first_true_lanes`]), each seeded
    /// with the first integer `k` past the real-arithmetic crossing —
    /// ±1–2 of the float flip point, which the bracket absorbs.
    fn owned_ranges(&self, ctx: &KernelCtx) -> ([i64; W], [i64; W]) {
        let lo = self.klo.map(|k| k as f64);
        let hi = self.khi.map(|k| (k + 1) as f64);
        // `k` is an exact integer in f64, so this is the reference
        // loop's `tg0 + (k as f64 + 0.5) * dt` bit for bit.
        let t_of = |i: usize, k: f64| self.tg0[i] + (k + 0.5) * ctx.dt;
        let guess = std::array::from_fn(|i| (self.tg1[i] - self.tg0[i]) * ctx.inv_dt - 0.5);
        let exit = first_true_lanes(&lo, &hi, &self.act, &guess, |i, k| {
            t_of(i, k) >= self.tg1[i]
        });
        let mut a = lo;
        let mut b: [f64; W] = std::array::from_fn(|i| (hi[i] - 1.0).min(exit[i] - 1.0));
        let axes = [
            (&self.ox, &self.dx, ctx.own_lo.x, ctx.own_hi.x),
            (&self.oy, &self.dy, ctx.own_lo.y, ctx.own_hi.y),
            (&self.oz, &self.dz, ctx.own_lo.z, ctx.own_hi.z),
        ];
        for (o, d, blo, bhi) in axes {
            let moving: [bool; W] = std::array::from_fn(|i| self.act[i] && d[i] != 0.0);
            // A lane enters through the plane it faces and leaves
            // through the other; "past a plane" is `>=` moving up, `<`
            // moving down.
            let planes = |i: usize| if d[i] > 0.0 { (blo, bhi) } else { (bhi, blo) };
            let past = |i: usize, k: f64, x: f64| {
                let p = o[i] + d[i] * t_of(i, k);
                if d[i] > 0.0 {
                    p >= x
                } else {
                    p < x
                }
            };
            let kc = |i: usize, x: f64| ((x - o[i]) / d[i] - self.tg0[i]) * ctx.inv_dt - 0.5;
            let guess = std::array::from_fn(|i| kc(i, planes(i).0));
            let enter = first_true_lanes(&lo, &hi, &moving, &guess, |i, k| past(i, k, planes(i).0));
            let guess = std::array::from_fn(|i| kc(i, planes(i).1));
            let leave = first_true_lanes(&lo, &hi, &moving, &guess, |i, k| past(i, k, planes(i).1));
            for i in 0..W {
                if moving[i] {
                    a[i] = a[i].max(enter[i]);
                    b[i] = b[i].min(leave[i] - 1.0);
                } else {
                    // Constant coordinate: the lane owns nothing unless
                    // it sits inside `[blo, bhi)` (NaN counts as outside).
                    let x = o[i] + d[i] * t_of(i, lo[i]);
                    if !(x >= blo && x < bhi) {
                        b[i] = f64::NEG_INFINITY;
                    }
                }
            }
        }
        (a.map(|k| k as i64), b.map(|k| k as i64))
    }
}

/// The packet kernel: the rect cut into 2×4 tiles, each marched eight
/// lanes wide. A tile whose lanes stray further from their centroid than
/// the skip field was dilated for (box silhouettes, extreme zoom-out,
/// strongly divergent perspective) is marched pixel by pixel by the same
/// [`march_tile`] at one lane, against the same field — a lone lane *is*
/// its centroid, so it always fits. Only eight-wide tiles count as
/// [`RenderStats::packets`].
fn march_packets(
    ctx: &KernelCtx,
    field: Option<&PacketField>,
    camera: &Camera,
    rect: PixelRect,
    sub: &mut SubImage,
    stats: &mut RenderStats,
) {
    let (tw, th) = tile_dims(PACKET_WIDTH);
    for py0 in (rect.y0..rect.y1()).step_by(th) {
        for px0 in (rect.x0..rect.x1()).step_by(tw) {
            let Some(pk) = Packet::<PACKET_WIDTH>::setup(ctx, camera, rect, px0, py0) else {
                continue;
            };
            if field.is_none_or(|f| f.fits(&pk.spread)) {
                stats.packets += 1;
                march_tile(ctx, field, &pk, rect, (px0, py0), sub, stats);
                continue;
            }
            for py in py0..(py0 + th).min(rect.y1()) {
                for px in px0..(px0 + tw).min(rect.x1()) {
                    if let Some(one) = Packet::<1>::setup(ctx, camera, rect, px, py) {
                        march_tile(ctx, field, &one, rect, (px, py), sub, stats);
                    }
                }
            }
        }
    }
}

/// The lockstep march of one tile over the shared ladder index.
///
/// One Amanatides–Woo walk of the packet centroid over the dilated skip
/// field yields a shared verdict run. An empty run proves every lane's
/// samples in it transparent, so the whole run is accounted per lane in
/// one move; a lit run (every run, without a field) is straight-line
/// lane-parallel rounds: ownership mask, ladder position, gathered
/// fetch, blend. Either way there is exactly one verdict per packet per
/// run.
///
/// Every per-lane float expression matches the reference loop exactly —
/// same operations, same order — so owned lanes accumulate bitwise
/// identically to it (skipped samples are provably exact-zero
/// contributions, i.e. bitwise no-ops, for both).
#[allow(clippy::too_many_arguments)]
fn march_tile<const W: usize>(
    ctx: &KernelCtx,
    field: Option<&PacketField>,
    pk: &Packet<W>,
    rect: PixelRect,
    (px0, py0): (usize, usize),
    sub: &mut SubImage,
    stats: &mut RenderStats,
) {
    debug_assert!(field.is_none_or(|f| f.fits(&pk.spread)));
    stats.rays += pk.n_act;
    let st = ctx.st_off.map(|o| o as f64);
    let (koa, kob) = pk.owned_ranges(ctx);
    let mut done = pk.act.map(|a| !a);
    let mut sat = [false; W];
    let mut colr = [0.0f32; W];
    let mut colg = [0.0f32; W];
    let mut colb = [0.0f32; W];
    let mut alpha = [0.0f32; W];
    let dir = Vec3::new(pk.dc[0], pk.dc[1], pk.dc[2]);
    let inv_step = pk.dc.map(|d| (d * ctx.dt).abs().recip());

    let mut k = pk.k0;
    let mut run_until = k;
    let mut run_lit = true;
    loop {
        // Retire the lanes whose candidate range is behind the march.
        for (d, &khi) in done.iter_mut().zip(&pk.khi) {
            *d |= k > khi;
        }
        if done.iter().all(|&d| d) {
            break;
        }
        if k >= run_until {
            match field {
                Some(f) => {
                    let u = (k as f64 + 0.5) * ctx.dt;
                    let lc = [
                        pk.ec[0] + pk.dc[0] * u - st[0] - 0.5,
                        pk.ec[1] + pk.dc[1] * u - st[1] - 0.5,
                        pk.ec[2] + pk.dc[2] * u - st[2] - 0.5,
                    ];
                    let limit = (pk.u_max - u) * ctx.inv_dt;
                    let (is_empty, steps) = f.leap(lc, dir, inv_step, limit);
                    run_lit = !is_empty;
                    run_until = (k + 1).saturating_add(steps);
                }
                None => run_until = i64::MAX,
            }
        }
        let end = run_until.min(pk.k1 + 1);

        if !run_lit {
            // Every owned sample in `[k, end)` is provably a bitwise
            // no-op for every live lane — no fetch, no classify, one
            // interval count per lane.
            for i in 0..W {
                let lo = koa[i].max(k);
                let hi = kob[i].min(end - 1);
                if done[i] || lo > hi {
                    continue;
                }
                let mut n = (hi - lo + 1) as u64;
                if let Termination::Bounded { alpha: th } = ctx.term {
                    // Mirror the reference loop's gate, which would
                    // count the terminating sample, then stop.
                    if alpha[i] >= th {
                        n = 1;
                        record_bounded_termination(alpha[i], &ctx.caps, stats);
                        done[i] = true;
                    }
                }
                stats.samples += n;
                stats.skipped_samples += n;
            }
            k = end;
            continue;
        }
        while k < end {
            // Masks first — all integer compares — so rounds with
            // nothing to evaluate cost no ladder arithmetic.
            let mut eval = [false; W];
            let mut n_own = 0u64;
            let mut any = false;
            for i in 0..W {
                let own = !done[i] & (k >= koa[i]) & (k <= kob[i]);
                n_own += own as u64;
                eval[i] = own & !sat[i];
                any |= eval[i];
            }
            stats.samples += n_own;
            if any {
                let kf = k as f64 + 0.5;
                let mut lx = [0.0f32; W];
                let mut ly = [0.0f32; W];
                let mut lz = [0.0f32; W];
                for i in 0..W {
                    let t = pk.tg0[i] + kf * ctx.dt;
                    lx[i] = (pk.ox[i] + pk.dx[i] * t - st[0] - 0.5) as f32;
                    ly[i] = (pk.oy[i] + pk.dy[i] * t - st[1] - 0.5) as f32;
                    lz[i] = (pk.oz[i] + pk.dz[i] * t - st[2] - 0.5) as f32;
                }
                eval_lanes::<W>(
                    ctx, &lx, &ly, &lz, &eval, &mut colr, &mut colg, &mut colb, &mut alpha,
                    &mut sat, &mut done, stats,
                );
            }
            k += 1;
        }
    }

    // Write-out, identical to the reference loop's.
    let (tw, _) = tile_dims(W);
    for i in 0..W {
        if pk.act[i] && alpha[i] > 0.0 {
            let idx = (py0 + i / tw - rect.y0) * rect.w + (px0 + i % tw - rect.x0);
            sub.pixels[idx] = [colr[i], colg[i], colb[i], alpha[i]];
        }
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

    fn assert_bits_eq(a: &crate::image::Image, b: &crate::image::Image, tag: &str) {
        for (p, q) in a.pixels().iter().zip(b.pixels()) {
            assert_eq!(
                p.map(f32::to_bits),
                q.map(f32::to_bits),
                "{tag}: pixel bits"
            );
        }
    }

    /// The counters every kernel must agree on (the perf-decision ones —
    /// skips, packets, lane counts — are free to differ).
    fn assert_same_ladder(a: &RenderStats, b: &RenderStats, tag: &str) {
        assert_eq!(a.samples, b.samples, "{tag}: samples");
        assert_eq!(a.rays, b.rays, "{tag}: rays");
        assert_eq!(a.terminated_rays, b.terminated_rays, "{tag}: terminated");
        assert_eq!(
            a.error_bound.to_bits(),
            b.error_bound.to_bits(),
            "{tag}: error bound"
        );
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
    /// `Termination::Off` bit for bit, in both the reference loop and
    /// the packet march, while the saturated rays stop paying for
    /// evaluation.
    #[test]
    fn bitwise_termination_is_invisible_and_fires() {
        let v = test_volume(32);
        let cam = Camera::axis_aligned([32, 32, 32], 40, 40);
        for (tfn, must_fire) in [(tf(), false), (opaque_tf(), true)] {
            for fast_path in [false, true] {
                let off = RenderOpts {
                    termination: Termination::Off,
                    fast_path,
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
                        "fast_path {fast_path}: near-opaque rays should saturate"
                    );
                    // Saturation shows up as evaluation work saved on
                    // the packet path.
                    if fast_path {
                        assert!(s1.packet_eval_lanes < s0.packet_eval_lanes);
                    }
                }
                assert_eq!(s1.error_bound, 0.0, "bitwise mode is lossless");
                assert_bits_eq(&img0, &img1, &format!("fast_path {fast_path}"));
            }
        }
    }

    /// The packet march is a pure performance decision: it produces the
    /// reference loop's pixels and (samples, rays, terminated_rays,
    /// error_bound) stats bit for bit, across transfer functions,
    /// shading and termination modes. It only ever skips
    /// provably-exact-zero contributions, so the evaluated results stay
    /// bitwise equal.
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
                    let reference = RenderOpts {
                        fast_path: false,
                        shading,
                        termination: term,
                        ..Default::default()
                    };
                    let packet = RenderOpts {
                        fast_path: true,
                        ..reference
                    };
                    let (img0, s0) = render_serial(&v, &cam, &tfn, &reference);
                    let (img1, s1) = render_serial(&v, &cam, &tfn, &packet);
                    let tag = format!("term {term:?}");
                    assert_same_ladder(&s0, &s1, &tag);
                    assert_eq!(s0.packets, 0);
                    assert!(s1.packets > 0, "{tag}: packet kernel did not run");
                    assert!(
                        s1.lane_utilization().unwrap_or(0.0) > 0.2,
                        "{tag}: implausibly low lane utilization"
                    );
                    assert_bits_eq(&img0, &img1, &tag);
                }
            }
        }
    }

    /// Tiles too divergent for the baked dilation are marched by the
    /// same tile function one lane at a time, against the same field:
    /// still skipping, still bit-identical to the reference loop. Four
    /// voxels between neighbouring rays (the `io-record` shape) leaves
    /// at most the odd 2×4 tile inside the probe limit, orthographic or
    /// perspective.
    #[test]
    fn divergent_tiles_march_one_lane_and_still_skip() {
        let n = 128;
        let v = test_volume(n);
        let grid = MacrocellGrid::build(&v);
        let dom = BlockDomain::whole([n; 3]);
        let cams = [
            Camera::orthographic([n; 3], Vec3::new(0.25, -0.2, -0.95), 32, 32),
            Camera::perspective([n; 3], Vec3::new(40.0, 90.0, 420.0), 24.0, 32, 32),
        ];
        for (c, cam) in cams.iter().enumerate() {
            for term in [
                Termination::Off,
                Termination::Bitwise,
                Termination::Bounded { alpha: 0.4 },
            ] {
                let packet = RenderOpts {
                    termination: term,
                    ..Default::default()
                };
                let reference = RenderOpts {
                    fast_path: false,
                    ..packet
                };
                let (sub0, s0) = render_block_with_grid(&v, None, &dom, cam, &tf(), &reference);
                let (sub1, s1) = render_block_with_grid(&v, Some(&grid), &dom, cam, &tf(), &packet);
                let tag = format!("camera {c}, term {term:?}");
                assert!(s1.rays > 100, "{tag}: {} rays", s1.rays);
                assert!(s1.packets <= 1, "{tag}: {} eight-wide tiles", s1.packets);
                assert!(s1.skipped_samples > 0, "{tag}: one-lane tiles must skip");
                assert_same_ladder(&s0, &s1, &tag);
                assert_eq!(sub0.rect, sub1.rect);
                for (a, b) in sub0.pixels.iter().zip(&sub1.pixels) {
                    assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits), "{tag}");
                }
            }
        }
    }

    /// A NaN voxel next to the transparent plateau: the reference loop
    /// fetches and blends the NaN, so the march may not skip it. The
    /// macrocell ranges ignore NaNs; before the skip proof asked
    /// [`MacrocellGrid::holds_non_finite`], the march skipped such cells
    /// and wrote pixels the reference loop leaves transparent.
    #[test]
    fn nan_voxels_render_like_the_reference_loop() {
        let mut v = test_volume(32);
        for (i, x) in v.data_mut().iter_mut().enumerate() {
            if i % 997 == 0 {
                *x = f32::NAN;
            }
        }
        let cam = Camera::orthographic([32, 32, 32], Vec3::new(0.3, -0.2, 0.93), 48, 48);
        for termination in [Termination::Off, Termination::Bitwise] {
            let packet = RenderOpts {
                termination,
                ..Default::default()
            };
            let reference = RenderOpts {
                fast_path: false,
                ..packet
            };
            let (img0, s0) = render_serial(&v, &cam, &tf(), &reference);
            let (img1, s1) = render_serial(&v, &cam, &tf(), &packet);
            let tag = format!("term {termination:?}");
            assert!(s1.packets > 0, "{tag}: packet kernel did not run");
            assert_same_ladder(&s0, &s1, &tag);
            assert_bits_eq(&img0, &img1, &tag);
        }
    }

    /// `fast_path: false` selects the reference loop whatever else the
    /// caller hands over.
    #[test]
    fn fast_path_false_is_the_reference_even_with_a_grid() {
        let v = test_volume(32);
        let grid = MacrocellGrid::build(&v);
        let dom = BlockDomain::whole([32; 3]);
        let cam = Camera::axis_aligned([32, 32, 32], 40, 40);
        let opts = RenderOpts {
            fast_path: false,
            ..Default::default()
        };
        let (_, s) = render_block_with_grid(&v, Some(&grid), &dom, &cam, &tf(), &opts);
        assert!(s.samples > 0);
        assert_eq!((s.packets, s.skipped_samples), (0, 0));
        assert_eq!(s.lane_utilization(), None);
    }

    fn render_with_step(step: f64) {
        let v = test_volume(8);
        let cam = Camera::axis_aligned([8, 8, 8], 8, 8);
        let opts = RenderOpts {
            step,
            ..Default::default()
        };
        render_serial(&v, &cam, &tf(), &opts);
    }

    #[test]
    #[should_panic(expected = "ray step must be finite and positive, got 0")]
    fn zero_step_is_rejected() {
        render_with_step(0.0);
    }

    #[test]
    #[should_panic(expected = "ray step must be finite and positive, got -1")]
    fn negative_step_is_rejected() {
        render_with_step(-1.0);
    }

    #[test]
    #[should_panic(expected = "ray step must be finite and positive, got NaN")]
    fn nan_step_is_rejected() {
        render_with_step(f64::NAN);
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
                assert_bits_eq(&img0, &img1, "fast path");
            }
        }
    }

    /// Bakes at two dilations built from one shared set of refined
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
        let tf = tf();
        let lut = tf.opacity_lut();
        let empty: Vec<bool> = g
            .ranges()
            .iter()
            .map(|&(lo, hi)| lut.range_is_transparent(lo, hi))
            .collect();
        let shared = PacketField::refined_verdicts(&g, &empty, lut);
        assert!(shared.contains(&true) && shared.contains(&false));
        let rc = g.refined_cells();
        for spread in [[0.12; 3], [0.9, 0.4, 2.55], [2.55, 1.3, 0.12]] {
            let tight = PacketField::build(&shared, vdims, spread);
            let loose = PacketField::build(&shared, vdims, spread.map(|s| s + 1.0));
            for (field, spread) in [(&tight, spread), (&loose, spread.map(|s| s + 1.0))] {
                let own = PacketField::refined_verdicts(&g, &empty, lut);
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

    /// The kernel rule's traffic (DESIGN §17.7), pinned per workload
    /// geometry: grid, ranks, image, step; the frames' orthographic
    /// default view and one-cell ghost. Small blocks with few samples a
    /// ray (`io-record`, `sim-2048`, the 8-rank golden profile) get the
    /// reference loop; the render workloads and figures keep the march.
    #[test]
    fn kernel_rule_traffic_per_workload() {
        let view = Vec3::new(0.25, -0.2, -0.95);
        for (name, n, ranks, image, step, march) in [
            ("io-record", 128, 8, 32, 4.0, false),
            ("sim-2048", 64, 2048, 128, 1.0, false),
            ("golden profile", 16, 8, 24, 1.0, false),
            ("render-sparse/dense", 96, 8, 320, 1.0, true),
            ("anim-slowstore", 64, 8, 256, 1.0, true),
            ("fig1_render", 160, 64, 512, 1.0, true),
            ("fig5_overall, render_bench frame", 64, 8, 192, 1.0, true),
        ] {
            let decomp = BlockDecomposition::new([n; 3], ranks);
            let cam = Camera::orthographic([n; 3], view, image, image);
            for b in decomp.blocks() {
                let dom = BlockDomain {
                    grid: [n; 3],
                    owned: b.sub,
                    stored: decomp.with_ghost(&b, 1),
                };
                let rect = owned_footprint(&dom, &cam);
                assert_eq!(march_pays(rect, &dom, step), march, "{name}: {:?}", b.sub);
            }
        }
    }

    /// `render_block` runs what the rule picks, and nothing is built for
    /// the reference loop: no packets on a block the rule sends there.
    #[test]
    fn render_block_runs_the_rules_pick() {
        let v = test_volume(32);
        for (image, march) in [(6, false), (48, true)] {
            let cam = Camera::orthographic([32; 3], Vec3::new(0.3, -0.2, 0.93), image, image);
            let dom = BlockDomain::whole([32; 3]);
            assert_eq!(march_pays(owned_footprint(&dom, &cam), &dom, 1.0), march);
            let (_, s) = render_block(&v, &dom, &cam, &tf(), &RenderOpts::default());
            assert_eq!(s.packets > 0, march, "{image}^2 image");
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
