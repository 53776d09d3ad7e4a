//! RGBA transfer functions: classify scalar samples into color and
//! opacity.
//!
//! Opacity in the table is defined per unit of ray length (one grid
//! cell); [`TransferFunction::classify`] applies the standard opacity
//! correction `α' = 1 - (1-α)^Δt` so images are step-size independent
//! to first order.

/// Entries in a transfer function's table.
const TABLE_LEN: usize = 256;

/// One interpolation bin of the table: entry `i` and the step to entry
/// `i + 1`, so a lookup is one row fetch and one `a + d·f` per channel.
/// A row is 32 bytes aligned to 32: one fetch never straddles a cache
/// line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
struct Bin {
    a: [f32; 4],
    /// `entry[i + 1] - entry[i]`, the single f32 subtraction
    /// [`TransferFunction::lookup`] performs, so `a + d·f` is its
    /// `a + (b - a)·f` bit for bit.
    d: [f32; 4],
}

/// A lookup-table transfer function over a scalar domain.
#[derive(Debug, Clone)]
pub struct TransferFunction {
    domain: (f32, f32),
    /// RGBA entries; alpha is opacity per unit length.
    table: Vec<[f32; 4]>,
    /// The table's `TABLE_LEN - 1` interpolation bins for the packet
    /// classify, padded to `TABLE_LEN` rows so a `u8` bin index needs no
    /// bounds check (8 KB).
    bins: Box<[Bin; TABLE_LEN]>,
    /// The table's opacity bins, derived once here rather than once per
    /// rendered block.
    lut: OpacityLut,
    /// The table's largest alpha and largest color-channel magnitude,
    /// likewise derived once (see [`TransferFunction::max_table_alpha`]).
    max_alpha: f32,
    max_rgb: f32,
}

impl TransferFunction {
    /// Build from explicit control points `(value01, rgba)` given at
    /// positions in `[0,1]` of the domain; the 256-entry table is
    /// filled by linear interpolation.
    pub fn from_points(domain: (f32, f32), points: &[(f32, [f32; 4])]) -> Self {
        assert!(domain.1 > domain.0, "empty transfer domain");
        assert!(points.len() >= 2, "need at least two control points");
        let mut pts = points.to_vec();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = TABLE_LEN;
        let mut table = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f32 / (n - 1) as f32;
            // Find surrounding control points.
            let hi = pts.partition_point(|p| p.0 < t).min(pts.len() - 1);
            let lo = hi.saturating_sub(1);
            let (t0, c0) = pts[lo];
            let (t1, c1) = pts[hi];
            let f = if t1 > t0 {
                ((t - t0) / (t1 - t0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            table.push([
                c0[0] + (c1[0] - c0[0]) * f,
                c0[1] + (c1[1] - c0[1]) * f,
                c0[2] + (c1[2] - c0[2]) * f,
                c0[3] + (c1[3] - c0[3]) * f,
            ]);
        }
        let mut bins = Box::new([Bin::default(); TABLE_LEN]);
        for (bin, e) in bins.iter_mut().zip(table.windows(2)) {
            let (a, b) = (e[0], e[1]);
            *bin = Bin {
                a,
                d: [b[0] - a[0], b[1] - a[1], b[2] - a[2], b[3] - a[3]],
            };
        }
        let lut = OpacityLut::of(domain, &table);
        debug_assert!(
            table.iter().flatten().all(|c| !c.is_nan()),
            "NaN table entries would silently escape the max-fold bounds"
        );
        let max_alpha = table.iter().fold(0.0f32, |m, c| m.max(c[3]));
        let max_rgb = table.iter().fold(0.0f32, |m, c| {
            m.max(c[0].abs()).max(c[1].abs()).max(c[2].abs())
        });
        TransferFunction {
            domain,
            table,
            bins,
            lut,
            max_alpha,
            max_rgb,
        }
    }

    /// A gray ramp with linearly increasing opacity — the simplest
    /// useful function, handy in tests.
    pub fn grayscale(domain: (f32, f32)) -> Self {
        Self::from_points(
            domain,
            &[(0.0, [0.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 1.0, 1.0, 0.6])],
        )
    }

    /// A diverging blue–white–red map for signed velocity fields, with
    /// opacity concentrated at the extremes — in the spirit of the
    /// paper's Figure 1 rendering of the X velocity component.
    ///
    /// The near-zero band is an *exactly* zero-opacity plateau (both
    /// plateau control points have `a = 0`, and `0 + (0-0)*f == 0.0`
    /// bitwise), so the quiescent far field outside the accretion shock
    /// is provably transparent — the property macrocell empty-space
    /// skipping exploits.
    pub fn supernova_velocity() -> Self {
        Self::from_points(
            (-1.0, 1.0),
            &[
                (0.00, [0.05, 0.15, 0.80, 0.60]),
                (0.25, [0.20, 0.45, 0.90, 0.03]),
                (0.35, [1.00, 1.00, 1.00, 0.0]),
                (0.65, [1.00, 1.00, 1.00, 0.0]),
                (0.75, [0.95, 0.55, 0.15, 0.03]),
                (1.00, [0.85, 0.08, 0.05, 0.60]),
            ],
        )
    }

    /// An emissive map for density-like `[0,1]` fields.
    pub fn hot_density() -> Self {
        Self::from_points(
            (0.0, 1.0),
            &[
                (0.00, [0.00, 0.00, 0.00, 0.00]),
                (0.30, [0.25, 0.02, 0.30, 0.02]),
                (0.60, [0.90, 0.35, 0.05, 0.15]),
                (0.85, [1.00, 0.80, 0.20, 0.45]),
                (1.00, [1.00, 1.00, 0.90, 0.70]),
            ],
        )
    }

    /// Raw table lookup (linear interpolation, clamped domain); alpha is
    /// per unit length.
    pub fn lookup(&self, value: f32) -> [f32; 4] {
        let (lo, hi) = self.domain;
        let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
        let x = t * (self.table.len() - 1) as f32;
        let i = (x as usize).min(self.table.len() - 2);
        let f = x - i as f32;
        let a = self.table[i];
        let b = self.table[i + 1];
        [
            a[0] + (b[0] - a[0]) * f,
            a[1] + (b[1] - a[1]) * f,
            a[2] + (b[2] - a[2]) * f,
            a[3] + (b[3] - a[3]) * f,
        ]
    }

    /// Classify a sample for a ray step of `dt` cells: returns
    /// `(rgb, alpha_step)` with opacity corrected for step length.
    #[inline]
    pub fn classify(&self, value: f32, dt: f32) -> ([f32; 3], f32) {
        let c = self.lookup(value);
        let alpha = 1.0 - (1.0 - c[3].clamp(0.0, 0.999_999)).powf(dt);
        ([c[0], c[1], c[2]], alpha)
    }

    /// [`TransferFunction::classify`] specialized to a unit ray step.
    /// For correctly-rounded `powf` (IEEE 754 requires
    /// `powf(y, 1.0) == y` bitwise), the opacity correction
    /// `1 - (1-α)^1` collapses to the same two subtractions performed in
    /// the same order — bit-identical output with no libm call. The
    /// render kernels dispatch here whenever `dt == 1.0`; the
    /// `unit_step_classify_matches_powf` test pins the identity on the
    /// build platform.
    #[inline]
    pub fn classify_unit_step(&self, value: f32) -> ([f32; 3], f32) {
        let c = self.lookup(value);
        let alpha = 1.0 - (1.0 - c[3].clamp(0.0, 0.999_999));
        ([c[0], c[1], c[2]], alpha)
    }

    /// Packet variant of [`TransferFunction::classify_unit_step`]:
    /// classifies `W` samples at once, returning transposed
    /// `(r, g, b, alpha)` lane arrays. Each lane is **bit-identical**
    /// to the scalar call — the coordinate math and the unit-step
    /// opacity collapse are the same expressions in the same order, and
    /// the interpolation reads `(a, b - a)` from the precomputed bin row
    /// instead of subtracting two entries per sample, which rounds the
    /// same. The bin index is `x as u8` (`x` is in `[0, 255]` or NaN,
    /// where that agrees with `lookup`'s `as usize`), so the one row
    /// fetch per lane into the 256-row table needs no bounds check and
    /// the interpolation vectorizes.
    #[inline]
    pub fn classify_unit_step_packet<const W: usize>(
        &self,
        vals: &[f32; W],
    ) -> ([f32; W], [f32; W], [f32; W], [f32; W]) {
        let (lo, hi) = self.domain;
        let n1 = (TABLE_LEN - 1) as f32;
        let cap = (TABLE_LEN - 2) as u8;
        let mut idx = [0u8; W];
        let mut fr = [0.0f32; W];
        for i in 0..W {
            let t = ((vals[i] - lo) / (hi - lo)).clamp(0.0, 1.0);
            let x = t * n1;
            let ii = (x as u8).min(cap);
            idx[i] = ii;
            fr[i] = x - ii as f32;
        }
        let mut a = [[0.0f32; W]; 4];
        let mut d = [[0.0f32; W]; 4];
        for i in 0..W {
            let bin = &self.bins[idx[i] as usize];
            for c in 0..4 {
                a[c][i] = bin.a[c];
                d[c][i] = bin.d[c];
            }
        }
        let mut r = [0.0f32; W];
        let mut g = [0.0f32; W];
        let mut bl = [0.0f32; W];
        let mut al = [0.0f32; W];
        for i in 0..W {
            r[i] = a[0][i] + d[0][i] * fr[i];
            g[i] = a[1][i] + d[1][i] * fr[i];
            bl[i] = a[2][i] + d[2][i] * fr[i];
            let c3 = a[3][i] + d[3][i] * fr[i];
            al[i] = 1.0 - (1.0 - c3.clamp(0.0, 0.999_999));
        }
        (r, g, bl, al)
    }

    pub fn domain(&self) -> (f32, f32) {
        self.domain
    }

    /// Largest per-unit-length alpha any [`TransferFunction::lookup`]
    /// can return: interpolation stays between its two entries, so the
    /// table maximum bounds every sample. With `classify`'s clamp and
    /// step correction applied (both monotone under rounding), this
    /// yields the per-sample alpha cap the bitwise termination gate
    /// saturates against.
    pub fn max_table_alpha(&self) -> f32 {
        self.max_alpha
    }

    /// Largest color-channel magnitude any lookup can return (same
    /// interpolation argument as [`TransferFunction::max_table_alpha`]).
    pub fn max_table_rgb(&self) -> f32 {
        self.max_rgb
    }

    /// The opacity lookup table for conservative empty-space skipping:
    /// per-unit-length alpha of each table entry, queryable by value
    /// range.
    pub fn opacity_lut(&self) -> &OpacityLut {
        &self.lut
    }
}

/// Value-range → max-alpha bins derived from a [`TransferFunction`].
///
/// [`OpacityLut::max_alpha`] bounds, conservatively, the per-unit-length
/// alpha that [`TransferFunction::lookup`] can return for any value in a
/// range: `lookup` linearly interpolates two adjacent table entries, so
/// its result never exceeds the maximum entry alpha over the (index-
/// rounded-outward) bin range. In particular a bound of exactly `0.0`
/// proves every sample in the range classifies to alpha exactly `0.0`
/// (`1 - (1-0)^dt == 0` bitwise), which is what makes macrocell skipping
/// bit-identical rather than approximate.
#[derive(Debug, Clone)]
pub struct OpacityLut {
    alphas: Vec<f32>,
    /// Value → table coordinate is `(v - d0) * scale`, with `d0` the
    /// low end of the domain and `scale = (n - 1) / (d1 - d0)`.
    d0: f32,
    scale: f32,
    /// `opaque_before[i]` counts the entries of `alphas[..i]` that are
    /// `> 0.0` — exactly the entries that lift a `max`-fold from `0.0`
    /// off zero — so a bin range is transparent when the count does not
    /// move across it.
    opaque_before: Vec<u32>,
}

impl OpacityLut {
    /// The bins of a transfer function's `table` over `domain`.
    ///
    /// Exact-`0.0` bins are **load-bearing**: the bitwise skip proof
    /// (and with it the fast path's pixel identity) rests on
    /// `range_is_transparent` returning true only when every lookup in
    /// the range yields alpha exactly `0.0`, which in turn requires the
    /// transparent plateau's table entries to be exactly `0.0` — a value
    /// of `1e-9` would still look transparent but would break
    /// `x + (1-α)·a == x` and silently turn "bit-identical" into
    /// "approximately equal". Transfer functions meant to benefit from
    /// skipping (e.g. [`TransferFunction::supernova_velocity`]) must
    /// build their plateaus from exactly-zero control points. The
    /// debug_assert below catches the one construction bug this type can
    /// detect itself: NaN entries, which the `max`-fold in
    /// [`OpacityLut::max_alpha`] would silently drop, making the
    /// "conservative" bound unsound.
    fn of((d0, d1): (f32, f32), table: &[[f32; 4]]) -> OpacityLut {
        debug_assert!(
            table.iter().all(|c| !c[3].is_nan()),
            "NaN alpha entries make the opacity LUT's range bound unsound"
        );
        let alphas: Vec<f32> = table.iter().map(|c| c[3]).collect();
        let mut opaque_before = vec![0u32; alphas.len() + 1];
        for (i, &a) in alphas.iter().enumerate() {
            opaque_before[i + 1] = opaque_before[i] + (a > 0.0) as u32;
        }
        OpacityLut {
            d0,
            scale: (alphas.len() - 1) as f32 / (d1 - d0),
            alphas,
            opaque_before,
        }
    }

    /// Inclusive table-entry range any value in `[lo, hi]` (given in
    /// either order) can interpolate from.
    #[inline]
    fn bins(&self, lo: f32, hi: f32) -> (usize, usize) {
        let d0 = self.d0;
        let n = self.alphas.len();
        // Same index mapping as `lookup`, rounded outward: a value `v`
        // interpolates entries `i` and `i+1` with `i = floor(x)`
        // clamped to `n-2`, so the range touches entries
        // `floor(x_lo) ..= floor(x_hi) + 1`.
        let x_lo = ((lo.min(hi) - d0) * self.scale).clamp(0.0, (n - 1) as f32);
        let x_hi = ((lo.max(hi) - d0) * self.scale).clamp(0.0, (n - 1) as f32);
        ((x_lo as usize).min(n - 2), ((x_hi as usize) + 1).min(n - 1))
    }

    /// Upper bound on `lookup(v)[3]` over all `v` in `[lo, hi]`.
    pub fn max_alpha(&self, lo: f32, hi: f32) -> f32 {
        let (i_lo, i_hi) = self.bins(lo, hi);
        self.alphas[i_lo..=i_hi]
            .iter()
            .fold(0.0f32, |m, &a| m.max(a))
    }

    /// True when every value in `[lo, hi]` provably classifies to
    /// alpha exactly `0.0`: `max_alpha(lo, hi) == 0.0`, answered in
    /// O(1) from the prefix counts.
    #[inline]
    pub fn range_is_transparent(&self, lo: f32, hi: f32) -> bool {
        let (i_lo, i_hi) = self.bins(lo, hi);
        self.opaque_before[i_hi + 1] == self.opaque_before[i_lo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lookup_interpolates_linearly() {
        let tf = TransferFunction::grayscale((0.0, 1.0));
        let mid = tf.lookup(0.5);
        assert!((mid[0] - 0.5).abs() < 0.01);
        assert!((mid[3] - 0.3).abs() < 0.01);
    }

    #[test]
    fn lookup_clamps_outside_domain() {
        let tf = TransferFunction::grayscale((0.0, 1.0));
        assert_eq!(tf.lookup(-5.0), tf.lookup(0.0));
        assert_eq!(tf.lookup(7.0), tf.lookup(1.0));
    }

    #[test]
    fn opacity_correction_is_step_consistent() {
        // Two half steps accumulate like one full step.
        let tf = TransferFunction::grayscale((0.0, 1.0));
        let (_, a_full) = tf.classify(0.8, 1.0);
        let (_, a_half) = tf.classify(0.8, 0.5);
        let two_halves = 1.0 - (1.0 - a_half) * (1.0 - a_half);
        assert!((a_full - two_halves).abs() < 1e-6);
    }

    #[test]
    fn classify_zero_alpha_passes_through() {
        let tf = TransferFunction::from_points(
            (0.0, 1.0),
            &[(0.0, [1.0, 0.0, 0.0, 0.0]), (1.0, [1.0, 0.0, 0.0, 0.0])],
        );
        let (_, a) = tf.classify(0.5, 1.0);
        assert_eq!(a, 0.0);
    }

    #[test]
    fn packet_classify_matches_scalar_bitwise() {
        let tfs = [
            TransferFunction::supernova_velocity(),
            TransferFunction::hot_density(),
            TransferFunction::grayscale((-0.5, 2.0)),
            TransferFunction::from_points(
                (0.0, 1.0),
                &[(0.0, [0.1, 0.2, 0.3, 0.0]), (1.0, [0.9, 0.8, 0.7, 0.95])],
            ),
        ];
        for tf in &tfs {
            let (lo, hi) = tf.domain();
            // A sweep across and beyond the domain; every bin edge (the
            // value mapping to table coordinate i exactly) and its two
            // float neighbours; signed zeros, NaN, infinities and values
            // far outside the domain.
            let mut vals: Vec<f32> = (0..4000).map(|s| s as f32 * 0.001 - 1.5).collect();
            for i in 0..TABLE_LEN {
                let edge = lo + (hi - lo) * (i as f32 / (TABLE_LEN - 1) as f32);
                vals.extend([
                    edge,
                    f32::from_bits(edge.to_bits().wrapping_sub(1)),
                    f32::from_bits(edge.to_bits() + 1),
                ]);
            }
            vals.extend([
                0.0,
                -0.0,
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                lo - 1e6,
                hi + 1e6,
                f32::MAX,
                f32::MIN,
                f32::MIN_POSITIVE,
            ]);
            for chunk in vals.chunks(8) {
                let mut lanes = [0.0f32; 8];
                lanes[..chunk.len()].copy_from_slice(chunk);
                let (r, g, b, a) = tf.classify_unit_step_packet::<8>(&lanes);
                for (i, &v) in lanes.iter().enumerate() {
                    let (rgb, al) = tf.classify_unit_step(v);
                    assert_eq!(r[i].to_bits(), rgb[0].to_bits(), "r at {v}");
                    assert_eq!(g[i].to_bits(), rgb[1].to_bits(), "g at {v}");
                    assert_eq!(b[i].to_bits(), rgb[2].to_bits(), "b at {v}");
                    assert_eq!(a[i].to_bits(), al.to_bits(), "a at {v}");
                }
            }
        }
    }

    /// The pair table stores `(a, b - a)` per bin, so `a + d·f` is
    /// `lookup`'s `a + (b - a)·f` bit for bit, for every bin of every
    /// map and fractions from 0 to 1.
    #[test]
    fn pair_table_interpolates_like_lookup() {
        for tf in [
            TransferFunction::supernova_velocity(),
            TransferFunction::hot_density(),
            TransferFunction::grayscale((-2.0, 3.0)),
        ] {
            for (i, bin) in tf.bins[..TABLE_LEN - 1].iter().enumerate() {
                let (a, b) = (tf.table[i], tf.table[i + 1]);
                assert_eq!(bin.a, a, "bin {i}");
                for f in [0.0f32, -0.0, 1e-7, 0.25, 0.5, 0.999_999_9, 1.0, f32::NAN] {
                    for c in 0..4 {
                        assert_eq!(
                            (bin.a[c] + bin.d[c] * f).to_bits(),
                            (a[c] + (b[c] - a[c]) * f).to_bits(),
                            "bin {i} channel {c} fraction {f}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn supernova_map_is_diverging() {
        let tf = TransferFunction::supernova_velocity();
        let neg = tf.lookup(-1.0);
        let zero = tf.lookup(0.0);
        let pos = tf.lookup(1.0);
        assert!(neg[2] > neg[0], "negative end should be blue");
        assert!(pos[0] > pos[2], "positive end should be red");
        assert!(zero[3] < 0.05, "zero should be nearly transparent");
        assert!(neg[3] > 0.3 && pos[3] > 0.3);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_panics() {
        TransferFunction::from_points((0.0, 1.0), &[(0.5, [0.0; 4])]);
    }

    #[test]
    fn unit_step_classify_matches_powf() {
        // classify_unit_step elides powf; the two must agree bitwise for
        // every value, or the dt == 1.0 kernel dispatch would not be.
        for tf in [
            TransferFunction::supernova_velocity(),
            TransferFunction::hot_density(),
            TransferFunction::grayscale((-2.0, 3.0)),
        ] {
            let (d0, d1) = tf.domain();
            for i in 0..=4000 {
                let v = d0 - 0.1 + (d1 - d0 + 0.2) * i as f32 / 4000.0;
                let (rgb0, a0) = tf.classify(v, 1.0);
                let (rgb1, a1) = tf.classify_unit_step(v);
                assert_eq!(a0.to_bits(), a1.to_bits(), "alpha at {v}");
                for c in 0..3 {
                    assert_eq!(rgb0[c].to_bits(), rgb1[c].to_bits(), "rgb[{c}] at {v}");
                }
            }
        }
    }

    #[test]
    fn table_maxima_bound_every_lookup() {
        for tf in [
            TransferFunction::supernova_velocity(),
            TransferFunction::hot_density(),
            TransferFunction::grayscale((-2.0, 3.0)),
        ] {
            let a_max = tf.max_table_alpha();
            let rgb_max = tf.max_table_rgb();
            let (d0, d1) = tf.domain();
            for i in 0..=3000 {
                let v = d0 - 0.2 + (d1 - d0 + 0.4) * i as f32 / 3000.0;
                let c = tf.lookup(v);
                assert!(c[3] <= a_max);
                for ch in &c[..3] {
                    assert!(ch.abs() <= rgb_max);
                }
            }
        }
    }

    #[test]
    fn supernova_zero_plateau_is_exactly_transparent() {
        let tf = TransferFunction::supernova_velocity();
        for i in 0..100 {
            let v = -0.28 + 0.56 * i as f32 / 99.0;
            assert_eq!(tf.lookup(v)[3], 0.0, "alpha at {v} not exactly zero");
            let (_, a) = tf.classify(v, 0.73);
            assert_eq!(a, 0.0, "classify at {v} not exactly zero");
        }
        let lut = tf.opacity_lut();
        assert!(lut.range_is_transparent(-0.25, 0.25));
        assert!(!lut.range_is_transparent(-0.5, 0.15));
    }

    #[test]
    fn opacity_lut_bounds_every_lookup() {
        // Dense scan: the LUT's range bound dominates every lookup in
        // the range, for several transfer functions and range choices.
        for tf in [
            TransferFunction::supernova_velocity(),
            TransferFunction::hot_density(),
            TransferFunction::grayscale((-2.0, 3.0)),
        ] {
            let lut = tf.opacity_lut();
            let (d0, d1) = tf.domain();
            let span = d1 - d0;
            for i in 0..40 {
                let lo = d0 - 0.2 * span + span * 1.4 * (i as f32 / 40.0);
                for w in [0.0, 0.003 * span, 0.07 * span, 0.4 * span] {
                    let hi = lo + w;
                    let bound = lut.max_alpha(lo, hi);
                    for k in 0..=50 {
                        let v = lo + (hi - lo) * k as f32 / 50.0;
                        let a = tf.lookup(v)[3];
                        assert!(
                            a <= bound,
                            "lookup({v})={a} exceeds bound {bound} for [{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }

    /// The maxima `from_points` caches are the folds the getters used to
    /// run on every call, for the shipped functions and for random
    /// control points of either sign.
    #[test]
    fn cached_maxima_equal_the_table_fold() {
        let fold = |tf: &TransferFunction| {
            let alpha = tf.table.iter().fold(0.0f32, |m, c| m.max(c[3]));
            let rgb = tf.table.iter().flat_map(|c| &c[..3]);
            (alpha, rgb.fold(0.0f32, |m, c| m.max(c.abs())))
        };
        let mut rng = proptest::Rng::seeded(0x7f4a_7c15);
        let mut unit = move || rng.below(1 << 16) as f32 / 65535.0;
        let mut tfs = vec![
            TransferFunction::supernova_velocity(),
            TransferFunction::hot_density(),
            TransferFunction::grayscale((-2.0, 3.0)),
        ];
        for npts in (2..10).cycle().take(200) {
            let pts: Vec<(f32, [f32; 4])> = (0..npts)
                .map(|_| (unit(), std::array::from_fn(|_| 4.0 * unit() - 2.0)))
                .collect();
            tfs.push(TransferFunction::from_points((-1.0, 1.0), &pts));
        }
        for tf in &tfs {
            let (alpha, rgb) = fold(tf);
            assert_eq!(tf.max_table_alpha().to_bits(), alpha.to_bits());
            assert_eq!(tf.max_table_rgb().to_bits(), rgb.to_bits());
        }
    }

    proptest! {
        #[test]
        fn transparent_verdict_equals_max_alpha_fold(
            seed in 0u64..u64::MAX,
            npts in 2usize..8,
        ) {
            let mut rng = proptest::Rng::seeded(seed);
            fn unit(rng: &mut proptest::Rng) -> f32 {
                rng.below(1 << 16) as f32 / 65535.0
            }
            // Alpha is exactly zero (either sign) about half the time,
            // so plateaus and isolated zero entries both occur; the odd
            // negative alpha must read as transparent to both tests.
            let pts: Vec<(f32, [f32; 4])> = (0..npts)
                .map(|_| {
                    let a = match rng.below(8) {
                        0..=2 => 0.0,
                        3 => -0.0,
                        4 => -unit(&mut rng),
                        _ => unit(&mut rng),
                    };
                    (unit(&mut rng), [0.5, 0.5, 0.5, a])
                })
                .collect();
            let d0 = 4.0 * unit(&mut rng) - 2.0;
            let span = 0.1 + 4.0 * unit(&mut rng);
            let tf = TransferFunction::from_points((d0, d0 + span), &pts);
            let lut = tf.opacity_lut();
            for _ in 0..64 {
                // Start anywhere from below the domain to above it.
                let lo = d0 + span * (1.6 * unit(&mut rng) - 0.3);
                let width = match rng.below(4) {
                    0 => 0.0,
                    1 => span / 1000.0, // within one bin, or straddling two
                    2 => span * unit(&mut rng),
                    _ => 2.0 * span,
                };
                let (a, b) = if rng.below(2) == 0 {
                    (lo, lo + width)
                } else {
                    (lo + width, lo)
                };
                prop_assert_eq!(
                    lut.range_is_transparent(a, b),
                    lut.max_alpha(a, b) == 0.0,
                    "range [{}, {}]", a, b
                );
            }
            // Unbounded and empty ranges, as all-NaN cells produce.
            for (a, b) in [
                (f32::NEG_INFINITY, f32::INFINITY),
                (f32::INFINITY, f32::NEG_INFINITY),
                (f32::INFINITY, f32::INFINITY),
            ] {
                prop_assert_eq!(lut.range_is_transparent(a, b), lut.max_alpha(a, b) == 0.0);
            }
        }
    }
}
