//! Procedural scalar fields, including the synthetic supernova.
//!
//! The paper renders time step 1530 of Blondin & Mezzacappa's VH-1
//! core-collapse supernova run — 1120³, five variables, 27 GB per step —
//! which we cannot obtain. [`SupernovaField`] is the substitution: an
//! analytic field with the same gross structure (a perturbed standing
//! accretion-shock shell around a dense core, with a turbulent interior)
//! exposing the same five variables. Because it is analytic it can be
//! sampled at *any* resolution, which also substitutes for the paper's
//! upsampled 2240³ / 4480³ steps without materializing hundreds of
//! gigabytes.

/// A scalar field over the unit cube.
pub trait ScalarField {
    /// Sample at `(x, y, z) ∈ [0, 1]³`.
    fn sample(&self, x: f32, y: f32, z: f32) -> f32;

    /// Sample one row of a grid: the [`voxel_centre`]s of voxels
    /// `x0 .. x0 + out.len()` of an x-axis of `nx` voxels, at fixed
    /// `(y, z)`, into `out`. Every sampled grid is filled through this
    /// method; the default samples point by point.
    fn sample_row(&self, x0: usize, nx: usize, y: f32, z: f32, out: &mut [f32]) {
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.sample(voxel_centre(x0 + i, nx), y, z);
        }
    }
}

impl<F: Fn(f32, f32, f32) -> f32> ScalarField for F {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self(x, y, z)
    }
}

/// The unit-cube coordinate of the centre of voxel `i` on an axis of
/// `n` voxels: the one place a sampled grid, in memory or on disk, meets
/// a field.
#[inline]
pub fn voxel_centre(i: usize, n: usize) -> f32 {
    (i as f32 + 0.5) / n as f32
}

/// Names of the five VH-1 variables, in file order.
pub const VAR_NAMES: [&str; 5] = [
    "pressure",
    "density",
    "velocity-x",
    "velocity-y",
    "velocity-z",
];

/// Smoothstep fade for C1 continuity.
#[inline]
fn fade(t: f32) -> f32 {
    t * t * (3.0 - 2.0 * t)
}

#[inline]
fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// `v.floor()`, bit for bit, without a call: the x86-64 baseline has no
/// rounding instruction, so `f32::floor` is a library call, and a voxel
/// takes nineteen of them.
#[inline]
fn floor(v: f32) -> f32 {
    // From 2^23 up every f32 is an integer (and NaN and ±∞ go here too).
    if v.is_nan() || v.abs() >= 8_388_608.0 {
        return v.floor();
    }
    // Truncation, signed like `v` so that -0.0 and (-1, 0) stay negative.
    let t = (v as i32 as f32).copysign(v);
    if t > v {
        t - 1.0
    } else {
        t
    }
}

/// A lattice coordinate: its cell and the faded offset into it.
#[inline]
fn cell(v: f32) -> (i32, f32) {
    let v0 = floor(v);
    (v0 as i32, fade(v - v0))
}

/// Bilinear blend of a lattice face from its corner hashes
/// `[(0, 0), (1, 0), (0, 1), (1, 1)]` (first axis fastest).
#[inline]
fn face(h: [f32; 4], u0: f32, u1: f32) -> f32 {
    lerp(lerp(h[0], h[1], u0), lerp(h[2], h[3], u0), u1)
}

/// Trilinear blend of a lattice cell from the corner hashes of its
/// near and far faces along the third axis.
#[inline]
fn trilerp(near: [f32; 4], far: [f32; 4], [ux, uy, uz]: [f32; 3]) -> f32 {
    lerp(face(near, ux, uy), face(far, ux, uy), uz)
}

/// Deterministic lattice value noise with fractal Brownian motion.
///
/// Hash-based (no tables, no global state), so fields are reproducible
/// across runs and threads — a requirement for comparing images between
/// compositing algorithms bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct FbmNoise {
    seed: u64,
    octaves: u32,
    lacunarity: f32,
    gain: f32,
}

impl FbmNoise {
    pub fn new(seed: u64) -> Self {
        FbmNoise {
            seed,
            octaves: 4,
            lacunarity: 2.0,
            gain: 0.5,
        }
    }

    pub fn with_octaves(mut self, octaves: u32) -> Self {
        self.octaves = octaves.max(1);
        self
    }

    #[inline]
    fn hash(&self, x: i32, y: i32, z: i32) -> f32 {
        // SplitMix64-style integer hash of the lattice point.
        let mut h = self
            .seed
            .wrapping_add(x as u64 & 0xffff_ffff)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((y as u64 & 0xffff_ffff) << 1)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add((z as u64 & 0xffff_ffff) << 2);
        h ^= h >> 30;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        // Map the top 24 bits to [-1, 1).
        (h >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
    }

    /// The corner hashes of the lattice face at `z` whose low corner is
    /// `(x, y)`, in [`face`] order.
    #[inline]
    fn face_hashes(&self, x: i32, y: i32, z: i32) -> [f32; 4] {
        [
            self.hash(x, y, z),
            self.hash(x + 1, y, z),
            self.hash(x, y + 1, z),
            self.hash(x + 1, y + 1, z),
        ]
    }

    /// Single octave of trilinear value noise at lattice scale 1.
    fn value(&self, x: f32, y: f32, z: f32) -> f32 {
        let ((ix, ux), (iy, uy), (iz, uz)) = (cell(x), cell(y), cell(z));
        trilerp(
            self.face_hashes(ix, iy, iz),
            self.face_hashes(ix, iy, iz + 1),
            [ux, uy, uz],
        )
    }

    /// The octaves' frequencies from `base_freq` on.
    fn freqs(&self, base_freq: f32) -> impl Iterator<Item = f32> {
        let lacunarity = self.lacunarity;
        std::iter::successors(Some(base_freq), move |f| Some(f * lacunarity))
            .take(self.octaves as usize)
    }

    /// The fractal sum of the octaves' values, lowest frequency first.
    #[inline]
    fn sum(&self, octaves: impl Iterator<Item = f32>) -> f32 {
        let (mut sum, mut amp) = (0.0, 0.5);
        for v in octaves {
            sum += amp * v;
            amp *= self.gain;
        }
        sum
    }

    /// Fractal sum of octaves; output roughly in [-1, 1].
    pub fn fbm(&self, x: f32, y: f32, z: f32, base_freq: f32) -> f32 {
        self.sum(
            self.freqs(base_freq)
                .map(|f| self.value(x * f, y * f, z * f)),
        )
    }
}

impl ScalarField for FbmNoise {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self.fbm(x, y, z, 8.0)
    }
}

/// Octaves of the supernova's turbulence and wobble noises.
const NOISE_OCTAVES: usize = 5;
const WOBBLE_OCTAVES: usize = 3;

/// Synthetic core-collapse supernova: five variables over the unit
/// cube. Variable indices follow [`VAR_NAMES`].
///
/// Structure: a dense core at the center, a standing accretion shock —
/// a spherical shell whose radius is perturbed by low-frequency noise
/// (the SASI instability that VH-1 models) — and turbulent velocity
/// inside the shell. All variables are normalized to roughly [-1, 1]
/// (velocities) or [0, 1] (pressure, density).
#[derive(Debug, Clone, Copy)]
pub struct SupernovaField {
    noise: FbmNoise,
    wobble: FbmNoise,
    /// Mean shock radius in unit-cube units.
    shock_radius: f32,
}

/// What [`SupernovaField::terms`] computes once per point.
struct Terms {
    /// Offset from the cube's centre, and its length.
    p: [f32; 3],
    r: f32,
    inside: bool,
    shell: f32,
    turb: f32,
    /// The velocities' radial infall and shell noise (zero when not
    /// asked for).
    infall: f32,
    swirl: f32,
}

impl SupernovaField {
    pub fn new(seed: u64) -> Self {
        Self::at_time(seed, 0.0)
    }

    /// The field at a later evolution time: the accretion shock expands
    /// slowly and the turbulence decorrelates. `t` is in arbitrary
    /// time-step units (the paper renders successive VH-1 time steps;
    /// step 1530 is `t = 0`).
    pub fn at_time(seed: u64, t: f32) -> Self {
        let step = t.round() as i64;
        SupernovaField {
            noise: FbmNoise::new(seed.wrapping_add(step as u64)).with_octaves(NOISE_OCTAVES as u32),
            wobble: FbmNoise::new((seed ^ 0xdead_beef).wrapping_add(step as u64 / 4))
                .with_octaves(WOBBLE_OCTAVES as u32),
            shock_radius: (0.33 + 0.004 * t).clamp(0.1, 0.45),
        }
    }

    /// The terms the variables share at a point: one shock geometry, one
    /// shell and one turbulence evaluation, and the velocities' infall
    /// and shell noise when `velocities` asks for them. The noises come
    /// from `wobble(direction)`, `turb(inside)` (the turbulence at base
    /// frequency 10 inside the shock, 6 outside) and `swirl()`, so that
    /// the point evaluator and the row sampler share every other
    /// expression.
    #[inline(always)]
    fn terms(
        &self,
        [x, y, z]: [f32; 3],
        velocities: bool,
        wobble: impl FnOnce([f32; 3]) -> f32,
        turb: impl FnOnce(bool) -> f32,
        swirl: impl FnOnce() -> f32,
    ) -> Terms {
        let p = [x - 0.5, y - 0.5, z - 0.5];
        let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
        // Angular perturbation of the shock radius (SASI-like sloshing):
        // evaluate low-frequency noise on the unit direction.
        let inv_r = if r > 1e-6 { 1.0 / r } else { 0.0 };
        let wob = wobble([p[0] * inv_r, p[1] * inv_r, p[2] * inv_r]);
        let shock_r = self.shock_radius * (1.0 + 0.35 * wob);
        let inside = r < shock_r;
        // Shell proximity in [0, 1]: 1 on the shock surface.
        let shell = (-((r - shock_r) / 0.02).powi(2)).exp();
        let turb = if inside {
            turb(true)
        } else {
            0.15 * turb(false)
        };
        // Infall is strongest just outside the shock and fades with
        // distance, so renderings highlight the shock region rather
        // than a uniformly colored far field.
        let infall = if velocities && !inside {
            -0.8 * (shock_r / r.max(1e-3)).powf(2.5)
        } else {
            0.0
        };
        Terms {
            p,
            r,
            inside,
            shell,
            turb,
            infall,
            swirl: if velocities { swirl() } else { 0.0 },
        }
    }

    /// The terms at one point, every noise evaluated from scratch.
    fn terms_at(&self, x: f32, y: f32, z: f32, velocities: bool) -> Terms {
        self.terms(
            [x, y, z],
            velocities,
            |d| self.wobble.fbm(d[0], d[1], d[2], 2.0),
            |inside| self.noise.fbm(x, y, z, if inside { 10.0 } else { 6.0 }),
            || self.noise.fbm(y, z, x, 5.0),
        )
    }

    /// Variable `var` from the shared terms.
    #[inline]
    fn var_from(var: usize, t: &Terms) -> f32 {
        match var {
            // Pressure: high in the core, jump at the shock.
            0 => {
                ((1.0 - t.r * 2.2).max(0.0).powi(2) + 0.6 * t.shell + 0.2 * t.turb).clamp(0.0, 1.0)
            }
            // Density: steep core profile plus shell pile-up.
            1 => ((0.08 / (t.r + 0.05)).min(1.0) * 0.7 + 0.5 * t.shell + 0.15 * t.turb)
                .clamp(0.0, 1.0),
            // Velocities: infall outside the shock (radial, negative),
            // turbulence inside; the X component is the paper's
            // rendered variable (Figure 1).
            2..=4 => {
                let axis = var - 2;
                let v = t.infall * t.p[axis] / t.r.max(1e-3)
                    + if t.inside { 0.9 * t.turb } else { 0.1 * t.turb }
                    + 0.4 * t.shell * t.p[axis].signum() * t.swirl;
                v.clamp(-1.0, 1.0)
            }
            _ => panic!("variable index {var} out of range (0..5)"),
        }
    }

    /// Sample variable `var` (0..5) at a point of the unit cube: the
    /// point evaluator, for point queries. Only the velocities evaluate
    /// the infall and the shell noise.
    pub fn sample_var(&self, var: usize, x: f32, y: f32, z: f32) -> f32 {
        Self::var_from(var, &self.terms_at(x, y, z, (2..5).contains(&var)))
    }

    /// Sample one row of a grid: the [`voxel_centre`]s of voxels
    /// `x0 ..` of an x-axis of `nx` voxels at fixed `(y, z)`. With
    /// `only = Some(var)`, `out` gets variable `var` of each voxel; with
    /// `None`, all five of each, in [`VAR_NAMES`] order, voxel after
    /// voxel. Bit for bit [`SupernovaField::sample_var`] at every voxel:
    /// the row evaluates the same expressions in the same order and only
    /// hoists the lattice work that is constant along the row and reuses
    /// the corner hashes a lattice cell shares (DESIGN.md §19).
    pub fn sample_row(
        &self,
        only: Option<usize>,
        x0: usize,
        nx: usize,
        y: f32,
        z: f32,
        out: &mut [f32],
    ) {
        let velocities = only.is_none_or(|var| (2..5).contains(&var));
        let mut row = RowNoise::new(self, y, z);
        let (noise, wobble) = (&self.noise, &self.wobble);
        let nvars = only.map_or(VAR_NAMES.len(), |_| 1);
        for (x, vars) in out.chunks_exact_mut(nvars).enumerate() {
            let x = voxel_centre(x0 + x, nx);
            let RowNoise {
                inside: turb_in,
                outside: turb_out,
                swirl,
                wobble: wob,
            } = &mut row;
            let t = self.terms(
                [x, y, z],
                velocities,
                |d| wobble.sum(wob.iter_mut().map(|o| o.value(wobble, d))),
                |inside| {
                    let octaves = if inside { turb_in } else { turb_out };
                    noise.sum(octaves.iter_mut().map(|o| o.value(noise, x)))
                },
                || noise.sum(swirl.iter_mut().map(|o| o.value(noise, x))),
            );
            match only {
                Some(var) => vars[0] = Self::var_from(var, &t),
                None => {
                    for (var, v) in vars.iter_mut().enumerate() {
                        *v = Self::var_from(var, &t);
                    }
                }
            }
        }
    }

    /// View of one variable as a [`ScalarField`].
    pub fn variable(&self, var: usize) -> SupernovaVariable {
        assert!(var < 5);
        SupernovaVariable { field: *self, var }
    }
}

impl ScalarField for SupernovaField {
    /// Default variable: X velocity (the paper's Figure 1).
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self.sample_var(2, x, y, z)
    }

    fn sample_row(&self, x0: usize, nx: usize, y: f32, z: f32, out: &mut [f32]) {
        SupernovaField::sample_row(self, Some(2), x0, nx, y, z, out)
    }
}

/// One variable of a [`SupernovaField`] as a standalone field.
#[derive(Debug, Clone, Copy)]
pub struct SupernovaVariable {
    field: SupernovaField,
    var: usize,
}

impl ScalarField for SupernovaVariable {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self.field.sample_var(self.var, x, y, z)
    }

    fn sample_row(&self, x0: usize, nx: usize, y: f32, z: f32, out: &mut [f32]) {
        self.field.sample_row(Some(self.var), x0, nx, y, z, out)
    }
}

/// One octave of the turbulence `noise.fbm(x, y, z, ·)` along a row:
/// the voxel's x is the lattice's first axis, so the y and z cells are
/// row constants, and the hashes of the cell's two lattice columns
/// (`x`, all four (y, z) corners) slide along with the row.
#[derive(Clone, Copy)]
struct AlongX {
    freq: f32,
    iy: i32,
    iz: i32,
    uy: f32,
    uz: f32,
    /// The lattice column of `lo`; `hi` is the one after it.
    x: i32,
    lo: [f32; 4],
    hi: [f32; 4],
}

impl AlongX {
    fn new(freq: f32, y: f32, z: f32) -> Self {
        let ((iy, uy), (iz, uz)) = (cell(y * freq), cell(z * freq));
        AlongX {
            freq,
            iy,
            iz,
            uy,
            uz,
            x: i32::MIN,
            lo: [0.0; 4],
            hi: [0.0; 4],
        }
    }

    /// The hashes of lattice column `x`, as `[(y, z), (y + 1, z),
    /// (y, z + 1), (y + 1, z + 1)]`.
    fn column(&self, noise: &FbmNoise, x: i32) -> [f32; 4] {
        let (y, z) = (self.iy, self.iz);
        [
            noise.hash(x, y, z),
            noise.hash(x, y + 1, z),
            noise.hash(x, y, z + 1),
            noise.hash(x, y + 1, z + 1),
        ]
    }

    /// This octave's [`FbmNoise::value`] at the row's point `x`.
    #[inline]
    fn value(&mut self, noise: &FbmNoise, x: f32) -> f32 {
        let (ix, ux) = cell(x * self.freq);
        if ix != self.x {
            self.lo = if ix.wrapping_sub(self.x) == 1 {
                self.hi
            } else {
                self.column(noise, ix)
            };
            self.hi = self.column(noise, ix + 1);
            self.x = ix;
        }
        let (lo, hi) = (self.lo, self.hi);
        trilerp(
            [lo[0], hi[0], lo[1], hi[1]],
            [lo[2], hi[2], lo[3], hi[3]],
            [ux, self.uy, self.uz],
        )
    }
}

/// One octave of the velocities' shell noise `noise.fbm(y, z, x, ·)`
/// along a row: the voxel's x is the lattice's *third* axis, so a
/// lattice face across it — its four x-lerps and two y-lerps — is the
/// same for the whole row at that face, and a voxel blends the two
/// faces of its cell.
#[derive(Clone, Copy)]
struct AlongZ {
    freq: f32,
    ia: i32,
    ib: i32,
    ua: f32,
    ub: f32,
    /// The lattice face of `lo`; `hi` is the one after it.
    z: i32,
    lo: f32,
    hi: f32,
}

impl AlongZ {
    fn new(freq: f32, y: f32, z: f32) -> Self {
        let ((ia, ua), (ib, ub)) = (cell(y * freq), cell(z * freq));
        AlongZ {
            freq,
            ia,
            ib,
            ua,
            ub,
            z: i32::MIN,
            lo: 0.0,
            hi: 0.0,
        }
    }

    fn face(&self, noise: &FbmNoise, z: i32) -> f32 {
        face(noise.face_hashes(self.ia, self.ib, z), self.ua, self.ub)
    }

    #[inline]
    fn value(&mut self, noise: &FbmNoise, x: f32) -> f32 {
        let (iz, uz) = cell(x * self.freq);
        if iz != self.z {
            self.lo = if iz.wrapping_sub(self.z) == 1 {
                self.hi
            } else {
                self.face(noise, iz)
            };
            self.hi = self.face(noise, iz + 1);
            self.z = iz;
        }
        lerp(self.lo, self.hi, uz)
    }
}

/// One octave of the wobble `wobble.fbm(dir, ·)`: the direction moves
/// slowly along a row, so the corner hashes of its last cell are kept.
#[derive(Clone, Copy)]
struct CellMemo {
    freq: f32,
    cell: [i32; 3],
    near: [f32; 4],
    far: [f32; 4],
}

impl CellMemo {
    fn new(freq: f32) -> Self {
        CellMemo {
            freq,
            cell: [i32::MIN; 3],
            near: [0.0; 4],
            far: [0.0; 4],
        }
    }

    #[inline]
    fn value(&mut self, noise: &FbmNoise, d: [f32; 3]) -> f32 {
        let f = self.freq;
        let ((ix, ux), (iy, uy), (iz, uz)) = (cell(d[0] * f), cell(d[1] * f), cell(d[2] * f));
        if [ix, iy, iz] != self.cell {
            self.near = noise.face_hashes(ix, iy, iz);
            self.far = noise.face_hashes(ix, iy, iz + 1);
            self.cell = [ix, iy, iz];
        }
        trilerp(self.near, self.far, [ux, uy, uz])
    }
}

/// One state per octave of `noise` from `base_freq` on.
fn octaves<T, const N: usize>(noise: &FbmNoise, base_freq: f32, new: impl Fn(f32) -> T) -> [T; N] {
    debug_assert_eq!(noise.octaves as usize, N);
    let mut freqs = noise.freqs(base_freq);
    std::array::from_fn(|_| new(freqs.next().expect("one state per octave")))
}

/// The lattice state of one row of [`SupernovaField::sample_row`]: the
/// turbulence at both base frequencies, the shell noise and the wobble,
/// octave by octave.
struct RowNoise {
    inside: [AlongX; NOISE_OCTAVES],
    outside: [AlongX; NOISE_OCTAVES],
    swirl: [AlongZ; NOISE_OCTAVES],
    wobble: [CellMemo; WOBBLE_OCTAVES],
}

impl RowNoise {
    fn new(field: &SupernovaField, y: f32, z: f32) -> Self {
        let noise = &field.noise;
        RowNoise {
            inside: octaves(noise, 10.0, |f| AlongX::new(f, y, z)),
            outside: octaves(noise, 6.0, |f| AlongX::new(f, y, z)),
            // The shell noise is sampled at (y, z, x): y and z are its
            // first two lattice axes.
            swirl: octaves(noise, 5.0, |f| AlongZ::new(f, y, z)),
            wobble: octaves(&field.wobble, 2.0, CellMemo::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic() {
        let a = FbmNoise::new(42);
        let b = FbmNoise::new(42);
        for i in 0..50 {
            let t = i as f32 * 0.037;
            assert_eq!(a.fbm(t, 1.0 - t, t * t, 4.0), b.fbm(t, 1.0 - t, t * t, 4.0));
        }
    }

    #[test]
    fn noise_depends_on_seed() {
        let a = FbmNoise::new(1);
        let b = FbmNoise::new(2);
        let diff = (0..100)
            .map(|i| {
                let t = i as f32 * 0.031;
                (a.fbm(t, t, t, 4.0) - b.fbm(t, t, t, 4.0)).abs()
            })
            .sum::<f32>();
        assert!(diff > 0.5, "seeds produce near-identical noise");
    }

    #[test]
    fn noise_is_bounded() {
        let n = FbmNoise::new(7);
        for i in 0..500 {
            let t = i as f32 * 0.017;
            let v = n.fbm(t, 2.0 * t, 0.5 - t, 8.0);
            assert!(v.abs() <= 1.0, "fbm out of range: {v}");
        }
    }

    #[test]
    fn noise_is_continuous() {
        // Small steps produce small changes (C0 continuity smoke test).
        let n = FbmNoise::new(3);
        let mut prev = n.fbm(0.0, 0.3, 0.7, 8.0);
        for i in 1..1000 {
            let x = i as f32 * 1e-3;
            let v = n.fbm(x, 0.3, 0.7, 8.0);
            assert!((v - prev).abs() < 0.05, "jump at x={x}: {prev} -> {v}");
            prev = v;
        }
    }

    #[test]
    fn supernova_variables_are_in_range() {
        let f = SupernovaField::new(1530);
        for i in 0..1000 {
            let t = i as f32 / 1000.0;
            let (x, y, z) = (t, (t * 7.3).fract(), (t * 3.1).fract());
            for var in 0..5 {
                let v = f.sample_var(var, x, y, z);
                assert!(v.is_finite());
                if var < 2 {
                    assert!((0.0..=1.0).contains(&v), "var {var} = {v}");
                } else {
                    assert!((-1.0..=1.0).contains(&v), "var {var} = {v}");
                }
            }
        }
    }

    #[test]
    fn supernova_has_shell_structure() {
        let f = SupernovaField::new(1530);
        // Density at the mean shock radius is higher than far outside.
        let at_shell = f.sample_var(1, 0.5 + 0.33, 0.5, 0.5);
        let outside = f.sample_var(1, 0.99, 0.99, 0.99);
        assert!(at_shell > outside, "shell {at_shell} outside {outside}");
        // Pressure peaks at the core.
        let core = f.sample_var(0, 0.5, 0.5, 0.5);
        assert!(core > 0.8, "core pressure {core}");
    }

    #[test]
    fn infall_velocity_points_inward_outside_shock() {
        let f = SupernovaField::new(1530);
        // On the +x axis outside the shock, vx should be negative
        // (matter falling toward the core) for most probes.
        let mut neg = 0;
        for i in 0..20 {
            let x = 0.5 + 0.45 - i as f32 * 0.002;
            if f.sample_var(2, x, 0.5, 0.5) < 0.0 {
                neg += 1;
            }
        }
        assert!(neg > 12, "only {neg}/20 infall probes negative");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_variable_panics() {
        SupernovaField::new(0).sample_var(5, 0.5, 0.5, 0.5);
    }

    #[test]
    fn time_evolution_expands_the_shock() {
        let t0 = SupernovaField::at_time(1530, 0.0);
        let t20 = SupernovaField::at_time(1530, 20.0);
        // Density peak (the shock shell) moves outward: probe along +x.
        let shell_density = |f: &SupernovaField, r: f32| f.sample_var(1, 0.5 + r, 0.5, 0.5);
        // At the old shell radius, the late field is weaker than the new.
        assert!(shell_density(&t20, 0.41) > shell_density(&t0, 0.41) - 0.3);
        // Radius parameter itself moved.
        let probe0 = SupernovaField::at_time(7, 0.0);
        let probe1 = SupernovaField::at_time(7, 25.0);
        assert!(probe1.shock_radius > probe0.shock_radius);
    }

    #[test]
    fn time_zero_matches_new() {
        let a = SupernovaField::new(1530);
        let b = SupernovaField::at_time(1530, 0.0);
        for i in 0..50 {
            let t = i as f32 / 50.0;
            assert_eq!(a.sample_var(2, t, 0.4, 0.6), b.sample_var(2, t, 0.4, 0.6));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn a_row_is_the_point_evaluator_bit_for_bit(
            seed in 0u64..u64::MAX,
            // From t = 4 on the wobble's seed moves too.
            step in 0u32..40,
            (nx, ny, nz) in (1usize..160, 1usize..160, 1usize..160),
            (j, k) in (0usize..1000, 0usize..1000),
            (a, b) in (0usize..1000, 0usize..1000),
            // 0..5 is `Some(var)`, 5 is all five variables.
            pick in 0usize..6,
            through_centre in 0u8..4,
        ) {
            let f = SupernovaField::at_time(seed, step as f32);
            let (mut nx, mut ny, mut nz) = (nx, ny, nz);
            let (mut j, mut k) = (j * ny / 1000, k * nz / 1000);
            let (mut x0, mut len) = (a * nx / 1000, 0);
            len += 1 + b * (nx - x0 - 1) / 1000;
            if through_centre == 0 {
                // Odd axes put a voxel centre at exactly 0.5: the row
                // runs through the cube's centre, where r = 0.
                (nx, ny, nz) = (nx | 1, ny | 1, nz | 1);
                (j, k, x0, len) = (ny / 2, nz / 2, 0, nx);
                proptest::prop_assert_eq!(voxel_centre(nx / 2, nx), 0.5);
            }
            let (y, z) = (voxel_centre(j, ny), voxel_centre(k, nz));
            let only = (pick < 5).then_some(pick);
            let vars: Vec<usize> = only.map_or((0..5).collect(), |v| vec![v]);
            let mut out = vec![f32::NAN; len * vars.len()];
            f.sample_row(only, x0, nx, y, z, &mut out);
            if let Some(var) = only {
                let mut via_trait = vec![f32::NAN; len];
                f.variable(var).sample_row(x0, nx, y, z, &mut via_trait);
                proptest::prop_assert!(out.iter().zip(&via_trait).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            for (i, voxel) in out.chunks_exact(vars.len()).enumerate() {
                let x = voxel_centre(x0 + i, nx);
                for (&var, v) in vars.iter().zip(voxel) {
                    proptest::prop_assert_eq!(
                        v.to_bits(),
                        f.sample_var(var, x, y, z).to_bits(),
                        "variable {} at voxel {} of {} ({}, {}, {})", var, x0 + i, nx, x, y, z
                    );
                }
            }
        }
    }

    /// The inline `floor` is `f32::floor` on every input the field can
    /// produce and on the edges of its truncation.
    #[test]
    fn floor_is_f32_floor_bit_for_bit() {
        let two23 = 8_388_608.0f32;
        let edges = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            -1e-45,
            0.5,
            -0.5,
            1.0,
            -1.0,
            f32::from_bits(1.0f32.to_bits() - 1),
            -f32::from_bits(1.0f32.to_bits() - 1),
            two23 - 0.5,
            -(two23 - 0.5),
            two23,
            -two23,
            two23 * 2.0 + 2.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let sweep = (0..1 << 16).map(|i| f32::from_bits((i as u32).wrapping_mul(0x9e37_79b9)));
        for v in edges.into_iter().chain(sweep) {
            assert_eq!(floor(v).to_bits(), v.floor().to_bits(), "floor({v:e})");
        }
    }

    #[test]
    fn closure_fields_work() {
        let f = |x: f32, _y: f32, _z: f32| x * 2.0;
        assert_eq!(f.sample(0.25, 0.0, 0.0), 0.5);
    }
}
