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

    /// Single octave of trilinear value noise at lattice scale 1.
    fn value(&self, x: f32, y: f32, z: f32) -> f32 {
        let (x0, y0, z0) = (x.floor(), y.floor(), z.floor());
        let (fx, fy, fz) = (x - x0, y - y0, z - z0);
        // Smoothstep fade for C1 continuity.
        let fade = |t: f32| t * t * (3.0 - 2.0 * t);
        let (ux, uy, uz) = (fade(fx), fade(fy), fade(fz));
        let (ix, iy, iz) = (x0 as i32, y0 as i32, z0 as i32);
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(self.hash(ix, iy, iz), self.hash(ix + 1, iy, iz), ux);
        let c10 = lerp(self.hash(ix, iy + 1, iz), self.hash(ix + 1, iy + 1, iz), ux);
        let c01 = lerp(self.hash(ix, iy, iz + 1), self.hash(ix + 1, iy, iz + 1), ux);
        let c11 = lerp(
            self.hash(ix, iy + 1, iz + 1),
            self.hash(ix + 1, iy + 1, iz + 1),
            ux,
        );
        lerp(lerp(c00, c10, uy), lerp(c01, c11, uy), uz)
    }

    /// Fractal sum of octaves; output roughly in [-1, 1].
    pub fn fbm(&self, x: f32, y: f32, z: f32, base_freq: f32) -> f32 {
        let mut sum = 0.0;
        let mut amp = 0.5;
        let mut freq = base_freq;
        for _ in 0..self.octaves {
            sum += amp * self.value(x * freq, y * freq, z * freq);
            amp *= self.gain;
            freq *= self.lacunarity;
        }
        sum
    }
}

impl ScalarField for FbmNoise {
    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        self.fbm(x, y, z, 8.0)
    }
}

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
    /// Shock radius along this direction.
    shock_r: f32,
    inside: bool,
    shell: f32,
    turb: f32,
    /// The velocities' shell noise (zero when not asked for).
    swirl: f32,
}

impl SupernovaField {
    pub fn new(seed: u64) -> Self {
        SupernovaField {
            noise: FbmNoise::new(seed).with_octaves(5),
            wobble: FbmNoise::new(seed ^ 0xdead_beef).with_octaves(3),
            shock_radius: 0.33,
        }
    }

    /// The field at a later evolution time: the accretion shock expands
    /// slowly and the turbulence decorrelates. `t` is in arbitrary
    /// time-step units (the paper renders successive VH-1 time steps;
    /// step 1530 is `t = 0`).
    pub fn at_time(seed: u64, t: f32) -> Self {
        let step = t.round() as i64;
        SupernovaField {
            noise: FbmNoise::new(seed.wrapping_add(step as u64)).with_octaves(5),
            wobble: FbmNoise::new((seed ^ 0xdead_beef).wrapping_add(step as u64 / 4))
                .with_octaves(3),
            shock_radius: (0.33 + 0.004 * t).clamp(0.1, 0.45),
        }
    }

    /// The terms the variables share at a point: one shock geometry, one
    /// shell and one turbulence evaluation, and the velocities' shell
    /// noise when `swirl` asks for it.
    #[inline]
    fn terms(&self, x: f32, y: f32, z: f32, swirl: bool) -> Terms {
        let p = [x - 0.5, y - 0.5, z - 0.5];
        let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
        // Angular perturbation of the shock radius (SASI-like sloshing):
        // evaluate low-frequency noise on the unit direction.
        let inv_r = if r > 1e-6 { 1.0 / r } else { 0.0 };
        let dir = [p[0] * inv_r, p[1] * inv_r, p[2] * inv_r];
        let wob = self.wobble.fbm(dir[0], dir[1], dir[2], 2.0);
        let shock_r = self.shock_radius * (1.0 + 0.35 * wob);
        let inside = r < shock_r;
        // Shell proximity in [0, 1]: 1 on the shock surface.
        let shell = (-((r - shock_r) / 0.02).powi(2)).exp();
        let turb = if inside {
            self.noise.fbm(x, y, z, 10.0)
        } else {
            0.15 * self.noise.fbm(x, y, z, 6.0)
        };
        Terms {
            p,
            r,
            shock_r,
            inside,
            shell,
            turb,
            swirl: if swirl {
                self.noise.fbm(y, z, x, 5.0)
            } else {
                0.0
            },
        }
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
                // Infall is strongest just outside the shock and fades
                // with distance, so renderings highlight the shock
                // region rather than a uniformly colored far field.
                let radial = if t.inside {
                    0.0
                } else {
                    -0.8 * (t.shock_r / t.r.max(1e-3)).powf(2.5)
                };
                let v = radial * t.p[axis] / t.r.max(1e-3)
                    + if t.inside { 0.9 * t.turb } else { 0.1 * t.turb }
                    + 0.4 * t.shell * t.p[axis].signum() * t.swirl;
                v.clamp(-1.0, 1.0)
            }
            _ => panic!("variable index {var} out of range (0..5)"),
        }
    }

    /// Sample variable `var` (0..5) at a point of the unit cube. Only
    /// the velocities evaluate the shell noise.
    pub fn sample_var(&self, var: usize, x: f32, y: f32, z: f32) -> f32 {
        Self::var_from(var, &self.terms(x, y, z, (2..5).contains(&var)))
    }

    /// All five variables at a point, in [`VAR_NAMES`] order, from one
    /// evaluation of the shared terms: bit for bit `sample_var(v, ..)`
    /// for each `v`.
    pub fn sample_all(&self, x: f32, y: f32, z: f32) -> [f32; 5] {
        let t = self.terms(x, y, z, true);
        std::array::from_fn(|var| Self::var_from(var, &t))
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
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn all_variables_at_once_are_each_variable_bit_for_bit(
            seed in 0u64..u64::MAX,
            step in 0u32..40,
            (a, b, c) in (0u32..2000, 0u32..2000, 0u32..2000),
            kind in 0u8..4,
            frac in 0u32..=1000,
        ) {
            let f = SupernovaField::at_time(seed, step as f32);
            let d = [a, b, c].map(|v| v as f32 / 1000.0 - 1.0);
            let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let dir = if n < 1e-3 { [1.0, 0.0, 0.0] } else { d.map(|v| v / n) };
            let at = |r: f32| dir.map(|v| 0.5 + r * v);
            // The shock radius depends on the direction only.
            let [x, y, z] = at(0.3);
            let shock = f.terms(x, y, z, false).shock_r;
            let frac = frac as f32 / 1000.0;
            let r = match kind {
                // No direction: the centre and points within 1e-6 of it.
                0 => frac * 9e-7,
                // Across the shock shell.
                1 => shock + (frac - 0.5) * 0.08,
                2 => frac * 0.95 * shock,
                _ => shock * (1.02 + frac),
            };
            let [x, y, z] = at(r);
            let t = f.terms(x, y, z, false);
            match kind {
                0 => proptest::prop_assert!(t.r < 1e-6, "r {}", t.r),
                2 => proptest::prop_assert!(t.inside),
                3 => proptest::prop_assert!(!t.inside),
                _ => {}
            }
            let all = f.sample_all(x, y, z);
            for (var, v) in all.iter().enumerate() {
                proptest::prop_assert_eq!(
                    v.to_bits(),
                    f.sample_var(var, x, y, z).to_bits(),
                    "variable {} at ({}, {}, {})", var, x, y, z
                );
            }
        }
    }

    #[test]
    fn closure_fields_work() {
        let f = |x: f32, _y: f32, _z: f32| x * 2.0;
        assert_eq!(f.sample(0.25, 0.0, 0.0), 0.5);
    }
}
