//! Minimal 3-vector algebra for the renderer (f64 for ray geometry so
//! sample positions are bit-identical regardless of which block
//! evaluates them).

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A 3-component f64 vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    pub fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    pub fn normalized(self) -> Vec3 {
        let l = self.length();
        assert!(l > 0.0, "normalizing zero vector");
        self / l
    }

    /// Componentwise reciprocal.
    pub(crate) fn recip(self) -> Vec3 {
        Vec3::new(1.0 / self.x, 1.0 / self.y, 1.0 / self.z)
    }

    pub fn get(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("axis {axis} out of range"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A ray `origin + t * dir`, with `dir` normalized by construction.
#[derive(Debug, Clone, Copy)]
pub struct Ray {
    pub origin: Vec3,
    pub dir: Vec3,
}

impl Ray {
    pub fn at(&self, t: f64) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Slab intersection with the axis-aligned box `[lo, hi]`; returns
    /// `(t_enter, t_exit)` when the ray passes through (with
    /// `t_exit > t_enter >= t_min`).
    pub fn intersect_box(&self, lo: Vec3, hi: Vec3, t_min: f64) -> Option<(f64, f64)> {
        self.intersect_box_inv(self.dir.recip(), lo, hi, t_min)
    }

    /// [`Ray::intersect_box`] given `inv = dir.recip()`, for callers whose
    /// rays share a direction (an orthographic camera): three divisions
    /// once instead of three a box. The same products, bit for bit.
    #[inline]
    pub(crate) fn intersect_box_inv(
        &self,
        inv: Vec3,
        lo: Vec3,
        hi: Vec3,
        t_min: f64,
    ) -> Option<(f64, f64)> {
        let mut t0 = t_min;
        let mut t1 = f64::INFINITY;
        for a in 0..3 {
            let o = self.origin.get(a);
            let d = self.dir.get(a);
            let (l, h) = (lo.get(a), hi.get(a));
            if d.abs() < 1e-12 {
                if o < l || o > h {
                    return None;
                }
            } else {
                let inv = inv.get(a);
                let (mut ta, mut tb) = ((l - o) * inv, (h - o) * inv);
                if ta > tb {
                    std::mem::swap(&mut ta, &mut tb);
                }
                t0 = t0.max(ta);
                t1 = t1.min(tb);
                if t0 >= t1 {
                    return None;
                }
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(a.cross(b), Vec3::new(-3.0, 6.0, -3.0));
        assert_eq!((a + b).x, 5.0);
        assert_eq!((b - a).z, 3.0);
        assert_eq!((a * 2.0).y, 4.0);
        assert!((Vec3::new(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-12);
        assert!((Vec3::new(0.0, 0.0, 9.0).normalized().z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn box_intersection_through_center() {
        let r = Ray {
            origin: Vec3::new(-1.0, 0.5, 0.5),
            dir: Vec3::new(1.0, 0.0, 0.0),
        };
        let (t0, t1) = r.intersect_box(Vec3::ZERO, Vec3::splat(1.0), 0.0).unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn box_miss() {
        let r = Ray {
            origin: Vec3::new(-1.0, 2.0, 0.5),
            dir: Vec3::new(1.0, 0.0, 0.0),
        };
        assert!(r.intersect_box(Vec3::ZERO, Vec3::splat(1.0), 0.0).is_none());
    }

    #[test]
    fn box_intersection_diagonal() {
        let r = Ray {
            origin: Vec3::new(-1.0, -1.0, -1.0),
            dir: Vec3::new(1.0, 1.0, 1.0).normalized(),
        };
        let (t0, t1) = r.intersect_box(Vec3::ZERO, Vec3::splat(2.0), 0.0).unwrap();
        assert!(t1 > t0 && t0 > 0.0);
        let p = r.at(t0);
        assert!(p.x.abs() < 1e-9 && p.y.abs() < 1e-9 && p.z.abs() < 1e-9);
    }

    #[test]
    fn ray_from_inside_box() {
        let r = Ray {
            origin: Vec3::splat(0.5),
            dir: Vec3::new(0.0, 0.0, 1.0),
        };
        let (t0, t1) = r.intersect_box(Vec3::ZERO, Vec3::splat(1.0), 0.0).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-12);
    }
}
