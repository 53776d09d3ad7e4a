//! Pixel rectangles, subimages, and final images.
//!
//! A renderer produces a [`SubImage`]: premultiplied RGBA over the
//! screen-space footprint of its block, plus a depth key for visibility
//! ordering. Compositing reduces many subimages into an [`Image`].

use std::io::Write;
use std::path::Path;

/// An axis-aligned rectangle of pixels `[x0, x0+w) x [y0, y0+h)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelRect {
    pub x0: usize,
    pub y0: usize,
    pub w: usize,
    pub h: usize,
}

impl PixelRect {
    pub fn new(x0: usize, y0: usize, w: usize, h: usize) -> Self {
        PixelRect { x0, y0, w, h }
    }

    pub fn num_pixels(&self) -> usize {
        self.w * self.h
    }

    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    pub fn x1(&self) -> usize {
        self.x0 + self.w
    }

    pub fn y1(&self) -> usize {
        self.y0 + self.h
    }

    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x1() && y >= self.y0 && y < self.y1()
    }

    /// Intersection, or `None` if disjoint.
    pub fn intersect(&self, o: &PixelRect) -> Option<PixelRect> {
        let x0 = self.x0.max(o.x0);
        let y0 = self.y0.max(o.y0);
        let x1 = self.x1().min(o.x1());
        let y1 = self.y1().min(o.y1());
        (x0 < x1 && y0 < y1).then(|| PixelRect::new(x0, y0, x1 - x0, y1 - y0))
    }
}

/// Premultiplied RGBA pixel: `(r, g, b)` already weighted by coverage,
/// `a` the accumulated opacity. The *over* operator for premultiplied
/// colors is `out = front + back * (1 - a_front)`.
pub type Rgba = [f32; 4];

/// Blend `back` behind `front` (both premultiplied).
#[inline]
pub fn over(front: Rgba, back: Rgba) -> Rgba {
    let t = 1.0 - front[3];
    [
        front[0] + back[0] * t,
        front[1] + back[1] * t,
        front[2] + back[2] * t,
        front[3] + back[3] * t,
    ]
}

/// A rectangular fragment of the final image produced by one renderer,
/// with a depth key for visibility sorting.
#[derive(Debug, Clone)]
pub struct SubImage {
    pub rect: PixelRect,
    /// Row-major within `rect`.
    pub pixels: Vec<Rgba>,
    /// Depth of the originating block's centroid along the view
    /// direction: smaller = nearer the viewer.
    pub depth: f64,
}

impl SubImage {
    pub fn transparent(rect: PixelRect, depth: f64) -> Self {
        SubImage {
            rect,
            pixels: vec![[0.0; 4]; rect.num_pixels()],
            depth,
        }
    }

    pub fn get(&self, x: usize, y: usize) -> Rgba {
        debug_assert!(self.rect.contains(x, y));
        self.pixels[(y - self.rect.y0) * self.rect.w + (x - self.rect.x0)]
    }

    /// Payload size in bytes when shipped to a compositor, matching the
    /// paper's wire format of 4 bytes per pixel (RGBA8).
    pub fn wire_bytes(&self) -> u64 {
        self.rect.num_pixels() as u64 * 4
    }

    /// The rows of the part of this subimage inside `region` (which
    /// must lie within `rect`), top to bottom, borrowed in place.
    pub fn rows(&self, region: &PixelRect) -> impl Iterator<Item = &[Rgba]> + '_ {
        debug_assert!(region.is_empty() || self.rect.intersect(region) == Some(*region));
        let (x, w) = (region.x0 - self.rect.x0, region.w);
        let (y, stride) = (region.y0 - self.rect.y0, self.rect.w);
        (y..y + region.h).map(move |y| &self.pixels[y * stride + x..][..w])
    }

    /// Extract the part of this subimage inside `r` as a new subimage.
    pub fn crop(&self, r: &PixelRect) -> Option<SubImage> {
        let rect = self.rect.intersect(r)?;
        let mut pixels = Vec::with_capacity(rect.num_pixels());
        for row in self.rows(&rect) {
            pixels.extend_from_slice(row);
        }
        Some(SubImage {
            rect,
            pixels,
            depth: self.depth,
        })
    }
}

/// A full image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<Rgba>,
}

impl Image {
    pub fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            pixels: vec![[0.0; 4]; width * height],
        }
    }

    pub fn size(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    pub fn pixels(&self) -> &[Rgba] {
        &self.pixels
    }

    pub fn get(&self, x: usize, y: usize) -> Rgba {
        self.pixels[y * self.width + x]
    }

    pub fn set(&mut self, x: usize, y: usize, p: Rgba) {
        self.pixels[y * self.width + x] = p;
    }

    /// Paste a subimage's pixels (no blending — used to assemble the
    /// final image from compositor-owned regions).
    pub fn paste(&mut self, s: &SubImage) {
        for y in s.rect.y0..s.rect.y1() {
            for x in s.rect.x0..s.rect.x1() {
                self.set(x, y, s.get(x, y));
            }
        }
    }

    /// Mean absolute difference per channel against another image
    /// (compositing-equivalence metric in tests).
    pub fn mean_abs_diff(&self, o: &Image) -> f64 {
        assert_eq!(self.size(), o.size());
        let mut sum = 0.0f64;
        for (a, b) in self.pixels.iter().zip(&o.pixels) {
            for c in 0..4 {
                sum += (a[c] - b[c]).abs() as f64;
            }
        }
        sum / (self.pixels.len() * 4) as f64
    }

    /// Maximum absolute channel difference against another image. A
    /// channel that is NaN on both sides matches; any other pair whose
    /// difference is NaN (NaN on one side only, or `∞ - ∞`) differs by
    /// `f64::INFINITY`, so a NaN pixel never compares as clean.
    pub fn max_abs_diff(&self, o: &Image) -> f64 {
        assert_eq!(self.size(), o.size());
        let mut m = 0.0f64;
        for (a, b) in self.pixels.iter().zip(&o.pixels) {
            for (&x, &y) in a.iter().zip(b) {
                let d = (x - y).abs();
                m = m.max(if !d.is_nan() {
                    d as f64
                } else if x == y || (x.is_nan() && y.is_nan()) {
                    0.0
                } else {
                    f64::INFINITY
                });
            }
        }
        m
    }

    /// Write as binary PPM (P6) over a background color, un-premultiplying
    /// against it.
    pub fn write_ppm(&self, path: &Path, background: [f32; 3]) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(self.width * self.height * 3 + 32);
        write!(out, "P6\n{} {}\n255\n", self.width, self.height)?;
        for p in &self.pixels {
            let t = 1.0 - p[3];
            for c in 0..3 {
                let v = (p[c] + background[c] * t).clamp(0.0, 1.0);
                out.push((v * 255.0 + 0.5) as u8);
            }
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_intersection() {
        let a = PixelRect::new(0, 0, 10, 10);
        let b = PixelRect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(PixelRect::new(5, 5, 5, 5)));
        let c = PixelRect::new(20, 20, 5, 5);
        assert_eq!(a.intersect(&c), None);
        assert!(a.contains(9, 9));
        assert!(!a.contains(10, 9));
    }

    #[test]
    fn over_identities() {
        let p: Rgba = [0.3, 0.2, 0.1, 0.6];
        // Transparent front is identity.
        assert_eq!(over([0.0; 4], p), p);
        // Opaque front hides the back.
        let opaque: Rgba = [1.0, 0.0, 0.0, 1.0];
        assert_eq!(over(opaque, p), opaque);
    }

    #[test]
    fn over_is_associative() {
        let a: Rgba = [0.2, 0.1, 0.0, 0.3];
        let b: Rgba = [0.0, 0.4, 0.1, 0.5];
        let c: Rgba = [0.1, 0.1, 0.6, 0.7];
        let left = over(over(a, b), c);
        let right = over(a, over(b, c));
        for i in 0..4 {
            assert!((left[i] - right[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn subimage_crop() {
        let mut s = SubImage::transparent(PixelRect::new(2, 3, 4, 4), 1.0);
        s.pixels[0] = [1.0, 0.0, 0.0, 1.0]; // pixel (2,3)
        let c = s.crop(&PixelRect::new(0, 0, 3, 4)).unwrap();
        assert_eq!(c.rect, PixelRect::new(2, 3, 1, 1));
        assert_eq!(c.get(2, 3), [1.0, 0.0, 0.0, 1.0]);
        assert!(s.crop(&PixelRect::new(50, 50, 2, 2)).is_none());
    }

    #[test]
    fn wire_bytes_match_paper_scaling() {
        // 1600^2 image split over 256 compositors: 1600*1600/256 = 10000
        // pixels = 40 KB per region, the first x-axis point of the
        // paper's Figure 4.
        let region_pixels = 1600 * 1600 / 256;
        let s = SubImage::transparent(PixelRect::new(0, 0, region_pixels, 1), 0.0);
        assert_eq!(s.wire_bytes(), 40_000);
    }

    #[test]
    fn image_paste_and_diff() {
        let mut img = Image::new(8, 8);
        let mut s = SubImage::transparent(PixelRect::new(4, 4, 2, 2), 0.0);
        s.pixels.fill([0.5, 0.5, 0.5, 1.0]);
        img.paste(&s);
        assert_eq!(img.get(5, 5), [0.5, 0.5, 0.5, 1.0]);
        assert_eq!(img.get(0, 0), [0.0; 4]);
        let img2 = Image::new(8, 8);
        assert!(img.mean_abs_diff(&img2) > 0.0);
        assert_eq!(img.max_abs_diff(&img.clone()), 0.0);
    }

    #[test]
    fn max_abs_diff_sees_nan() {
        let clean = Image::new(4, 4);
        let mut nan = clean.clone();
        nan.set(2, 1, [0.0, f32::NAN, 0.0, 0.0]);
        assert_eq!(nan.max_abs_diff(&clean), f64::INFINITY);
        assert_eq!(clean.max_abs_diff(&nan), f64::INFINITY);
        assert_eq!(nan.max_abs_diff(&nan.clone()), 0.0);
        let mut inf = clean.clone();
        inf.set(0, 0, [f32::INFINITY; 4]);
        assert_eq!(inf.max_abs_diff(&inf.clone()), 0.0);
        let mut neg = clean.clone();
        neg.set(0, 0, [f32::NEG_INFINITY; 4]);
        assert_eq!(inf.max_abs_diff(&neg), f64::INFINITY);
    }

    #[test]
    fn ppm_round_trip_header() {
        let img = Image::new(3, 2);
        let dir = std::env::temp_dir().join(format!("pvr-img-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ppm");
        img.write_ppm(&p, [1.0, 1.0, 1.0]).unwrap();
        let data = std::fs::read(&p).unwrap();
        assert!(data.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(data.len(), b"P6\n3 2\n255\n".len() + 18);
        // Transparent over white background = white.
        assert_eq!(data[data.len() - 1], 255);
        std::fs::remove_file(&p).ok();
    }
}
