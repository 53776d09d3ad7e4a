//! Image-region ownership for direct-send compositing.
//!
//! The final `W x H` image is split into a grid of `mx x my = m`
//! rectangular tiles, one per compositor. 2D tiles (rather than
//! scanline bands) are what gives direct-send its `O(n^{1/3})`
//! messages-per-compositor behaviour: with `m = n`, a block's square
//! screen footprint of area `A/n^{2/3}` overlaps about `n^{1/3}` tiles
//! of area `A/n` — the scaling the paper quotes.

use pvr_render::image::PixelRect;

/// Partition of a `width x height` image into an `mx x my` tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImagePartition {
    pub width: usize,
    pub height: usize,
    mx: usize,
    my: usize,
}

impl ImagePartition {
    /// Partition into exactly `m` tiles, factoring `m` into the
    /// near-squarest `mx x my` pair that fits the image (every tile is
    /// at least one pixel).
    pub fn new(width: usize, height: usize, m: usize) -> Self {
        assert!(m >= 1 && m <= width * height, "need 1 <= m <= pixels");
        let (mx, my) = Self::factor(width, height, m);
        ImagePartition {
            width,
            height,
            mx,
            my,
        }
    }

    /// Choose `mx * my == m` with tile aspect closest to square.
    fn factor(width: usize, height: usize, m: usize) -> (usize, usize) {
        let mut best = (m, 1);
        let mut best_score = f64::INFINITY;
        let mut d = 1;
        while d * d <= m {
            if m.is_multiple_of(d) {
                for (a, b) in [(d, m / d), (m / d, d)] {
                    if a <= width && b <= height {
                        // Tile aspect ratio distance from 1.
                        let tw = width as f64 / a as f64;
                        let th = height as f64 / b as f64;
                        let score = (tw / th).max(th / tw);
                        if score < best_score {
                            best_score = score;
                            best = (a, b);
                        }
                    }
                }
            }
            d += 1;
        }
        assert!(
            best.0 <= width && best.1 <= height,
            "cannot tile {width}x{height} into {m} regions"
        );
        best
    }

    pub fn num_pixels(&self) -> usize {
        self.width * self.height
    }

    /// Number of compositors (tiles).
    pub fn m(&self) -> usize {
        self.mx * self.my
    }

    /// Tile-grid dimensions.
    pub fn grid(&self) -> (usize, usize) {
        (self.mx, self.my)
    }

    /// The pixel rectangle owned by compositor `c`.
    pub fn tile(&self, c: usize) -> PixelRect {
        assert!(c < self.m());
        let ix = c % self.mx;
        let iy = c / self.mx;
        let x0 = ix * self.width / self.mx;
        let x1 = (ix + 1) * self.width / self.mx;
        let y0 = iy * self.height / self.my;
        let y1 = (iy + 1) * self.height / self.my;
        PixelRect::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// The compositor owning pixel `(x, y)`.
    pub fn owner_of(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        let find = |v: usize, n: usize, cells: usize| -> usize {
            // Largest i with i*n/cells <= v.
            let mut i = (v * cells) / n;
            while (i + 1) * n / cells <= v {
                i += 1;
            }
            while i * n / cells > v {
                i -= 1;
            }
            i
        };
        let ix = find(x, self.width, self.mx);
        let iy = find(y, self.height, self.my);
        iy * self.mx + ix
    }

    /// The distinct compositors whose tiles overlap `rect`, with the
    /// overlap size in pixels, in compositor order.
    pub fn overlaps<'a>(
        &'a self,
        rect: &'a PixelRect,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        // Tile-grid cells of the rect's corners; an empty rect spans the
        // empty range `1..=0` on both axes.
        let ((ix0, iy0), (ix1, iy1)) = if rect.is_empty() {
            ((1, 1), (0, 0))
        } else {
            let c0 = self.owner_of(rect.x0, rect.y0);
            let c1 = self.owner_of(rect.x1() - 1, rect.y1() - 1);
            ((c0 % self.mx, c0 / self.mx), (c1 % self.mx, c1 / self.mx))
        };
        (iy0..=iy1)
            .flat_map(move |iy| (ix0..=ix1).map(move |ix| iy * self.mx + ix))
            .filter_map(move |c| Some((c, self.tile(c).intersect(rect)?.num_pixels())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_partition_the_image() {
        for m in [1usize, 3, 7, 64, 100] {
            let p = ImagePartition::new(40, 25, m);
            assert_eq!(p.m(), m);
            let total: usize = (0..m).map(|c| p.tile(c).num_pixels()).sum();
            assert_eq!(total, 1000, "m={m}");
            // Tiles are disjoint: every pixel has exactly one owner.
            for y in 0..25 {
                for x in 0..40 {
                    let c = p.owner_of(x, y);
                    assert!(p.tile(c).contains(x, y), "pixel ({x},{y}) owner {c}");
                }
            }
        }
    }

    #[test]
    fn factor_prefers_square_tiles() {
        let p = ImagePartition::new(256, 256, 64);
        assert_eq!(p.grid(), (8, 8));
        let p = ImagePartition::new(512, 128, 32);
        let (mx, my) = p.grid();
        assert!(mx > my, "wide image should split more in x: {mx}x{my}");
    }

    #[test]
    fn overlaps_count_every_rect_pixel_once() {
        let p = ImagePartition::new(64, 64, 36);
        let rect = PixelRect::new(5, 10, 40, 30);
        let ov: Vec<_> = p.overlaps(&rect).collect();
        let total: usize = ov.iter().map(|(_, n)| n).sum();
        assert_eq!(total, rect.num_pixels());
        let mut cs: Vec<usize> = ov.iter().map(|(c, _)| *c).collect();
        cs.sort_unstable();
        cs.dedup();
        assert_eq!(cs.len(), ov.len());
    }

    #[test]
    fn full_image_rect_touches_all_compositors() {
        let p = ImagePartition::new(16, 16, 8);
        let ov: Vec<_> = p.overlaps(&PixelRect::new(0, 0, 16, 16)).collect();
        assert_eq!(ov.len(), 8);
        for (c, n) in ov {
            assert_eq!(n, p.tile(c).num_pixels());
        }
    }

    #[test]
    fn footprint_overlap_scales_like_cube_root() {
        // m = n = 4096 on 1600^2: tiles 25x25 px; a 1600/16=100 px
        // square footprint overlaps ~(100/25+1)^2 = 25 tiles ~ n^{1/3}.
        let p = ImagePartition::new(1600, 1600, 4096);
        let ov = p.overlaps(&PixelRect::new(703, 703, 100, 100)).count();
        assert!((16..=36).contains(&ov), "overlaps {ov}");
    }

    #[test]
    #[should_panic(expected = "need 1 <= m")]
    fn zero_compositors_panics() {
        ImagePartition::new(8, 8, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn overlap_counts_match_brute_force(
            w in 4usize..48, h in 4usize..48, m in 1usize..40,
            rx in 0usize..16, ry in 0usize..16, rw in 1usize..24, rh in 1usize..24,
        ) {
            prop_assume!(rx + rw <= w && ry + rh <= h);
            // A prime m must fit as a 1 x m (or m x 1) grid.
            prop_assume!(m <= h || m <= w);
            let p = ImagePartition::new(w, h, m);
            let rect = PixelRect::new(rx, ry, rw, rh);
            let mut brute = std::collections::BTreeMap::new();
            for y in ry..ry + rh {
                for x in rx..rx + rw {
                    *brute.entry(p.owner_of(x, y)).or_insert(0usize) += 1;
                }
            }
            let got: std::collections::BTreeMap<usize, usize> = p.overlaps(&rect).collect();
            prop_assert_eq!(got, brute);
        }

        #[test]
        fn tiles_are_an_exact_partition(w in 4usize..64, h in 4usize..64, m in 1usize..32) {
            prop_assume!(m <= h || m <= w);
            let p = ImagePartition::new(w, h, m);
            let total: usize = (0..p.m()).map(|c| p.tile(c).num_pixels()).sum();
            prop_assert_eq!(total, w * h);
        }
    }
}
