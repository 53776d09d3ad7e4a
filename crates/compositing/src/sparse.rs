//! Sparse subimage wire encoding: per-row run-length spans of
//! non-transparent pixels.
//!
//! A renderer's footprint rectangle is conservative — the projected
//! bounding box of its block — so most of its pixels are exactly
//! transparent (`[0.0; 4]`), and shipping them dense wastes most of the
//! compositing message volume. The sparse encoding keeps, per row, only
//! the runs of non-transparent pixels:
//!
//! ```text
//! header:  rect (x0, y0, w, h) + depth
//! per row: span count                      (1 word  = 4 wire bytes)
//! per span: start offset + length          (2 words = 8 wire bytes)
//! per pixel: RGBA payload                  (4 wire bytes, as dense)
//! ```
//!
//! Wire cost is priced with the same paper-scale model as the dense
//! format (4 bytes per RGBA pixel, see
//! [`WIRE_BYTES_PER_PIXEL`]); the per-row
//! and per-span headers are charged honestly, so a fully lit piece is
//! *more* expensive sparse than dense — which is why the exchange picks
//! the cheaper encoding per piece (the occupancy threshold is exactly
//! the break-even point of the two cost formulas).
//!
//! Skipping a transparent pixel is a bitwise no-op under *over*
//! (`out = front + 0.0 * t`, and the accumulators are never `-0.0`), so
//! sparse exchange is bit-identical to dense, not approximate.

use pvr_render::image::{PixelRect, Rgba, SubImage};

use crate::{WIRE_BYTES_PER_PIXEL, WIRE_BYTES_PER_ROW, WIRE_BYTES_PER_SPAN};

/// What one pass over a piece of a subimage finds — everything either
/// encoding's size depends on, so a sender scans a piece once to price
/// it, to choose its encoding and to size its wire body, and never
/// materializes an intermediate form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PieceScan {
    /// Rows and pixels of the piece.
    pub rows: usize,
    pub pixels: usize,
    /// Maximal horizontal runs of non-transparent pixels.
    pub spans: usize,
    /// Non-transparent pixels: the sparse encoding's payload.
    pub lit: usize,
}

impl PieceScan {
    /// Scan the `region` piece of `sub` (`region` within `sub.rect`).
    pub fn of(sub: &SubImage, region: &PixelRect) -> PieceScan {
        let (mut spans, mut lit) = (0, 0);
        for row in sub.rows(region) {
            for run in lit_runs(row) {
                spans += 1;
                lit += run.1.len();
            }
        }
        PieceScan {
            rows: region.h,
            pixels: region.num_pixels(),
            spans,
            lit,
        }
    }

    /// Wire cost of the piece under the paper's pricing: `(dense,
    /// sparse)` bytes.
    pub fn wire_bytes(&self) -> (u64, u64) {
        let dense = self.pixels as u64 * WIRE_BYTES_PER_PIXEL;
        let sparse = self.rows as u64 * WIRE_BYTES_PER_ROW
            + self.spans as u64 * WIRE_BYTES_PER_SPAN
            + self.lit as u64 * WIRE_BYTES_PER_PIXEL;
        (dense, sparse)
    }
}

/// The maximal runs of non-transparent pixels of one row, left to right:
/// `(start offset, pixels)` — the spans of the sparse encoding.
pub fn lit_runs(row: &[Rgba]) -> impl Iterator<Item = (usize, &[Rgba])> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let x0 = at + row[at..].iter().position(|p| *p != [0.0; 4])?;
        let len = row[x0..].iter().take_while(|p| **p != [0.0; 4]).count();
        at = x0 + len;
        Some((x0, &row[x0..at]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(rect: PixelRect) -> SubImage {
        let mut s = SubImage::transparent(rect, 3.5);
        for y in 0..rect.h {
            for x in 0..rect.w {
                if (x + y) % 2 == 0 {
                    s.pixels[y * rect.w + x] = [0.1 * x as f32, 0.2, 0.3, 0.5];
                }
            }
        }
        s
    }

    /// The accounting scan as it was before [`PieceScan`]: pixel by
    /// pixel through `SubImage::get`. Kept as the oracle.
    fn piece_wire_bytes(sub: &SubImage, region: &PixelRect) -> (u64, u64) {
        let dense = region.num_pixels() as u64 * WIRE_BYTES_PER_PIXEL;
        let mut sparse = region.h as u64 * WIRE_BYTES_PER_ROW;
        for y in region.y0..region.y1() {
            let mut open = false;
            for x in region.x0..region.x1() {
                if sub.get(x, y) == [0.0; 4] {
                    open = false;
                    continue;
                }
                if !open {
                    sparse += WIRE_BYTES_PER_SPAN;
                    open = true;
                }
                sparse += WIRE_BYTES_PER_PIXEL;
            }
        }
        (dense, sparse)
    }

    #[test]
    fn transparent_subimage_costs_only_row_headers() {
        let sub = SubImage::transparent(PixelRect::new(0, 0, 100, 10), 0.0);
        let scan = PieceScan::of(&sub, &sub.rect);
        assert_eq!((scan.spans, scan.lit), (0, 0));
        assert_eq!(
            scan.wire_bytes(),
            (sub.wire_bytes(), 10 * WIRE_BYTES_PER_ROW)
        );
    }

    #[test]
    fn fully_lit_subimage_costs_more_sparse_than_dense() {
        let mut sub = SubImage::transparent(PixelRect::new(0, 0, 16, 16), 0.0);
        sub.pixels.fill([0.5; 4]);
        let scan = PieceScan::of(&sub, &sub.rect);
        assert_eq!(
            (scan.rows, scan.pixels, scan.spans, scan.lit),
            (16, 256, 16, 256)
        );
        let (dense, sparse) = scan.wire_bytes();
        assert!(sparse > dense);
    }

    #[test]
    fn runs_are_the_maximal_lit_stretches_of_a_row() {
        let (o, x) = ([0.0f32; 4], [0.0f32, 0.0, 0.0, 0.25]);
        let row = [o, x, x, o, o, x, o, x];
        let runs: Vec<(usize, usize)> = lit_runs(&row).map(|(x0, px)| (x0, px.len())).collect();
        assert_eq!(runs, [(1, 2), (5, 1), (7, 1)]);
        assert_eq!(lit_runs(&[o, o]).count(), 0);
        assert_eq!(lit_runs(&[]).count(), 0);
        assert_eq!(lit_runs(&[x, x]).map(|r| r.0).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn scan_prices_a_piece_like_the_pixel_by_pixel_walk() {
        let sub = checkerboard(PixelRect::new(2, 2, 9, 7));
        for region in [
            sub.rect,
            PixelRect::new(3, 3, 4, 4),
            PixelRect::new(2, 2, 1, 7),
            PixelRect::new(10, 8, 1, 1),
        ] {
            let scan = PieceScan::of(&sub, &region);
            assert_eq!(scan.wire_bytes(), piece_wire_bytes(&sub, &region));
            let crop = sub.crop(&region).unwrap();
            assert_eq!(scan, PieceScan::of(&crop, &crop.rect));
        }
    }
}
