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

/// One horizontal run of non-transparent pixels.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Start offset within the row, relative to `rect.x0`.
    pub x0: u32,
    /// The run's pixels (premultiplied RGBA).
    pub pixels: Vec<Rgba>,
}

/// A [`SubImage`] with its transparent pixels elided.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSubImage {
    pub rect: PixelRect,
    pub depth: f64,
    /// `rect.h` rows of spans, top to bottom, spans left to right.
    pub rows: Vec<Vec<Span>>,
}

impl SparseSubImage {
    /// Encode a subimage (lossless: [`SparseSubImage::decode`] returns
    /// a bit-identical pixel buffer).
    pub fn encode(sub: &SubImage) -> Self {
        let rect = sub.rect;
        let mut rows = Vec::with_capacity(rect.h);
        for y in 0..rect.h {
            let row = &sub.pixels[y * rect.w..(y + 1) * rect.w];
            let mut spans: Vec<Span> = Vec::new();
            let mut open = false;
            for (x, &p) in row.iter().enumerate() {
                if p == [0.0; 4] {
                    open = false;
                    continue;
                }
                if !open {
                    spans.push(Span {
                        x0: x as u32,
                        pixels: Vec::new(),
                    });
                    open = true;
                }
                spans.last_mut().unwrap().pixels.push(p);
            }
            rows.push(spans);
        }
        SparseSubImage {
            rect,
            depth: sub.depth,
            rows,
        }
    }

    /// Reconstruct the dense subimage (elided pixels become `[0.0; 4]`,
    /// which is what they were).
    pub fn decode(&self) -> SubImage {
        let mut sub = SubImage::transparent(self.rect, self.depth);
        for (y, spans) in self.rows.iter().enumerate() {
            for span in spans {
                let base = y * self.rect.w + span.x0 as usize;
                sub.pixels[base..base + span.pixels.len()].copy_from_slice(&span.pixels);
            }
        }
        sub
    }

    pub fn num_spans(&self) -> usize {
        self.rows.iter().map(|r| r.len()).sum()
    }

    pub fn payload_pixels(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter().map(|s| s.pixels.len()))
            .sum()
    }

    /// Honest wire cost of this encoding under the paper's pricing.
    pub fn wire_bytes(&self) -> u64 {
        sparse_cost(self.rect.h, self.num_spans(), self.payload_pixels())
    }
}

/// Sparse wire cost formula shared by the encoder and the in-place
/// accounting scans.
#[inline]
pub fn sparse_cost(rows: usize, spans: usize, payload_pixels: usize) -> u64 {
    rows as u64 * WIRE_BYTES_PER_ROW
        + spans as u64 * WIRE_BYTES_PER_SPAN
        + payload_pixels as u64 * WIRE_BYTES_PER_PIXEL
}

/// Wire cost of shipping the `region` piece of `sub`, without
/// materializing an encoding: `(dense, sparse)` bytes. `region` must be
/// contained in `sub.rect`.
pub fn piece_wire_bytes(sub: &SubImage, region: &PixelRect) -> (u64, u64) {
    let dense = region.num_pixels() as u64 * WIRE_BYTES_PER_PIXEL;
    let mut spans = 0usize;
    let mut payload = 0usize;
    for y in region.y0..region.y1() {
        let mut open = false;
        for x in region.x0..region.x1() {
            if sub.get(x, y) == [0.0; 4] {
                open = false;
                continue;
            }
            if !open {
                spans += 1;
                open = true;
            }
            payload += 1;
        }
    }
    (dense, sparse_cost(region.h, spans, payload))
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

    #[test]
    fn roundtrip_is_bit_identical() {
        for sub in [
            checkerboard(PixelRect::new(3, 5, 7, 4)),
            SubImage::transparent(PixelRect::new(0, 0, 6, 6), 1.0),
            {
                let mut s = SubImage::transparent(PixelRect::new(1, 1, 5, 3), 2.0);
                s.pixels.fill([0.2, 0.3, 0.4, 0.9]);
                s
            },
        ] {
            let enc = SparseSubImage::encode(&sub);
            let dec = enc.decode();
            assert_eq!(dec.rect, sub.rect);
            assert_eq!(dec.depth, sub.depth);
            assert_eq!(dec.pixels, sub.pixels);
        }
    }

    #[test]
    fn transparent_subimage_costs_only_row_headers() {
        let sub = SubImage::transparent(PixelRect::new(0, 0, 100, 10), 0.0);
        let enc = SparseSubImage::encode(&sub);
        assert_eq!(enc.num_spans(), 0);
        assert_eq!(enc.wire_bytes(), 10 * WIRE_BYTES_PER_ROW);
        assert!(enc.wire_bytes() < sub.wire_bytes());
    }

    #[test]
    fn fully_lit_subimage_costs_more_sparse_than_dense() {
        let mut sub = SubImage::transparent(PixelRect::new(0, 0, 16, 16), 0.0);
        sub.pixels.fill([0.5; 4]);
        let enc = SparseSubImage::encode(&sub);
        assert_eq!(enc.payload_pixels(), 256);
        assert_eq!(enc.num_spans(), 16);
        assert!(enc.wire_bytes() > sub.wire_bytes());
    }

    #[test]
    fn piece_scan_matches_encoder_on_crops() {
        let sub = checkerboard(PixelRect::new(2, 2, 9, 7));
        for region in [
            sub.rect,
            PixelRect::new(3, 3, 4, 4),
            PixelRect::new(2, 2, 1, 7),
        ] {
            let (dense, sparse) = piece_wire_bytes(&sub, &region);
            let crop = sub.crop(&region).unwrap();
            assert_eq!(dense, crop.wire_bytes());
            assert_eq!(sparse, SparseSubImage::encode(&crop).wire_bytes());
        }
    }
}
