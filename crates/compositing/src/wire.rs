//! The fragment wire format, and compositing straight from it.
//!
//! A fragment travels as little-endian words behind its message's own
//! header: `[renderer, x0, y0, w, h, depth, format]`, then the pixels —
//! dense (every pixel of the rect, row-major, four `f32`s each) or
//! sparse (per row a span count, per span a start offset and a length,
//! then its pixels; see [`crate::sparse`]). [`encode_fragment`] picks
//! the shorter body per fragment.
//!
//! A receiver does not decode a fragment into a [`SubImage`]: it keeps
//! the body as a [`WireFragment`] and blends its rows straight into the
//! tile ([`WireFragment::blend_into`]), the way Usher et al.'s
//! Distributed FrameBuffer consumes fragments as they are delivered.
//! [`WireFragment::decode`] survives as the test oracle.

use pvr_render::image::{over, Image, PixelRect, Rgba, SubImage};

use crate::sparse::{lit_runs, PieceScan};

/// Format word of a dense body.
const FRAG_DENSE: u64 = 0;
/// Format word of a sparse (run-length span) body.
const FRAG_SPARSE: u64 = 1;

/// Bytes of a fragment's own header, `[renderer, x0, y0, w, h, depth,
/// format]`.
const FRAG_HEADER: usize = 56;

/// Append `words` little-endian.
pub fn push_words(msg: &mut Vec<u8>, words: &[u64]) {
    for word in words {
        msg.extend_from_slice(&word.to_le_bytes());
    }
}

/// A message that starts with `header`'s little-endian words, with room
/// for `payload` more bytes. Every message of the frame protocol is
/// such a header and a payload; [`Words`] reads the header back.
pub fn with_header(header: &[u64], payload: usize) -> Vec<u8> {
    let mut msg = Vec::with_capacity(header.len() * 8 + payload);
    push_words(&mut msg, header);
    msg
}

/// Reader of the header words at the front of a message body; `.0` is
/// what is left after the words read so far.
pub struct Words<'a>(pub &'a [u8]);

impl Words<'_> {
    pub fn u64(&mut self) -> u64 {
        let (word, rest) = self
            .0
            .split_first_chunk()
            .expect("message header cut short");
        self.0 = rest;
        u64::from_le_bytes(*word)
    }

    pub fn index(&mut self) -> usize {
        self.u64() as usize
    }

    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

/// Encode the `piece` of `s` (a rect within `s.rect`) as a fragment
/// behind `header`, dense or sparse, chosen by actual encoded size. One
/// scan of the piece sizes both bodies — and is returned, so the sender
/// prices the fragment from the same pass — and the chosen one is
/// written straight from `s`' rows: no cropped copy, no span tree, one
/// allocation. The sparse body round-trips bit-identically: elided
/// pixels read back as `[0.0; 4]`, which is what they were.
pub fn encode_fragment(
    header: &[u64],
    renderer: usize,
    s: &SubImage,
    piece: &PixelRect,
) -> (Vec<u8>, PieceScan) {
    let scan = PieceScan::of(s, piece);
    let dense_body = scan.pixels * 16;
    // Real encoded body sizes: per row a span count, per span a start
    // offset + length, per kept pixel four f32s.
    let sparse_body = scan.rows * 8 + scan.spans * 16 + scan.lit * 16;
    let sparse = sparse_body < dense_body;

    let mut out = with_header(header, FRAG_HEADER + dense_body.min(sparse_body));
    push_words(
        &mut out,
        &[renderer, piece.x0, piece.y0, piece.w, piece.h].map(|v| v as u64),
    );
    let format = if sparse { FRAG_SPARSE } else { FRAG_DENSE };
    push_words(&mut out, &[s.depth.to_bits(), format]);
    // Grow once per run, then fill it channel by channel.
    let push_pixels = |out: &mut Vec<u8>, pixels: &[Rgba]| {
        let at = out.len();
        out.resize(at + pixels.len() * 16, 0);
        for (q, c) in out[at..].chunks_exact_mut(4).zip(pixels.iter().flatten()) {
            q.copy_from_slice(&c.to_le_bytes());
        }
    };
    for row in s.rows(piece) {
        if sparse {
            // The row's span count goes in front of its spans: written
            // once they are counted.
            let at = out.len();
            push_words(&mut out, &[0]);
            let mut spans = 0u64;
            for (x0, run) in lit_runs(row) {
                push_words(&mut out, &[x0 as u64, run.len() as u64]);
                push_pixels(&mut out, run);
                spans += 1;
            }
            out[at..at + 8].copy_from_slice(&spans.to_le_bytes());
        } else {
            push_pixels(&mut out, row);
        }
    }
    (out, scan)
}

/// One pixel from its 16 wire bytes.
fn pixel(q: &[u8]) -> Rgba {
    std::array::from_fn(|c| {
        f32::from_le_bytes([q[4 * c], q[4 * c + 1], q[4 * c + 2], q[4 * c + 3]])
    })
}

/// A received fragment, read in place: its header parsed, its pixels
/// still the message body they arrived in.
#[derive(Debug)]
pub struct WireFragment {
    body: Vec<u8>,
    /// Offset of the first pixel byte (past both headers).
    pixels_at: usize,
    sparse: bool,
    pub renderer: usize,
    pub rect: PixelRect,
    /// Depth of the originating block, the visibility key.
    pub depth: f64,
}

impl WireFragment {
    /// The fragment that starts `at` bytes into `body` (behind its
    /// message's header words).
    ///
    /// # Panics
    /// If the fragment header is cut short or names an unknown format.
    pub fn new(body: Vec<u8>, at: usize) -> WireFragment {
        let mut h = Words(&body[at..]);
        let renderer = h.index();
        let rect = PixelRect::new(h.index(), h.index(), h.index(), h.index());
        let (depth, format) = (h.f64(), h.u64());
        assert!(
            format == FRAG_DENSE || format == FRAG_SPARSE,
            "unknown fragment format {format}"
        );
        WireFragment {
            pixels_at: at + FRAG_HEADER,
            sparse: format == FRAG_SPARSE,
            renderer,
            rect,
            depth,
            body,
        }
    }

    /// Every stored run of pixels, top to bottom: `f(row, first column,
    /// wire bytes)`, both offsets relative to the rect. A dense row is
    /// one run; a sparse row is its spans.
    fn runs(&self, mut f: impl FnMut(usize, usize, &[u8])) {
        let (w, sparse) = (self.rect.w, self.sparse);
        let mut h = Words(&self.body[self.pixels_at..]);
        for y in 0..self.rect.h {
            let spans = if sparse { h.index() } else { 1 };
            for _ in 0..spans {
                let (x0, len) = if sparse {
                    (h.index(), h.index())
                } else {
                    (0, w)
                };
                assert!(
                    x0 + len <= w,
                    "fragment span {x0}+{len} past its row of {w}"
                );
                let (run, rest) = h.0.split_at(len * 16);
                f(y, x0, run);
                h.0 = rest;
            }
        }
    }

    /// Blend the fragment behind what `buf` holds (its rect must lie
    /// within `buf.rect`), skipping the transparent pixels — a bitwise
    /// no-op under *over* — exactly as a decoded fragment would blend.
    pub fn blend_into(&self, buf: &mut SubImage) {
        let (tile, rect) = (buf.rect, self.rect);
        assert!(
            rect.is_empty() || tile.intersect(&rect) == Some(rect),
            "fragment {rect:?} outside its tile {tile:?}"
        );
        self.runs(|y, x0, run| {
            let at = (rect.y0 + y - tile.y0) * tile.w + rect.x0 + x0 - tile.x0;
            for (acc, q) in buf.pixels[at..].iter_mut().zip(run.chunks_exact(16)) {
                let p = pixel(q);
                if p != [0.0; 4] {
                    *acc = over(*acc, p);
                }
            }
        });
    }

    /// Write the fragment's rect into `img`, as pasting its decoded
    /// subimage would: elided pixels become `[0.0; 4]`.
    pub fn paste_into(&self, img: &mut Image) {
        let rect = self.rect;
        for y in rect.y0..rect.y1() {
            for x in rect.x0..rect.x1() {
                img.set(x, y, [0.0; 4]);
            }
        }
        self.runs(|y, x0, run| {
            for (x, q) in (rect.x0 + x0..).zip(run.chunks_exact(16)) {
                img.set(x, rect.y0 + y, pixel(q));
            }
        });
    }

    /// The fragment as a subimage: the decoder the frame no longer runs,
    /// kept as the oracle [`WireFragment::blend_into`] and
    /// [`WireFragment::paste_into`] are tested against.
    pub fn decode(&self) -> SubImage {
        let mut sub = SubImage::transparent(self.rect, self.depth);
        let w = self.rect.w;
        self.runs(|y, x0, run| {
            for (p, q) in sub.pixels[y * w + x0..]
                .iter_mut()
                .zip(run.chunks_exact(16))
            {
                *p = pixel(q);
            }
        });
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pixels: &[Rgba]) -> Vec<[u32; 4]> {
        pixels.iter().map(|p| p.map(f32::to_bits)).collect()
    }

    /// The fragment encoder as it was before it wrote the body in one
    /// pass: crop the piece out, build the span tree, then serialize
    /// whichever body is shorter. Kept as the oracle.
    mod oracle {
        use super::*;

        struct Span {
            x0: usize,
            pixels: Vec<Rgba>,
        }

        /// Per row, the spans of non-transparent pixels.
        fn sparse_rows(sub: &SubImage) -> Vec<Vec<Span>> {
            let mut rows = Vec::with_capacity(sub.rect.h);
            for row in sub.pixels.chunks_exact(sub.rect.w.max(1)) {
                let mut spans: Vec<Span> = Vec::new();
                let mut open = false;
                for (x, &p) in row.iter().enumerate() {
                    if p == [0.0; 4] {
                        open = false;
                        continue;
                    }
                    if !open {
                        let pixels = Vec::new();
                        spans.push(Span { x0: x, pixels });
                        open = true;
                    }
                    spans.last_mut().unwrap().pixels.push(p);
                }
                rows.push(spans);
            }
            rows
        }

        pub fn encode_fragment(header: &[u64], renderer: usize, s: &SubImage) -> Vec<u8> {
            let rows = sparse_rows(s);
            let spans: usize = rows.iter().map(Vec::len).sum();
            let payload: usize = rows.iter().flatten().map(|sp| sp.pixels.len()).sum();
            let dense_body = s.pixels.len() * 16;
            let sparse_body = s.rect.h * 8 + spans * 16 + payload * 16;

            let mut out = with_header(header, 56 + dense_body.min(sparse_body));
            out.extend((renderer as u64).to_le_bytes());
            out.extend((s.rect.x0 as u64).to_le_bytes());
            out.extend((s.rect.y0 as u64).to_le_bytes());
            out.extend((s.rect.w as u64).to_le_bytes());
            out.extend((s.rect.h as u64).to_le_bytes());
            out.extend(s.depth.to_le_bytes());
            if sparse_body < dense_body {
                out.extend(FRAG_SPARSE.to_le_bytes());
                for row in &rows {
                    out.extend((row.len() as u64).to_le_bytes());
                    for span in row {
                        out.extend((span.x0 as u64).to_le_bytes());
                        out.extend((span.pixels.len() as u64).to_le_bytes());
                        for p in &span.pixels {
                            for c in p {
                                out.extend(c.to_le_bytes());
                            }
                        }
                    }
                }
            } else {
                out.extend(FRAG_DENSE.to_le_bytes());
                for p in &s.pixels {
                    for c in p {
                        out.extend(c.to_le_bytes());
                    }
                }
            }
            out
        }
    }

    /// A subimage over `rect` lit by `pattern`: 0 transparent, 1 full,
    /// 2 checkerboard, 3 one lit column, 4 one lit row, else random at
    /// `density` percent.
    fn patterned(rect: PixelRect, pattern: u8, density: u64, seed: u64) -> SubImage {
        let mut rng = proptest::Rng::seeded(seed | 1);
        let mut sub = SubImage::transparent(rect, -1.5 + seed as f64);
        for (i, p) in sub.pixels.iter_mut().enumerate() {
            let (x, y) = (i % rect.w, i / rect.w);
            let roll = rng.below(100);
            let lit = match pattern {
                0 => false,
                1 => true,
                2 => (x + y) % 2 == 0,
                3 => x == rect.w / 2,
                4 => y == rect.h / 2,
                _ => roll < density,
            };
            if lit {
                // Premultiplied, with exact-zero channels: a pixel is
                // transparent only when all four are zero.
                *p = [rng.below(1 << 20) as f32 / 1e6, 0.0, 0.0, 0.5];
            }
        }
        sub
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// For random subimages (every lighting pattern, 1-pixel-wide
        /// ones included) and random tile clips (touching each edge,
        /// covering everything, missing entirely), the one-pass encoder
        /// writes the bytes the crop-and-span-tree encoder wrote, they
        /// decode to the crop bit for bit, the scan that sized them is
        /// the crop's, and the in-place reader blends and pastes them as
        /// the decoded crop would.
        #[test]
        fn one_pass_encoder_writes_the_oracles_bytes_and_blends_like_them(
            shape in (0usize..6, 0usize..6, 1usize..24, 1usize..16),
            clip in (0usize..30, 0usize..24, 1usize..30, 1usize..24),
            pattern in 0u8..7,
            density in 0u64..101,
            seed in 0u64..1_000_000,
        ) {
            let rect = PixelRect::new(shape.0, shape.1, shape.2, shape.3);
            let sub = patterned(rect, pattern, density, seed);
            let clip = PixelRect::new(clip.0, clip.1, clip.2, clip.3);
            for clip in [clip, sub.rect, PixelRect::new(0, 0, 64, 64)] {
                let crop = sub.crop(&clip);
                proptest::prop_assert_eq!(crop.as_ref().map(|c| c.rect), sub.rect.intersect(&clip));
                let Some(crop) = crop else { continue };
                let header = [seed, 7];
                let (body, scan) = encode_fragment(&header, 11, &sub, &crop.rect);
                proptest::prop_assert_eq!(&body, &oracle::encode_fragment(&header, 11, &crop));
                proptest::prop_assert_eq!(body.capacity(), body.len());
                proptest::prop_assert_eq!(scan, PieceScan::of(&crop, &crop.rect));
                let frag = WireFragment::new(body, 16);
                let back = frag.decode();
                proptest::prop_assert_eq!(frag.renderer, 11);
                proptest::prop_assert_eq!(back.rect, crop.rect);
                proptest::prop_assert_eq!(back.depth.to_bits(), crop.depth.to_bits());
                proptest::prop_assert_eq!(bits(&back.pixels), bits(&crop.pixels));

                // Blending and pasting from the wire is blending and
                // pasting the decoded crop, bit for bit, over a tile
                // that already holds something.
                let tile = PixelRect::new(0, 0, 40, 30);
                let mut under = patterned(tile, 5, 50, seed ^ 0x55);
                under.pixels.iter_mut().for_each(|p| p[3] *= 0.5);
                let (mut want, mut got) = (under.clone(), under);
                for (i, &p) in back.pixels.iter().enumerate() {
                    let (x, y) = (back.rect.x0 + i % back.rect.w, back.rect.y0 + i / back.rect.w);
                    if p != [0.0; 4] {
                        let acc = &mut want.pixels[y * tile.w + x];
                        *acc = over(*acc, p);
                    }
                }
                frag.blend_into(&mut got);
                proptest::prop_assert_eq!(bits(&got.pixels), bits(&want.pixels));
                let mut want = Image::new(40, 30);
                want.set(crop.rect.x0, crop.rect.y0, [1.0; 4]);
                let mut got = want.clone();
                want.paste(&back);
                frag.paste_into(&mut got);
                proptest::prop_assert_eq!(bits(got.pixels()), bits(want.pixels()));
            }
        }
    }
}
