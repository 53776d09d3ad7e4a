//! Direct-send compositing with a decoupled compositor count.
//!
//! Each of `m` compositors owns one span of the final image and blends,
//! front to back, the fragments of every renderer whose footprint
//! overlaps its span (Hsu's direct-send, as in the paper). The paper's
//! improvement — `m < n` when `n` grows past ~1K — is just a different
//! [`ImagePartition`]; the algorithm is identical.
//!
//! Compositors run in parallel (rayon), mirroring the machine where each
//! compositor is an independent core.

use rayon::prelude::*;

use pvr_render::image::{over, Image, PixelRect, SubImage};

use crate::region::ImagePartition;
use crate::serial::visibility_order;
use crate::sparse::PieceScan;

/// Message-level statistics of one direct-send execution (what actually
/// got exchanged, cross-checkable against the precomputed
/// [`crate::Schedule`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirectSendStats {
    /// Total renderer-to-compositor messages.
    pub messages: usize,
    /// Honest wire bytes: each piece ships in whichever of the dense
    /// (4 bytes/pixel of overlap) or sparse (run-length spans of
    /// non-transparent pixels, see [`crate::sparse`]) encoding is
    /// smaller.
    pub bytes: u64,
    /// What dense shipping would have cost — the old accounting, and
    /// exactly what [`crate::Schedule::total_bytes`] predicts from
    /// footprints alone (the schedule cannot see pixel occupancy).
    pub dense_bytes: u64,
    /// Of [`DirectSendStats::messages`], how many chose the sparse
    /// encoding.
    pub sparse_messages: usize,
    /// Messages received per compositor.
    pub per_compositor: Vec<usize>,
}

/// Blend the `ov` piece of `sub` behind what `buf` (a compositor's tile
/// buffer, `ov` within `buf.rect`) already holds, skipping the (bitwise
/// no-op) transparent pixels and counting the lit runs in the same pass:
/// the returned scan is the one a sender's [`PieceScan::of`] finds, so
/// the piece is priced without walking it twice.
fn blend_piece(buf: &mut SubImage, sub: &SubImage, ov: &PixelRect) -> PieceScan {
    let tile = buf.rect;
    let (mut spans, mut lit) = (0, 0);
    for (y, row) in (ov.y0..).zip(sub.rows(ov)) {
        let row_at = (y - tile.y0) * tile.w + (ov.x0 - tile.x0);
        let mut open = false;
        for (acc, &p) in buf.pixels[row_at..][..row.len()].iter_mut().zip(row) {
            if p == [0.0; 4] {
                open = false;
                continue;
            }
            spans += usize::from(!open);
            open = true;
            lit += 1;
            *acc = over(*acc, p);
        }
    }
    PieceScan {
        rows: ov.h,
        pixels: ov.num_pixels(),
        spans,
        lit,
    }
}

/// Composite `subs` into the final image using `m = partition.m`
/// compositors.
pub fn composite_direct_send(
    subs: &[SubImage],
    partition: ImagePartition,
) -> (Image, DirectSendStats) {
    composite_direct_send_traced(subs, partition, &pvr_obs::Tracer::disabled())
}

/// The one direct-send body: each compositor blends the overlapping
/// fragment of every subimage, in visibility order, into its tile
/// buffer, and the tiles are pasted into the final image.
///
/// Each compositor's blend becomes a `composite.tile` span on its own
/// track (args: messages blended and wire bytes), making per-compositor
/// load imbalance visible on the timeline. A disabled tracer records
/// nothing.
pub fn composite_direct_send_traced(
    subs: &[SubImage],
    partition: ImagePartition,
    tracer: &pvr_obs::Tracer,
) -> (Image, DirectSendStats) {
    let order = visibility_order(subs);
    let results: Vec<(SubImage, DirectSendStats)> = (0..partition.m())
        .into_par_iter()
        .map(|c| {
            let track = c as pvr_obs::span::TrackId;
            tracer.begin(track, "composite.tile");
            let tile = partition.tile(c);
            let mut buf = SubImage::transparent(tile, 0.0);
            let mut st = DirectSendStats::default();
            for &i in &order {
                let sub = &subs[i];
                let Some(ov) = sub.rect.intersect(&tile) else {
                    continue;
                };
                let (dense, sparse) = blend_piece(&mut buf, sub, &ov).wire_bytes();
                st.messages += 1;
                st.dense_bytes += dense;
                if sparse < dense {
                    st.sparse_messages += 1;
                    st.bytes += sparse;
                } else {
                    st.bytes += dense;
                }
            }
            tracer.end_args(
                track,
                "composite.tile",
                pvr_obs::Args::two("messages", st.messages as u64, "bytes", st.bytes),
            );
            (buf, st)
        })
        .collect();

    // Gather compositor tiles into the final image.
    let mut img = Image::new(partition.width, partition.height);
    let mut stats = DirectSendStats::default();
    for (buf, st) in results {
        img.paste(&buf);
        stats.messages += st.messages;
        stats.bytes += st.bytes;
        stats.dense_bytes += st.dense_bytes;
        stats.sparse_messages += st.sparse_messages;
        stats.per_compositor.push(st.messages);
    }
    (img, stats)
}

/// Blend received fragments into a compositor's tile buffer in the
/// canonical `(depth, renderer)` order. Every message-passing tile,
/// with or without a fault plan, seals through this one function
/// ([`crate::TileAssembly`]), so a frame's pixels cannot depend on
/// message arrival order — the property the bit-identity and recovery
/// tests pin.
///
/// Every fragment must already be cropped to `tile`.
pub fn blend_fragments(tile: PixelRect, mut frags: Vec<(usize, SubImage)>) -> SubImage {
    frags.sort_by(|a, b| a.1.depth.total_cmp(&b.1.depth).then(a.0.cmp(&b.0)));
    let mut buf = SubImage::transparent(tile, 0.0);
    for (_, frag) in &frags {
        blend_piece(&mut buf, frag, &frag.rect);
    }
    buf
}

/// Convenience: footprint rectangles of a set of subimages (inputs to
/// [`crate::build_schedule`] when real subimages exist).
pub fn footprints(subs: &[SubImage]) -> Vec<PixelRect> {
    subs.iter().map(|s| s.rect).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite_serial;
    use pvr_obs::Tracer;

    fn solid(rect: PixelRect, rgba: [f32; 4], depth: f64) -> SubImage {
        let mut s = SubImage::transparent(rect, depth);
        s.pixels.fill(rgba);
        s
    }

    fn random_subs(seed: u64, n: usize, w: usize, h: usize) -> Vec<SubImage> {
        // Simple deterministic LCG so tests need no rand dependency here.
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m.max(1)
        };
        (0..n)
            .map(|i| {
                let x0 = next(w - 2);
                let y0 = next(h - 2);
                let rw = 1 + next(w - x0 - 1);
                let rh = 1 + next(h - y0 - 1);
                let mut s =
                    SubImage::transparent(PixelRect::new(x0, y0, rw, rh), next(1000) as f64);
                for p in s.pixels.iter_mut() {
                    *p = [
                        next(100) as f32 / 100.0 * 0.5,
                        next(100) as f32 / 100.0 * 0.5,
                        next(100) as f32 / 100.0 * 0.5,
                        next(100) as f32 / 100.0 * 0.6,
                    ];
                }
                let _ = i;
                s
            })
            .collect()
    }

    #[test]
    fn matches_serial_for_any_m() {
        let subs = random_subs(7, 24, 32, 32);
        let reference = composite_serial(&subs, 32, 32);
        for m in [1usize, 2, 5, 16, 24, 100] {
            let (img, stats) = composite_direct_send(&subs, ImagePartition::new(32, 32, m));
            let d = img.max_abs_diff(&reference);
            assert!(d < 1e-5, "m={m}: max diff {d}");
            assert_eq!(stats.per_compositor.len(), m);
            assert_eq!(stats.per_compositor.iter().sum::<usize>(), stats.messages);
        }
    }

    #[test]
    fn stats_match_schedule_prediction() {
        let subs = random_subs(11, 16, 64, 64);
        let part = ImagePartition::new(64, 64, 12);
        let (_, stats) = composite_direct_send(&subs, part);
        let sched = crate::build_schedule(&footprints(&subs), part);
        assert_eq!(stats.messages, sched.num_messages());
        // The schedule prices footprints dense (it cannot see pixel
        // occupancy); honest bytes pick the cheaper encoding per piece.
        assert_eq!(stats.dense_bytes, sched.total_bytes());
        assert!(stats.bytes <= stats.dense_bytes);
        assert_eq!(stats.per_compositor, sched.per_compositor_counts());
    }

    #[test]
    fn sparse_footprints_ship_fewer_honest_bytes() {
        // A footprint with one lit pixel per row: dense pricing charges
        // the whole rectangle, honest pricing only headers + payload.
        let mut sub = SubImage::transparent(PixelRect::new(0, 0, 32, 32), 0.0);
        for y in 0..32 {
            sub.pixels[y * 32 + (y % 32)] = [0.1, 0.2, 0.3, 0.9];
        }
        let part = ImagePartition::new(32, 32, 4);
        let (img, stats) = composite_direct_send(std::slice::from_ref(&sub), part);
        assert_eq!(stats.dense_bytes, 32 * 32 * 4);
        assert!(stats.bytes < stats.dense_bytes, "{:?}", stats);
        assert_eq!(stats.sparse_messages, stats.messages);
        // And the image is still exact.
        let reference = composite_serial(std::slice::from_ref(&sub), 32, 32);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn opaque_front_hides_back_across_span_boundaries() {
        let front = solid(PixelRect::new(0, 0, 8, 8), [0.0, 0.0, 1.0, 1.0], 0.0);
        let back = solid(PixelRect::new(0, 0, 8, 8), [1.0, 0.0, 0.0, 1.0], 9.0);
        let (img, _) = composite_direct_send(&[back, front], ImagePartition::new(8, 8, 7));
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(img.get(x, y), [0.0, 0.0, 1.0, 1.0]);
            }
        }
    }

    #[test]
    fn fewer_compositors_fewer_messages_same_image() {
        let subs = random_subs(3, 64, 64, 64);
        let (img_n, stats_n) = composite_direct_send(&subs, ImagePartition::new(64, 64, 64));
        let (img_m, stats_m) = composite_direct_send(&subs, ImagePartition::new(64, 64, 8));
        assert!(stats_m.messages < stats_n.messages);
        assert!(img_n.max_abs_diff(&img_m) < 1e-5);
    }

    #[test]
    fn tracing_records_one_span_per_tile_and_changes_nothing() {
        let subs = random_subs(13, 20, 32, 32);
        let part = ImagePartition::new(32, 32, 6);
        let (img, stats) = composite_direct_send(&subs, part);
        let tracer = Tracer::wall();
        let (img_t, stats_t) = composite_direct_send_traced(&subs, part, &tracer);
        assert_eq!(img.pixels(), img_t.pixels(), "must be bit-identical");
        assert_eq!(stats, stats_t);
        let profile = tracer.finish();
        for c in 0..6 {
            let spans = profile.events_for(c).filter(|e| e.name == "composite.tile");
            assert_eq!(spans.count(), 2, "tile {c}: one begin, one end");
        }
    }

    #[test]
    fn no_subimages_gives_empty_image_and_no_messages() {
        let (img, stats) = composite_direct_send(&[], ImagePartition::new(16, 16, 4));
        assert_eq!(stats.messages, 0);
        assert!(img.pixels().iter().all(|p| *p == [0.0; 4]));
    }
}
