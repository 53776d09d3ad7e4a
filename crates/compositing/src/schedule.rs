//! The direct-send message schedule.
//!
//! Built from block *footprints* alone — no pixel data — so paper-scale
//! schedules (32K renderers) are cheap to generate and can be fed
//! straight into the network simulator. "The number of compositors is
//! known at initialization time, and the schedule of messages is built
//! around this number from the beginning."

use pvr_render::image::PixelRect;

use crate::region::ImagePartition;
use crate::WIRE_BYTES_PER_PIXEL;

/// One renderer-to-compositor message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositeMessage {
    pub renderer: usize,
    /// Compositor index (0..m); the owning *rank* is assigned by the
    /// pipeline layer.
    pub compositor: usize,
    /// Overlap between the renderer's footprint and the compositor's
    /// span, in pixels.
    pub pixels: usize,
}

impl CompositeMessage {
    pub fn wire_bytes(&self) -> u64 {
        self.pixels as u64 * WIRE_BYTES_PER_PIXEL
    }
}

/// A complete direct-send schedule plus summary statistics.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub partition: ImagePartition,
    pub messages: Vec<CompositeMessage>,
}

impl Schedule {
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.wire_bytes()).sum()
    }

    /// Nominal per-message size the paper plots in Figure 4:
    /// `image_bytes / m`.
    pub fn nominal_message_bytes(&self) -> u64 {
        self.partition.num_pixels() as u64 * WIRE_BYTES_PER_PIXEL / self.partition.m() as u64
    }

    /// Messages received by each compositor.
    pub fn per_compositor_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.partition.m()];
        for m in &self.messages {
            counts[m.compositor] += 1;
        }
        counts
    }
}

/// Build the schedule for `n` renderers with the given screen
/// footprints, compositing into `m` regions of a `width x height` image.
/// Empty footprints contribute no messages.
pub fn build_schedule(footprints: &[PixelRect], partition: ImagePartition) -> Schedule {
    let mut messages = Vec::new();
    for (renderer, fp) in footprints.iter().enumerate() {
        for (compositor, pixels) in partition.overlaps(fp) {
            messages.push(CompositeMessage {
                renderer,
                compositor,
                pixels,
            });
        }
    }
    Schedule {
        partition,
        messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Footprints of a b^3 block lattice under an axis-aligned view that
    /// fills the image.
    fn lattice_footprints(b: usize, image: usize) -> Vec<PixelRect> {
        let mut fps = Vec::new();
        for _z in 0..b {
            for y in 0..b {
                for x in 0..b {
                    let x0 = x * image / b;
                    let x1 = (x + 1) * image / b;
                    let y0 = y * image / b;
                    let y1 = (y + 1) * image / b;
                    fps.push(PixelRect::new(x0, y0, x1 - x0, y1 - y0));
                }
            }
        }
        fps
    }

    #[test]
    fn message_count_scales_like_m_times_cuberoot_n() {
        // The paper: on average n^(1/3) messages to each of m
        // recipients. With a b^3 lattice, the b blocks stacked in depth
        // share a footprint, so each compositor hears from ~b = n^{1/3}
        // renderers per overlapping column.
        let image = 256;
        for b in [2usize, 4, 8] {
            let n = b * b * b;
            let fps = lattice_footprints(b, image);
            let part = ImagePartition::new(image, image, n);
            let s = build_schedule(&fps, part);
            let per = s.num_messages() as f64 / part.m() as f64;
            let nroot = (n as f64).cbrt();
            assert!(
                per >= nroot * 0.9 && per <= nroot * 3.0,
                "b={b}: {per} per compositor vs n^1/3={nroot}"
            );
        }
    }

    #[test]
    fn total_pixels_equal_footprint_pixels() {
        let fps = lattice_footprints(4, 128);
        let part = ImagePartition::new(128, 128, 16);
        let s = build_schedule(&fps, part);
        let sched_pixels: usize = s.messages.iter().map(|m| m.pixels).sum();
        let fp_pixels: usize = fps.iter().map(|f| f.num_pixels()).sum();
        assert_eq!(sched_pixels, fp_pixels);
    }

    #[test]
    fn fewer_compositors_mean_fewer_bigger_messages() {
        let fps = lattice_footprints(8, 512);
        let part_eq = ImagePartition::new(512, 512, 512);
        let part_lim = ImagePartition::new(512, 512, 64);
        let s_eq = build_schedule(&fps, part_eq);
        let s_lim = build_schedule(&fps, part_lim);
        assert!(s_lim.num_messages() < s_eq.num_messages());
        // Same pixels overall.
        assert_eq!(s_eq.total_bytes(), s_lim.total_bytes());
        let mean_eq = s_eq.total_bytes() as f64 / s_eq.num_messages() as f64;
        let mean_lim = s_lim.total_bytes() as f64 / s_lim.num_messages() as f64;
        assert!(mean_lim > mean_eq * 2.0, "{mean_lim} vs {mean_eq}");
    }

    #[test]
    fn nominal_message_size_matches_paper_axis() {
        // 1600^2, m = 256 -> 40 KB; m = 32768 -> 312 B (Figure 4 axis).
        let p1 = ImagePartition::new(1600, 1600, 256);
        assert_eq!(build_schedule(&[], p1).nominal_message_bytes(), 40_000);
        let p2 = ImagePartition::new(1600, 1600, 32_768);
        assert_eq!(build_schedule(&[], p2).nominal_message_bytes(), 312);
    }

    #[test]
    fn empty_footprints_send_nothing() {
        let fps = vec![PixelRect::new(0, 0, 0, 0); 10];
        let s = build_schedule(&fps, ImagePartition::new(64, 64, 8));
        assert_eq!(s.num_messages(), 0);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn per_compositor_counts_sum_to_total() {
        let fps = lattice_footprints(4, 64);
        let s = build_schedule(&fps, ImagePartition::new(64, 64, 9));
        let counts = s.per_compositor_counts();
        assert_eq!(counts.iter().sum::<usize>(), s.num_messages());
    }
}
