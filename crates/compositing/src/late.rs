//! Late-arrival tile assembly: the compositing-side half of orphan
//! adoption.
//!
//! A fault-tolerant compositor no longer blends fragments as a closed
//! batch: a renderer may die and its fragment may arrive *late*, re-sent
//! by an adopting survivor, possibly more than once (a hedged duplicate
//! racing the straggling original). [`TileAssembly`] owns one tile's
//! open epoch:
//!
//! * **first-wins dedup** by renderer id — whichever copy of a block's
//!   fragment lands first is kept; the loser is counted, not blended.
//!   Adoption re-renders are deterministic, so either copy produces the
//!   same pixels and the race cannot affect the image.
//! * **re-open on late arrival** — sealing blends the fragments in the
//!   canonical `(depth, renderer)` order of [`blend_fragments`]; a
//!   fragment inserted after a seal invalidates the cached blend and
//!   the next seal re-blends from scratch. Sealing early and sealing
//!   late are therefore bit-identical, which is what lets a recovered
//!   frame match the fault-free run exactly.

use pvr_render::image::{PixelRect, SubImage};

use crate::directsend::blend_fragments;

/// Outcome of offering a fragment to an open tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// First copy for this renderer: accepted and will be blended.
    Fresh,
    /// A copy for this renderer already arrived; this one is discarded
    /// (first-wins).
    Duplicate,
    /// The renderer is not expected on this tile; discarded.
    Unexpected,
}

/// One compositor tile's open late-arrival epoch.
#[derive(Debug)]
pub struct TileAssembly {
    tile: usize,
    rect: PixelRect,
    /// `(renderer, expected_pixels)` per scheduled fragment.
    expected: Vec<(usize, f64)>,
    /// Arrived fragments: `(renderer, quality, pixels)`.
    frags: Vec<(usize, f64, SubImage)>,
    /// Renderers that explicitly refused (budget-exhausted adopter):
    /// stop waiting for them, count them absent.
    refused: Vec<usize>,
    sealed: Option<SubImage>,
    pub duplicates: u64,
}

impl TileAssembly {
    pub fn new(tile: usize, rect: PixelRect, expected: Vec<(usize, f64)>) -> TileAssembly {
        TileAssembly {
            tile,
            rect,
            expected,
            frags: Vec::new(),
            refused: Vec::new(),
            sealed: None,
            duplicates: 0,
        }
    }

    pub fn tile(&self) -> usize {
        self.tile
    }

    pub fn rect(&self) -> PixelRect {
        self.rect
    }

    /// Offer a fragment (already cropped to the tile rect). Re-opens a
    /// sealed tile when the fragment is fresh.
    pub fn insert(&mut self, renderer: usize, quality: f64, frag: SubImage) -> InsertOutcome {
        if !self.expected.iter().any(|(r, _)| *r == renderer) {
            return InsertOutcome::Unexpected;
        }
        if self.frags.iter().any(|(r, _, _)| *r == renderer) {
            self.duplicates += 1;
            return InsertOutcome::Duplicate;
        }
        self.refused.retain(|r| *r != renderer);
        self.frags.push((renderer, quality, frag));
        self.sealed = None;
        InsertOutcome::Fresh
    }

    /// Record that `renderer`'s fragment will never arrive (its adopter
    /// ran out of budget): the tile stops waiting for it.
    pub fn refuse(&mut self, renderer: usize) {
        if self.frags.iter().any(|(r, _, _)| *r == renderer) {
            return;
        }
        if !self.refused.contains(&renderer) {
            self.refused.push(renderer);
        }
    }

    /// Renderers still outstanding: expected, not arrived, not refused.
    pub fn missing(&self) -> Vec<usize> {
        self.expected
            .iter()
            .map(|(r, _)| *r)
            .filter(|r| !self.frags.iter().any(|(fr, _, _)| fr == r) && !self.refused.contains(r))
            .collect()
    }

    /// True when nothing is outstanding (every expected fragment either
    /// arrived or was refused).
    pub fn settled(&self) -> bool {
        self.missing().is_empty()
    }

    /// Expected blended area of the tile.
    pub fn expected_area(&self) -> f64 {
        self.expected.iter().map(|(_, px)| *px).sum()
    }

    /// Fragments that arrived (first copies only).
    pub fn arrived(&self) -> usize {
        self.frags.len()
    }

    /// Blended area that actually arrived, quality-weighted.
    pub fn arrived_area(&self) -> f64 {
        self.frags
            .iter()
            .map(|(r, q, _)| {
                let px = self
                    .expected
                    .iter()
                    .find(|(er, _)| er == r)
                    .map(|(_, px)| *px)
                    .unwrap_or(0.0);
                px * q.clamp(0.0, 1.0)
            })
            .sum()
    }

    /// Blend whatever has arrived, in the canonical order. Cached until
    /// the next fresh insert re-opens the tile.
    pub fn seal(&mut self) -> &SubImage {
        if self.sealed.is_none() {
            let frags: Vec<(usize, SubImage)> =
                self.frags.iter().map(|(r, _, f)| (*r, f.clone())).collect();
            self.sealed = Some(blend_fragments(self.rect, frags));
        }
        self.sealed.as_ref().expect("just sealed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(renderer: usize, rect: PixelRect, depth: f64, v: f32) -> SubImage {
        let mut s = SubImage::transparent(rect, depth);
        for p in &mut s.pixels {
            *p = [v, v, v, 0.5];
        }
        let _ = renderer;
        s
    }

    fn rect() -> PixelRect {
        PixelRect::new(0, 0, 4, 2)
    }

    #[test]
    fn seal_reopen_late_equals_one_shot_blend() {
        let expected = vec![(0usize, 8.0f64), (1, 8.0), (2, 8.0)];
        // One-shot: all three fragments up front.
        let mut oneshot = TileAssembly::new(0, rect(), expected.clone());
        for r in 0..3usize {
            oneshot.insert(r, 1.0, frag(r, rect(), r as f64, 0.1 + r as f32 * 0.2));
        }
        let want = oneshot.seal().pixels.clone();

        // Incremental: seal early, then a late arrival re-opens.
        let mut inc = TileAssembly::new(0, rect(), expected);
        inc.insert(0, 1.0, frag(0, rect(), 0.0, 0.1));
        inc.insert(2, 1.0, frag(2, rect(), 2.0, 0.5));
        let early = inc.seal().pixels.clone();
        assert_ne!(early, want, "partial blend must differ");
        assert_eq!(inc.missing(), vec![1]);
        // Late fragment arrives out of depth order; canonical re-blend
        // restores bit-identity.
        assert_eq!(
            inc.insert(1, 1.0, frag(1, rect(), 1.0, 0.3)),
            InsertOutcome::Fresh
        );
        assert!(inc.settled());
        assert_eq!(inc.seal().pixels, want);
    }

    #[test]
    fn first_wins_dedup_and_unexpected_rejection() {
        let mut t = TileAssembly::new(3, rect(), vec![(5, 8.0), (7, 8.0)]);
        assert_eq!(
            t.insert(5, 1.0, frag(5, rect(), 0.0, 0.2)),
            InsertOutcome::Fresh
        );
        // A hedged duplicate (identical by construction) is discarded.
        assert_eq!(
            t.insert(5, 1.0, frag(5, rect(), 0.0, 0.2)),
            InsertOutcome::Duplicate
        );
        assert_eq!(t.duplicates, 1);
        assert_eq!(
            t.insert(9, 1.0, frag(9, rect(), 0.0, 0.9)),
            InsertOutcome::Unexpected
        );
        assert_eq!(t.missing(), vec![7]);
        assert!(!t.settled());
    }

    #[test]
    fn refusal_settles_without_content_and_loses_to_a_real_fragment() {
        let mut t = TileAssembly::new(0, rect(), vec![(1, 8.0), (2, 8.0)]);
        t.insert(1, 1.0, frag(1, rect(), 0.0, 0.2));
        t.refuse(2);
        assert!(t.settled());
        assert_eq!(t.expected_area(), 16.0);
        assert_eq!(t.arrived_area(), 8.0);
        // The straggling original still lands if it makes it after all.
        assert_eq!(
            t.insert(2, 1.0, frag(2, rect(), 1.0, 0.4)),
            InsertOutcome::Fresh
        );
        assert_eq!(t.arrived_area(), 16.0);
    }

    #[test]
    fn quality_weights_arrived_area() {
        let mut t = TileAssembly::new(0, rect(), vec![(1, 10.0)]);
        t.insert(1, 0.5, frag(1, rect(), 0.0, 0.2));
        assert_eq!(t.arrived_area(), 5.0);
    }
}
