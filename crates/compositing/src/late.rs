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
//!   canonical `(depth, renderer)` order; a fragment inserted after a
//!   seal invalidates the cached blend and the next seal re-blends from
//!   scratch. Sealing early and sealing late are therefore
//!   bit-identical, which is what lets a recovered frame match the
//!   fault-free run exactly. Every message-passing tile, with or
//!   without a fault plan, seals here, so a frame's pixels cannot depend
//!   on message arrival order.
//!
//! Fragments stay in their wire bodies ([`WireFragment`]) and blend
//! from there; an adopted re-render is encoded like any sent fragment.

use pvr_render::image::{PixelRect, SubImage};

use crate::wire::WireFragment;

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

/// What became of one expected fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Missing,
    /// Its adopter ran out of budget: stop waiting, count it absent.
    Refused,
    Arrived,
}

/// One compositor tile's open late-arrival epoch.
#[derive(Debug)]
pub struct TileAssembly<'a> {
    tile: usize,
    rect: PixelRect,
    /// `(renderer, expected_pixels)` per scheduled fragment, ascending
    /// by renderer (the order of `FrameShared::sources_of`).
    expected: &'a [(usize, f64)],
    /// Per expected fragment, in the same order.
    slots: Vec<Slot>,
    /// How many slots are still `Missing`.
    outstanding: usize,
    /// Arrived fragments, in arrival order: `(renderer, quality, pixels)`.
    frags: Vec<(usize, f64, WireFragment)>,
    sealed: Option<SubImage>,
    pub duplicates: u64,
}

impl<'a> TileAssembly<'a> {
    pub fn new(tile: usize, rect: PixelRect, expected: &'a [(usize, f64)]) -> TileAssembly<'a> {
        debug_assert!(expected.windows(2).all(|w| w[0].0 < w[1].0));
        TileAssembly {
            tile,
            rect,
            expected,
            slots: vec![Slot::Missing; expected.len()],
            outstanding: expected.len(),
            frags: Vec::with_capacity(expected.len()),
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

    /// Index of `renderer` among the expected fragments.
    fn slot_of(&self, renderer: usize) -> Option<usize> {
        self.expected
            .binary_search_by_key(&renderer, |(r, _)| *r)
            .ok()
    }

    /// Offer a fragment (already cropped to the tile rect). Re-opens a
    /// sealed tile when the fragment is fresh.
    pub fn insert(&mut self, renderer: usize, quality: f64, frag: WireFragment) -> InsertOutcome {
        let Some(i) = self.slot_of(renderer) else {
            return InsertOutcome::Unexpected;
        };
        match self.slots[i] {
            Slot::Arrived => {
                self.duplicates += 1;
                return InsertOutcome::Duplicate;
            }
            Slot::Missing => self.outstanding -= 1,
            Slot::Refused => {}
        }
        self.slots[i] = Slot::Arrived;
        self.frags.push((renderer, quality, frag));
        self.sealed = None;
        InsertOutcome::Fresh
    }

    /// Record that `renderer`'s fragment will never arrive (its adopter
    /// ran out of budget): the tile stops waiting for it.
    pub fn refuse(&mut self, renderer: usize) {
        if let Some(i) = self.slot_of(renderer) {
            if self.slots[i] == Slot::Missing {
                self.slots[i] = Slot::Refused;
                self.outstanding -= 1;
            }
        }
    }

    /// Renderers still outstanding: expected, not arrived, not refused.
    pub fn missing(&self) -> Vec<usize> {
        let slots = self.expected.iter().zip(&self.slots);
        slots
            .filter(|(_, s)| **s == Slot::Missing)
            .map(|((r, _), _)| *r)
            .collect()
    }

    /// True when nothing is outstanding (every expected fragment either
    /// arrived or was refused).
    pub fn settled(&self) -> bool {
        self.outstanding == 0
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
        let px = |r: &usize| self.slot_of(*r).map_or(0.0, |i| self.expected[i].1);
        self.frags
            .iter()
            .map(|(r, q, _)| px(r) * q.clamp(0.0, 1.0))
            .sum()
    }

    /// Blend whatever has arrived, in the canonical order. Cached until
    /// the next fresh insert re-opens the tile.
    pub fn seal(&mut self) -> &SubImage {
        if self.sealed.is_none() {
            self.sealed = Some(self.blend());
        }
        self.sealed.as_ref().expect("just sealed")
    }

    /// Seal for the last time: the blend itself.
    pub fn into_blend(mut self) -> SubImage {
        self.sealed.take().unwrap_or_else(|| self.blend())
    }

    /// The arrived fragments blended front to back in the canonical
    /// `(depth, renderer)` order into a transparent tile.
    fn blend(&self) -> SubImage {
        let mut order: Vec<&(usize, f64, WireFragment)> = self.frags.iter().collect();
        order.sort_by(|a, b| a.2.depth.total_cmp(&b.2.depth).then(a.0.cmp(&b.0)));
        let mut buf = SubImage::transparent(self.rect, 0.0);
        for (_, _, frag) in order {
            frag.blend_into(&mut buf);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_fragment;

    fn frag(renderer: usize, rect: PixelRect, depth: f64, v: f32) -> WireFragment {
        let mut s = SubImage::transparent(rect, depth);
        for p in &mut s.pixels {
            *p = [v, v, v, 0.5];
        }
        WireFragment::new(encode_fragment(&[], renderer, &s, &rect).0, 0)
    }

    fn rect() -> PixelRect {
        PixelRect::new(0, 0, 4, 2)
    }

    #[test]
    fn seal_reopen_late_equals_one_shot_blend() {
        let expected = vec![(0usize, 8.0f64), (1, 8.0), (2, 8.0)];
        // One-shot: all three fragments up front.
        let mut oneshot = TileAssembly::new(0, rect(), &expected);
        for r in 0..3usize {
            oneshot.insert(r, 1.0, frag(r, rect(), r as f64, 0.1 + r as f32 * 0.2));
        }
        let want = oneshot.into_blend().pixels;

        // Incremental: seal early, then a late arrival re-opens.
        let mut inc = TileAssembly::new(0, rect(), &expected);
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
        assert_eq!(inc.into_blend().pixels, want);
    }

    #[test]
    fn first_wins_dedup_and_unexpected_rejection() {
        let mut t = TileAssembly::new(3, rect(), &[(5, 8.0), (7, 8.0)]);
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
        // Refusals by a stranger or for an arrived fragment count for
        // nothing; a repeated one counts once.
        t.refuse(9);
        t.refuse(5);
        assert!(!t.settled());
        t.refuse(7);
        t.refuse(7);
        assert!(t.settled());
        assert!(t.missing().is_empty());
    }

    #[test]
    fn refusal_settles_without_content_and_loses_to_a_real_fragment() {
        let mut t = TileAssembly::new(0, rect(), &[(1, 8.0), (2, 8.0)]);
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
        let mut t = TileAssembly::new(0, rect(), &[(1, 10.0)]);
        t.insert(1, 0.5, frag(1, rect(), 0.0, 0.2));
        assert_eq!(t.arrived_area(), 5.0);
    }
}
