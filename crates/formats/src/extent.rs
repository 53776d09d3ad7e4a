//! Byte extents: the common currency between layouts and the
//! collective-I/O engine.

/// A half-open byte range `[offset, offset + len)` in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    pub offset: u64,
    pub len: u64,
}

impl Extent {
    pub fn new(offset: u64, len: u64) -> Self {
        Extent { offset, len }
    }

    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Intersection with another extent, if non-empty.
    pub fn intersect(&self, other: &Extent) -> Option<Extent> {
        let lo = self.offset.max(other.offset);
        let hi = self.end().min(other.end());
        (lo < hi).then(|| Extent::new(lo, hi - lo))
    }

    /// True if the two extents touch or overlap.
    pub fn mergeable(&self, other: &Extent) -> bool {
        self.offset <= other.end() && other.offset <= self.end()
    }
}

/// Sum of extent lengths (extents assumed disjoint).
pub fn total_bytes(extents: &[Extent]) -> u64 {
    extents.iter().map(|e| e.len).sum()
}

/// Sort extents and merge touching/overlapping neighbours into maximal
/// disjoint runs. The result is sorted and disjoint; overlapping input
/// bytes are counted once.
pub fn coalesce(extents: &mut Vec<Extent>) {
    extents.sort_by_key(|e| e.offset);
    merge_sorted(extents);
}

/// The merge of [`coalesce`] alone, for extents already sorted by
/// offset.
pub fn merge_sorted(extents: &mut Vec<Extent>) {
    extents.retain(|e| !e.is_empty());
    if extents.len() <= 1 {
        return;
    }
    let mut out = 0usize;
    for i in 1..extents.len() {
        let cur = extents[i];
        if extents[out].mergeable(&cur) {
            let end = extents[out].end().max(cur.end());
            extents[out].len = end - extents[out].offset;
        } else {
            out += 1;
            extents[out] = cur;
        }
    }
    extents.truncate(out + 1);
}

/// Bytes covered by the union of (possibly overlapping) extents.
pub fn union_bytes(extents: &[Extent]) -> u64 {
    let mut v = extents.to_vec();
    coalesce(&mut v);
    total_bytes(&v)
}

/// Intersect a sorted, disjoint extent list with a window, returning the
/// parts inside the window.
pub fn clip(extents: &[Extent], window: Extent) -> Vec<Extent> {
    extents
        .iter()
        .filter_map(|e| e.intersect(&window))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_cases() {
        let a = Extent::new(10, 10);
        assert_eq!(a.intersect(&Extent::new(15, 10)), Some(Extent::new(15, 5)));
        assert_eq!(a.intersect(&Extent::new(20, 5)), None);
        assert_eq!(a.intersect(&Extent::new(0, 100)), Some(a));
    }

    #[test]
    fn coalesce_merges_touching() {
        let mut v = vec![
            Extent::new(30, 5),
            Extent::new(0, 10),
            Extent::new(10, 10),
            Extent::new(22, 3),
        ];
        coalesce(&mut v);
        assert_eq!(
            v,
            vec![Extent::new(0, 20), Extent::new(22, 3), Extent::new(30, 5)]
        );
    }

    #[test]
    fn coalesce_merges_overlapping_and_drops_empty() {
        let mut v = vec![Extent::new(0, 10), Extent::new(5, 20), Extent::new(40, 0)];
        coalesce(&mut v);
        assert_eq!(v, vec![Extent::new(0, 25)]);
    }

    #[test]
    fn union_counts_overlap_once() {
        let v = vec![Extent::new(0, 10), Extent::new(5, 10)];
        assert_eq!(union_bytes(&v), 15);
        assert_eq!(total_bytes(&v), 20);
    }

    #[test]
    fn clip_to_window() {
        let v = vec![Extent::new(0, 10), Extent::new(20, 10), Extent::new(40, 10)];
        let c = clip(&v, Extent::new(5, 30));
        assert_eq!(c, vec![Extent::new(5, 5), Extent::new(20, 10)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_extents() -> impl Strategy<Value = Vec<Extent>> {
        proptest::collection::vec((0u64..10_000, 0u64..500), 0..64)
            .prop_map(|v| v.into_iter().map(|(o, l)| Extent::new(o, l)).collect())
    }

    proptest! {
        #[test]
        fn coalesced_is_sorted_and_disjoint(exts in arb_extents()) {
            let mut v = exts.clone();
            coalesce(&mut v);
            for w in v.windows(2) {
                // Strictly separated (a gap of at least one byte).
                prop_assert!(w[0].end() < w[1].offset);
            }
            // Union size is preserved.
            prop_assert_eq!(total_bytes(&v), union_bytes(&exts));
        }

        #[test]
        fn coalesce_preserves_membership(exts in arb_extents(), probe in 0u64..11_000) {
            let inside_before = exts.iter().any(|e| probe >= e.offset && probe < e.end());
            let mut v = exts;
            coalesce(&mut v);
            let inside_after = v.iter().any(|e| probe >= e.offset && probe < e.end());
            prop_assert_eq!(inside_before, inside_after);
        }
    }
}
