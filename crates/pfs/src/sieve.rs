//! Independent (non-collective) reads: the HDF5-like chunked path.
//!
//! Each process fetches the chunk runs its block overlaps, one access
//! per run, without inter-process coordination and without ROMIO-style
//! data sieving: the library never reads the gaps between chunk rows.

use pvr_formats::extent::Extent;

/// The accesses of an independent read and the bytes they move.
#[derive(Debug, Clone)]
pub struct SievePlan {
    pub accesses: Vec<Extent>,
    pub physical_bytes: u64,
}

/// One access per (already coalesced) extent of every process. Physical
/// bytes are summed across processes: re-reads of shared chunks by
/// neighbouring processes are counted, as they are in the paper's logs.
/// Callers that know the logically requested bytes compute density
/// themselves.
pub fn per_extent_plan(per_process: &[Vec<Extent>]) -> SievePlan {
    let mut accesses = Vec::new();
    for exts in per_process {
        accesses.extend(exts.iter().copied());
    }
    let physical_bytes = accesses.iter().map(|e| e.len).sum();
    SievePlan {
        accesses,
        physical_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_chunks_are_read_once_per_process() {
        let chunk = Extent::new(0, 1000);
        let p = per_extent_plan(&[vec![chunk, Extent::new(4000, 500)], vec![chunk], vec![]]);
        assert_eq!(p.accesses.len(), 3);
        assert_eq!(p.physical_bytes, 2500);
    }
}
