//! # pvr-formats — scientific file formats for the I/O study
//!
//! The paper's I/O analysis (Section V, Figures 7–10) hinges on *file
//! layout*: where, physically in the file, the bytes of one variable of
//! a 3D structured grid live. This crate implements the file layouts the
//! paper studies, both as **extent maps** (logical subvolume → physical
//! `(offset, len)` extents, consumed by the collective-I/O engine in
//! `pvr-pfs`) and as **real readers/writers** that materialize and read
//! actual files at laptop scale:
//!
//! * [`layout::RawLayout`] — one bare variable, contiguous 32-bit
//!   little-endian, no header ("raw mode").
//! * [`layout::NetCdfClassicLayout`] — netCDF classic *record
//!   variables*: the five variables are interleaved record by record
//!   (one record = one 2D z-slice), exactly the organization of
//!   Figure 8. Big-endian, as the classic format requires.
//! * [`layout::NetCdf64Layout`] — the (then-future) 64-bit-offset
//!   netCDF: nonrecord variables of unlimited size, each stored
//!   contiguously.
//! * [`layout::Hdf5LikeLayout`] — an HDF5-style layout: a small
//!   metadata prologue (the "11 very small metadata accesses" the paper
//!   logs) plus per-variable chunked storage; reads fetch whole chunks.
//!
//! Extent maps are exact: property tests assert that the extents of a
//! subvolume cover each requested element exactly once and nothing else.

pub mod extent;
pub mod layout;
pub mod netcdf_header;
pub mod rw;

pub use extent::{coalesce, total_bytes, Extent};
pub use layout::{
    FileLayout, Hdf5LikeLayout, LayoutKind, NetCdf64Layout, NetCdfClassicLayout, RawLayout,
};
pub use rw::{each_element, read_subvolume, write_file, Endian};

/// Size of one grid element on disk (32-bit float).
pub const ELEM_SIZE: u64 = 4;

/// An axis-aligned box of grid elements: `offset .. offset + shape`
/// in each dimension, with `x` fastest-varying in memory and on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subvolume {
    pub offset: [usize; 3],
    pub shape: [usize; 3],
}

impl Subvolume {
    pub fn new(offset: [usize; 3], shape: [usize; 3]) -> Self {
        Subvolume { offset, shape }
    }

    /// The whole grid as one subvolume.
    pub fn whole(grid: [usize; 3]) -> Self {
        Subvolume {
            offset: [0, 0, 0],
            shape: grid,
        }
    }

    pub fn num_elements(&self) -> usize {
        self.shape[0] * self.shape[1] * self.shape[2]
    }

    pub fn bytes(&self) -> u64 {
        self.num_elements() as u64 * ELEM_SIZE
    }

    /// End coordinates (exclusive).
    pub fn end(&self) -> [usize; 3] {
        [
            self.offset[0] + self.shape[0],
            self.offset[1] + self.shape[1],
            self.offset[2] + self.shape[2],
        ]
    }

    /// True if this subvolume lies within `grid`.
    pub fn fits(&self, grid: [usize; 3]) -> bool {
        let e = self.end();
        e[0] <= grid[0] && e[1] <= grid[1] && e[2] <= grid[2]
    }

    /// Visit each contiguous x-run as `(x0, y, z, len)`.
    pub fn for_each_row(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let e = self.end();
        for z in self.offset[2]..e[2] {
            for y in self.offset[1]..e[1] {
                f(self.offset[0], y, z, self.shape[0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subvolume_geometry() {
        let s = Subvolume::new([1, 2, 3], [4, 5, 6]);
        assert_eq!(s.num_elements(), 120);
        assert_eq!(s.bytes(), 480);
        assert_eq!(s.end(), [5, 7, 9]);
        assert!(s.fits([5, 7, 9]));
        assert!(!s.fits([5, 7, 8]));
    }

    #[test]
    fn row_iteration_covers_all_rows() {
        let s = Subvolume::new([0, 0, 0], [8, 3, 2]);
        let mut rows = 0;
        let mut elems = 0;
        s.for_each_row(|_x0, _y, _z, len| {
            rows += 1;
            elems += len;
        });
        assert_eq!(rows, 6);
        assert_eq!(elems, 48);
    }
}
