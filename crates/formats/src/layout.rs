//! File layouts: where each element of each variable lives on disk.
//!
//! A layout answers two questions the rest of the system needs:
//!
//! 1. *Extent mapping* — which byte ranges of the file hold a given
//!    subvolume of a given variable (drives the collective-I/O engine
//!    and the access-pattern analysis of Figures 9–10).
//! 2. *Placement* — where each contiguous run of elements lands in a
//!    reader's output buffer (drives the real readers in [`crate::rw`]).

use crate::extent::{coalesce, Extent};
use crate::rw::Endian;
use crate::{Subvolume, ELEM_SIZE};

/// Identifies one of the studied file organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Single bare variable, contiguous, no header ("raw mode").
    Raw,
    /// netCDF classic record variables (variables interleaved by
    /// 2D records — Figure 8).
    NetCdfClassic,
    /// netCDF with 64-bit offsets: nonrecord, per-variable contiguous.
    NetCdf64,
    /// HDF5-style: metadata prologue + per-variable chunked storage.
    Hdf5Like,
}

impl LayoutKind {
    pub fn name(self) -> &'static str {
        match self {
            LayoutKind::Raw => "raw",
            LayoutKind::NetCdfClassic => "netcdf-classic",
            LayoutKind::NetCdf64 => "netcdf-64bit",
            LayoutKind::Hdf5Like => "hdf5",
        }
    }
}

/// A contiguous run of elements: `elems` elements starting at byte
/// `file_offset` in the file, landing at linear index `out_start` of the
/// reader's row-major subvolume buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedRun {
    pub file_offset: u64,
    pub elems: usize,
    pub out_start: usize,
}

/// A file organization for `num_vars` variables on a common 3D grid.
pub trait FileLayout: Send + Sync {
    fn kind(&self) -> LayoutKind;
    fn grid(&self) -> [usize; 3];
    fn num_vars(&self) -> usize;
    /// Total file size in bytes.
    fn file_size(&self) -> u64;
    /// Bytes of header/metadata before variable data.
    fn header_bytes(&self) -> u64;
    /// Byte order of on-disk floats.
    fn endian(&self) -> Endian;

    /// Visit every contiguous element run of `sub` of variable `var`,
    /// in output-buffer order.
    fn placed_runs(&self, var: usize, sub: &Subvolume, f: &mut dyn FnMut(PlacedRun));

    /// Small metadata extents a reader touches before data (empty for
    /// headerless/simple formats; HDF5 performs several tiny reads).
    fn metadata_extents(&self) -> Vec<Extent> {
        Vec::new()
    }

    /// The *useful* byte extents of the request: sorted, disjoint,
    /// coalesced. A run that starts where the previous one ended extends
    /// it instead of being stored, so memory is the number of extents
    /// returned plus the file-order breaks in the run sequence — one
    /// extent, not 1120² rows, for a whole contiguous variable — and the
    /// final [`coalesce`] sorts and merges what is left (HDF5's chunk
    /// runs arrive out of file order).
    fn extents(&self, var: usize, sub: &Subvolume) -> Vec<Extent> {
        let mut v: Vec<Extent> = Vec::new();
        self.placed_runs(var, sub, &mut |r| {
            let len = r.elems as u64 * ELEM_SIZE;
            match v.last_mut() {
                Some(last) if last.end() == r.file_offset => last.len += len,
                _ => v.push(Extent::new(r.file_offset, len)),
            }
        });
        coalesce(&mut v);
        v
    }

    /// The *physical* extents a reader of this format must fetch to
    /// satisfy the request. For most layouts this equals [`Self::extents`];
    /// chunked layouts must fetch whole chunks.
    fn physical_extents(&self, var: usize, sub: &Subvolume) -> Vec<Extent> {
        self.extents(var, sub)
    }

    /// True when the natural reader for this format performs collective
    /// (two-phase) I/O. Chunked HDF5 reads of that era fell back to
    /// independent per-process chunk fetches, which is what the paper's
    /// 8 GB-for-5 GB overhead reflects.
    fn collective(&self) -> bool {
        true
    }

    /// Chunk dimensions for chunked layouts; `None` for linear layouts.
    fn chunk_geometry(&self) -> Option<[usize; 3]> {
        None
    }
}

fn check_request(layout: &dyn FileLayout, var: usize, sub: &Subvolume) {
    assert!(var < layout.num_vars(), "variable {var} out of range");
    assert!(
        sub.fits(layout.grid()),
        "subvolume {:?} outside grid {:?}",
        sub,
        layout.grid()
    );
}

// ---------------------------------------------------------------------
// Raw
// ---------------------------------------------------------------------

/// A single variable stored contiguously in row-major (x fastest) order
/// with no header — the paper's "raw mode" produced by offline
/// preprocessing (5.3 GB for one 1120³ float variable).
#[derive(Debug, Clone)]
pub struct RawLayout {
    grid: [usize; 3],
}

impl RawLayout {
    pub fn new(grid: [usize; 3]) -> Self {
        RawLayout { grid }
    }
}

impl FileLayout for RawLayout {
    fn kind(&self) -> LayoutKind {
        LayoutKind::Raw
    }
    fn grid(&self) -> [usize; 3] {
        self.grid
    }
    fn num_vars(&self) -> usize {
        1
    }
    fn file_size(&self) -> u64 {
        self.grid.iter().product::<usize>() as u64 * ELEM_SIZE
    }
    fn header_bytes(&self) -> u64 {
        0
    }
    fn endian(&self) -> Endian {
        Endian::Little
    }

    fn placed_runs(&self, var: usize, sub: &Subvolume, f: &mut dyn FnMut(PlacedRun)) {
        check_request(self, var, sub);
        let [nx, ny, _] = self.grid;
        let mut out = 0usize;
        sub.for_each_row(|x0, y, z, len| {
            let elem = (z * ny + y) * nx + x0;
            f(PlacedRun {
                file_offset: elem as u64 * ELEM_SIZE,
                elems: len,
                out_start: out,
            });
            out += len;
        });
    }
}

// ---------------------------------------------------------------------
// netCDF classic (record variables)
// ---------------------------------------------------------------------

/// netCDF classic-format record variables: for each record index `z`
/// (the unlimited dimension), one 2D record *per variable* is stored,
/// so the variables interleave record by record:
///
/// ```text
/// header | v0[z=0] v1[z=0] ... v4[z=0] | v0[z=1] v1[z=1] ... | ...
/// ```
///
/// Reading one variable therefore touches 1-in-`num_vars` stripes of the
/// file — the access pattern behind Figures 8 and 9. Classic netCDF also
/// caps nonrecord variables at 4 GB, which is why the paper's scientists
/// were forced into this layout.
#[derive(Debug, Clone)]
pub struct NetCdfClassicLayout {
    grid: [usize; 3],
    num_vars: usize,
    header: u64,
}

impl NetCdfClassicLayout {
    /// The paper's dataset: five record variables (pressure, density,
    /// and X/Y/Z velocity).
    pub fn new(grid: [usize; 3], num_vars: usize) -> Self {
        assert!(num_vars >= 1);
        NetCdfClassicLayout {
            grid,
            num_vars,
            header: 512,
        }
    }

    /// Bytes of one 2D record (one z-slice of one variable) — the value
    /// the tuned MPI-IO `cb_buffer_size` hint is set to.
    pub fn record_bytes(&self) -> u64 {
        (self.grid[0] * self.grid[1]) as u64 * ELEM_SIZE
    }

    /// Distance in the file between consecutive records of the *same*
    /// variable.
    pub fn record_stride(&self) -> u64 {
        self.record_bytes() * self.num_vars as u64
    }
}

impl FileLayout for NetCdfClassicLayout {
    fn kind(&self) -> LayoutKind {
        LayoutKind::NetCdfClassic
    }
    fn grid(&self) -> [usize; 3] {
        self.grid
    }
    fn num_vars(&self) -> usize {
        self.num_vars
    }
    fn file_size(&self) -> u64 {
        self.header + self.record_stride() * self.grid[2] as u64
    }
    fn header_bytes(&self) -> u64 {
        self.header
    }
    fn endian(&self) -> Endian {
        // The classic format stores XDR (big-endian) floats.
        Endian::Big
    }

    fn placed_runs(&self, var: usize, sub: &Subvolume, f: &mut dyn FnMut(PlacedRun)) {
        check_request(self, var, sub);
        let [nx, _, _] = self.grid;
        let rec = self.record_bytes();
        let stride = self.record_stride();
        let mut out = 0usize;
        sub.for_each_row(|x0, y, z, len| {
            let base = self.header + z as u64 * stride + var as u64 * rec;
            let off = base + (y * nx + x0) as u64 * ELEM_SIZE;
            f(PlacedRun {
                file_offset: off,
                elems: len,
                out_start: out,
            });
            out += len;
        });
    }
}

// ---------------------------------------------------------------------
// netCDF 64-bit offsets (nonrecord)
// ---------------------------------------------------------------------

/// The 64-bit-offset netCDF the paper's authors were helping develop:
/// every variable is a nonrecord variable of unlimited size, stored
/// contiguously one after another. Single-variable reads behave like
/// raw mode plus a header offset.
#[derive(Debug, Clone)]
pub struct NetCdf64Layout {
    grid: [usize; 3],
    num_vars: usize,
    header: u64,
}

impl NetCdf64Layout {
    pub fn new(grid: [usize; 3], num_vars: usize) -> Self {
        assert!(num_vars >= 1);
        NetCdf64Layout {
            grid,
            num_vars,
            header: 1024,
        }
    }

    pub fn var_bytes(&self) -> u64 {
        self.grid.iter().product::<usize>() as u64 * ELEM_SIZE
    }
}

impl FileLayout for NetCdf64Layout {
    fn kind(&self) -> LayoutKind {
        LayoutKind::NetCdf64
    }
    fn grid(&self) -> [usize; 3] {
        self.grid
    }
    fn num_vars(&self) -> usize {
        self.num_vars
    }
    fn file_size(&self) -> u64 {
        self.header + self.var_bytes() * self.num_vars as u64
    }
    fn header_bytes(&self) -> u64 {
        self.header
    }
    fn endian(&self) -> Endian {
        Endian::Big
    }

    fn placed_runs(&self, var: usize, sub: &Subvolume, f: &mut dyn FnMut(PlacedRun)) {
        check_request(self, var, sub);
        let [nx, ny, _] = self.grid;
        let base = self.header + var as u64 * self.var_bytes();
        let mut out = 0usize;
        sub.for_each_row(|x0, y, z, len| {
            let elem = (z * ny + y) * nx + x0;
            f(PlacedRun {
                file_offset: base + elem as u64 * ELEM_SIZE,
                elems: len,
                out_start: out,
            });
            out += len;
        });
    }
}

// ---------------------------------------------------------------------
// HDF5-like (chunked)
// ---------------------------------------------------------------------

/// HDF5-style layout: a metadata prologue that readers probe with
/// several tiny accesses (the paper logs 11 accesses of ≤600 bytes per
/// process), then per-variable *chunked* storage. Each chunk is a small
/// 3D brick stored contiguously; edge chunks are padded to full size, as
/// HDF5 allocates them. Reading any part of a chunk fetches the whole
/// chunk, which is where the paper's 8 GB-of-physical-I/O-for-5 GB
/// overhead comes from.
#[derive(Debug, Clone)]
pub struct Hdf5LikeLayout {
    grid: [usize; 3],
    num_vars: usize,
    chunk: [usize; 3],
    header: u64,
}

impl Hdf5LikeLayout {
    /// Default chunk edge chosen so the measured ~1.5–1.6x physical
    /// over-read of the paper's logs is reproduced for typical block
    /// decompositions (blocks a few chunks across, unaligned).
    pub fn new(grid: [usize; 3], num_vars: usize) -> Self {
        let chunk = [
            (grid[0] / 70).clamp(4, 64),
            (grid[1] / 70).clamp(4, 64),
            (grid[2] / 70).clamp(4, 64),
        ];
        Self::with_chunk(grid, num_vars, chunk)
    }

    pub fn with_chunk(grid: [usize; 3], num_vars: usize, chunk: [usize; 3]) -> Self {
        assert!(num_vars >= 1);
        assert!(chunk.iter().all(|&c| c > 0));
        Hdf5LikeLayout {
            grid,
            num_vars,
            chunk,
            header: 6144,
        }
    }

    /// Chunks per dimension (edge chunks padded).
    fn chunks_per_dim(&self) -> [usize; 3] {
        [
            self.grid[0].div_ceil(self.chunk[0]),
            self.grid[1].div_ceil(self.chunk[1]),
            self.grid[2].div_ceil(self.chunk[2]),
        ]
    }

    pub fn chunk_bytes(&self) -> u64 {
        self.chunk.iter().product::<usize>() as u64 * ELEM_SIZE
    }

    fn var_bytes(&self) -> u64 {
        let c = self.chunks_per_dim();
        c.iter().product::<usize>() as u64 * self.chunk_bytes()
    }

    /// Byte offset of chunk `(cx, cy, cz)` of `var`.
    fn chunk_offset(&self, var: usize, cx: usize, cy: usize, cz: usize) -> u64 {
        let c = self.chunks_per_dim();
        let idx = (cz * c[1] + cy) * c[0] + cx;
        self.header + var as u64 * self.var_bytes() + idx as u64 * self.chunk_bytes()
    }
}

impl FileLayout for Hdf5LikeLayout {
    fn kind(&self) -> LayoutKind {
        LayoutKind::Hdf5Like
    }
    fn grid(&self) -> [usize; 3] {
        self.grid
    }
    fn num_vars(&self) -> usize {
        self.num_vars
    }
    fn file_size(&self) -> u64 {
        self.header + self.var_bytes() * self.num_vars as u64
    }
    fn header_bytes(&self) -> u64 {
        self.header
    }
    fn endian(&self) -> Endian {
        Endian::Little
    }
    fn collective(&self) -> bool {
        false
    }
    fn chunk_geometry(&self) -> Option<[usize; 3]> {
        Some(self.chunk)
    }

    fn metadata_extents(&self) -> Vec<Extent> {
        // 11 small accesses of no more than 600 bytes, per the paper's
        // I/O logs of the HDF5 open path.
        (0..11)
            .map(|i| Extent::new(i * 560, 560.min(self.header - i * 560)))
            .collect()
    }

    fn placed_runs(&self, var: usize, sub: &Subvolume, f: &mut dyn FnMut(PlacedRun)) {
        check_request(self, var, sub);
        let [cx, cy, cz] = self.chunk;
        let mut out = 0usize;
        sub.for_each_row(|x0, y, z, len| {
            // A row may span several chunks along x; emit one run per
            // chunk-local segment.
            let (ciy, ly) = (y / cy, y % cy);
            let (ciz, lz) = (z / cz, z % cz);
            let mut x = x0;
            let row_end = x0 + len;
            while x < row_end {
                let cix = x / cx;
                let lx = x % cx;
                let seg = (cx - lx).min(row_end - x);
                let base = self.chunk_offset(var, cix, ciy, ciz);
                let local = (lz * cy + ly) * cx + lx;
                f(PlacedRun {
                    file_offset: base + local as u64 * ELEM_SIZE,
                    elems: seg,
                    out_start: out,
                });
                out += seg;
                x += seg;
            }
        });
    }

    /// Whole chunks overlapping the request.
    fn physical_extents(&self, var: usize, sub: &Subvolume) -> Vec<Extent> {
        check_request(self, var, sub);
        let [cx, cy, cz] = self.chunk;
        let e = sub.end();
        let (x0, x1) = (sub.offset[0] / cx, (e[0] - 1) / cx);
        let (y0, y1) = (sub.offset[1] / cy, (e[1] - 1) / cy);
        let (z0, z1) = (sub.offset[2] / cz, (e[2] - 1) / cz);
        let mut v = Vec::new();
        for iz in z0..=z1 {
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    v.push(Extent::new(
                        self.chunk_offset(var, ix, iy, iz),
                        self.chunk_bytes(),
                    ));
                }
            }
        }
        coalesce(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::{total_bytes, union_bytes};

    fn sub() -> Subvolume {
        Subvolume::new([3, 5, 7], [10, 6, 4])
    }

    fn runs_cover_exactly(layout: &dyn FileLayout, var: usize, sub: &Subvolume) {
        // Every element's offset appears exactly once across runs.
        let mut offsets = Vec::new();
        let mut out_indices = Vec::new();
        layout.placed_runs(var, sub, &mut |r| {
            for i in 0..r.elems {
                offsets.push(r.file_offset + i as u64 * ELEM_SIZE);
                out_indices.push(r.out_start + i);
            }
        });
        assert_eq!(offsets.len(), sub.num_elements());
        // Output indices are a permutation of 0..n (in fact, identity order).
        let mut sorted = out_indices.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..sub.num_elements()).collect::<Vec<_>>());
        // Offsets are unique and inside the file.
        let mut off_sorted = offsets.clone();
        off_sorted.sort_unstable();
        off_sorted.dedup();
        assert_eq!(off_sorted.len(), offsets.len(), "duplicate file offsets");
        assert!(off_sorted.last().unwrap() + ELEM_SIZE <= layout.file_size());
        assert!(off_sorted[0] >= layout.header_bytes());
    }

    #[test]
    fn raw_runs_exact() {
        let l = RawLayout::new([32, 24, 16]);
        runs_cover_exactly(&l, 0, &sub());
        // Whole-grid read coalesces to a single extent.
        let e = l.extents(0, &Subvolume::whole([32, 24, 16]));
        assert_eq!(e, vec![Extent::new(0, l.file_size())]);
    }

    #[test]
    fn netcdf_classic_runs_exact_and_interleaved() {
        let l = NetCdfClassicLayout::new([32, 24, 16], 5);
        for var in 0..5 {
            runs_cover_exactly(&l, var, &sub());
        }
        // Full-variable read: one extent per record, spaced by the stride.
        let e = l.extents(1, &Subvolume::whole([32, 24, 16]));
        assert_eq!(e.len(), 16);
        assert_eq!(e[0].len, l.record_bytes());
        assert_eq!(e[1].offset - e[0].offset, l.record_stride());
        // Useful fraction of file is ~1/5.
        assert!((total_bytes(&e) as f64 / l.file_size() as f64 - 0.2).abs() < 0.01);
    }

    #[test]
    fn netcdf64_variables_are_contiguous() {
        let l = NetCdf64Layout::new([32, 24, 16], 5);
        runs_cover_exactly(&l, 3, &sub());
        let e = l.extents(3, &Subvolume::whole([32, 24, 16]));
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].len, l.var_bytes());
    }

    #[test]
    fn hdf5_runs_exact() {
        let l = Hdf5LikeLayout::with_chunk([32, 24, 16], 3, [8, 8, 8]);
        for var in 0..3 {
            runs_cover_exactly(&l, var, &sub());
        }
    }

    #[test]
    fn hdf5_physical_reads_whole_chunks() {
        let l = Hdf5LikeLayout::with_chunk([32, 24, 16], 1, [8, 8, 8]);
        // A 2x2x2-element probe straddling a chunk corner needs 8 chunks.
        let s = Subvolume::new([7, 7, 7], [2, 2, 2]);
        let phys = l.physical_extents(0, &s);
        assert_eq!(union_bytes(&phys), 8 * l.chunk_bytes());
        // Useful extents are tiny; physical over-read is huge for probes.
        let useful = total_bytes(&l.extents(0, &s));
        assert_eq!(useful, 8 * ELEM_SIZE);
        // Aligned chunk-sized read needs exactly one chunk.
        let s = Subvolume::new([8, 8, 8], [8, 8, 8]);
        assert_eq!(union_bytes(&l.physical_extents(0, &s)), l.chunk_bytes());
    }

    #[test]
    fn hdf5_metadata_accesses_are_small() {
        let l = Hdf5LikeLayout::new([64, 64, 64], 5);
        let m = l.metadata_extents();
        assert_eq!(m.len(), 11);
        assert!(m.iter().all(|e| e.len <= 600));
    }

    #[test]
    fn file_sizes_scale_with_vars() {
        let g = [64, 64, 64];
        let one_var = g.iter().product::<usize>() as u64 * ELEM_SIZE;
        assert_eq!(RawLayout::new(g).file_size(), one_var);
        let nc = NetCdfClassicLayout::new(g, 5);
        assert_eq!(nc.file_size(), 512 + 5 * one_var);
        let nc64 = NetCdf64Layout::new(g, 5);
        assert_eq!(nc64.file_size(), 1024 + 5 * one_var);
        // HDF5 pads edge chunks, so it is at least as large.
        let h = Hdf5LikeLayout::with_chunk(g, 5, [12, 12, 12]);
        assert!(h.file_size() >= 5 * one_var);
    }

    #[test]
    fn whole_paper_volume_is_one_extent() {
        // 1.25 M row runs streamed into a single extent.
        let l = RawLayout::new([1120; 3]);
        let e = l.extents(0, &Subvolume::whole([1120; 3]));
        assert_eq!(e, vec![Extent::new(0, 1120 * 1120 * 1120 * 4)]);
    }

    #[test]
    fn hdf5_runs_out_of_file_order_still_coalesce() {
        // Two rows of a 2-chunk-wide request: the second row's first run
        // lies *before* the first row's second run in the file.
        let l = Hdf5LikeLayout::with_chunk([8, 4, 4], 1, [4, 4, 4]);
        let s = Subvolume::new([0, 0, 0], [8, 2, 1]);
        let mut offsets = Vec::new();
        l.placed_runs(0, &s, &mut |r| offsets.push(r.file_offset));
        assert!(offsets.windows(2).any(|w| w[1] < w[0]), "{offsets:?}");
        let row = 4 * ELEM_SIZE;
        let (c0, c1) = (l.header_bytes(), l.header_bytes() + l.chunk_bytes());
        // Each chunk's two 4-element rows are adjacent in the file.
        assert_eq!(
            l.extents(0, &s),
            vec![Extent::new(c0, 2 * row), Extent::new(c1, 2 * row)]
        );
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_bounds_request_panics() {
        let l = RawLayout::new([8, 8, 8]);
        l.extents(0, &Subvolume::new([4, 4, 4], [8, 8, 8]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::extent::union_bytes;
    use proptest::prelude::*;

    fn arb_sub(grid: [usize; 3]) -> impl Strategy<Value = Subvolume> {
        (0..grid[0], 0..grid[1], 0..grid[2]).prop_flat_map(move |(x, y, z)| {
            (1..=grid[0] - x, 1..=grid[1] - y, 1..=grid[2] - z)
                .prop_map(move |(dx, dy, dz)| Subvolume::new([x, y, z], [dx, dy, dz]))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn extents_bytes_match_request(s in arb_sub([24, 20, 12]), var in 0usize..3) {
            let layouts: Vec<Box<dyn FileLayout>> = vec![
                Box::new(RawLayout::new([24, 20, 12])),
                Box::new(NetCdfClassicLayout::new([24, 20, 12], 3)),
                Box::new(NetCdf64Layout::new([24, 20, 12], 3)),
                Box::new(Hdf5LikeLayout::with_chunk([24, 20, 12], 3, [5, 7, 4])),
            ];
            for l in &layouts {
                let v = if l.num_vars() == 1 { 0 } else { var };
                let e = l.extents(v, &s);
                // Coalesced extents cover exactly the request's bytes.
                prop_assert_eq!(union_bytes(&e), s.bytes());
                // Sorted and disjoint.
                for w in e.windows(2) {
                    prop_assert!(w[0].end() < w[1].offset);
                }
                // Physical extents always cover the useful ones.
                let phys = l.physical_extents(v, &s);
                prop_assert!(union_bytes(&phys) >= s.bytes());
            }
        }

        /// Merging runs as they are produced gives the same canonical
        /// list as collecting every run and coalescing afterwards.
        #[test]
        fn streamed_extents_equal_collected_then_coalesced(s in arb_sub([24, 20, 12]), var in 0usize..3) {
            let layouts: Vec<Box<dyn FileLayout>> = vec![
                Box::new(RawLayout::new([24, 20, 12])),
                Box::new(NetCdfClassicLayout::new([24, 20, 12], 3)),
                Box::new(NetCdf64Layout::new([24, 20, 12], 3)),
                Box::new(Hdf5LikeLayout::with_chunk([24, 20, 12], 3, [5, 7, 4])),
            ];
            for l in &layouts {
                let v = if l.num_vars() == 1 { 0 } else { var };
                let mut collected = Vec::new();
                l.placed_runs(v, &s, &mut |r| {
                    collected.push(Extent::new(r.file_offset, r.elems as u64 * ELEM_SIZE));
                });
                coalesce(&mut collected);
                prop_assert_eq!(l.extents(v, &s), collected, "{}", l.kind().name());
            }
        }

        #[test]
        fn different_vars_never_overlap(s in arb_sub([16, 16, 16])) {
            let layouts: Vec<Box<dyn FileLayout>> = vec![
                Box::new(NetCdfClassicLayout::new([16, 16, 16], 4)),
                Box::new(NetCdf64Layout::new([16, 16, 16], 4)),
                Box::new(Hdf5LikeLayout::with_chunk([16, 16, 16], 4, [6, 6, 6])),
            ];
            for l in &layouts {
                let mut all = Vec::new();
                for v in 0..4 {
                    all.extend(l.extents(v, &s));
                }
                let sum: u64 = all.iter().map(|e| e.len).sum();
                prop_assert_eq!(union_bytes(&all), sum, "variables overlap on disk");
            }
        }
    }
}
