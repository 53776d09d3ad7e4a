//! Real file writers and readers for every layout.
//!
//! These materialize actual files on the local filesystem so the
//! laptop-scale experiments exercise genuine byte-level I/O. The writer
//! and the readers both go through the layout's placed runs, so they
//! share the exact extent logic the collective-I/O engine uses.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::layout::{FileLayout, LayoutKind};
use crate::{Subvolume, ELEM_SIZE};

/// On-disk byte order of 32-bit floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endian {
    Little,
    /// netCDF classic stores XDR (big-endian) data.
    Big,
}

impl Endian {
    #[inline]
    pub fn encode(self, v: f32) -> [u8; 4] {
        match self {
            Endian::Little => v.to_le_bytes(),
            Endian::Big => v.to_be_bytes(),
        }
    }

    #[inline]
    pub fn decode(self, b: [u8; 4]) -> f32 {
        match self {
            Endian::Little => f32::from_le_bytes(b),
            Endian::Big => f32::from_be_bytes(b),
        }
    }

    /// Decode whole 4-byte elements of `src` into `dst`, one per chunk;
    /// stops at the shorter of the two (a trailing partial element of
    /// `src` is ignored).
    pub fn decode_slice(self, src: &[u8], dst: &mut [f32]) {
        fn each(src: &[u8], dst: &mut [f32], from: impl Fn([u8; 4]) -> f32) {
            for (d, c) in dst.iter_mut().zip(src.chunks_exact(4)) {
                *d = from([c[0], c[1], c[2], c[3]]);
            }
        }
        match self {
            Endian::Little => each(src, dst, f32::from_le_bytes),
            Endian::Big => each(src, dst, f32::from_be_bytes),
        }
    }
}

/// Magic bytes for each format's header.
fn magic(kind: LayoutKind) -> &'static [u8] {
    match kind {
        LayoutKind::Raw => b"",
        LayoutKind::NetCdfClassic => b"CDF\x01",
        LayoutKind::NetCdf64 => b"CDF\x02",
        LayoutKind::Hdf5Like => b"\x89HDF\r\n\x1a\n",
    }
}

/// Write a complete file of `layout`, one z-slab at a time: a plane,
/// or a layer of chunks for chunked layouts. `fill(slab, values)`
/// supplies every variable of the slab, element-major: variable `v` of
/// the slab's element `e` (row-major, x fastest) is
/// `values[e * num_vars + v]`. Each variable's
/// [`FileLayout::placed_runs`] over the slab — the runs a reader uses —
/// land at their file offsets, file-contiguous runs in one write, in a
/// file pre-sized to `layout.file_size()`, so out-of-grid padding (HDF5
/// edge chunks) reads as zeros. Returns the file's size.
pub fn write_file(
    path: &Path,
    layout: &dyn FileLayout,
    mut fill: impl FnMut(&Subvolume, &mut [f32]),
) -> std::io::Result<u64> {
    let mut file = File::create(path)?;
    file.set_len(layout.file_size())?;
    file.write_all(&header(layout))?;
    let (grid, nvars, endian) = (layout.grid(), layout.num_vars(), layout.endian());
    let depth = layout.chunk_geometry().map_or(1, |c| c[2]);
    let (mut values, mut runs, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for z in (0..grid[2]).step_by(depth) {
        let slab = Subvolume::new([0, 0, z], [grid[0], grid[1], depth.min(grid[2] - z)]);
        values.resize(slab.num_elements() * nvars, 0.0);
        fill(&slab, &mut values);
        runs.clear();
        for var in 0..nvars {
            layout.placed_runs(var, &slab, &mut |r| runs.push((var, r)));
        }
        // Chunked layouts emit runs in slab order, not file order.
        runs.sort_unstable_by_key(|(_, r)| r.file_offset);
        let mut at = 0;
        for &(var, r) in &runs {
            if at + bytes.len() as u64 != r.file_offset {
                write_at(&mut file, at, &bytes)?;
                bytes.clear();
                at = r.file_offset;
            }
            let elems = values[r.out_start * nvars + var..].iter().step_by(nvars);
            for &v in elems.take(r.elems) {
                bytes.extend_from_slice(&endian.encode(v));
            }
        }
        write_at(&mut file, at, &bytes)?;
        bytes.clear();
    }
    // No run may land past the layout's end.
    debug_assert_eq!(file.metadata()?.len(), layout.file_size());
    Ok(layout.file_size())
}

/// A [`write_file`] filler from a per-element `value(var, x, y, z)`.
pub fn each_element(
    num_vars: usize,
    mut value: impl FnMut(usize, usize, usize, usize) -> f32,
) -> impl FnMut(&Subvolume, &mut [f32]) {
    move |slab, values| {
        let mut out = values.iter_mut();
        slab.for_each_row(|x0, y, z, len| {
            for x in x0..x0 + len {
                for (var, v) in out.by_ref().take(num_vars).enumerate() {
                    *v = value(var, x, y, z);
                }
            }
        });
    }
}

fn write_at(file: &mut File, at: u64, bytes: &[u8]) -> std::io::Result<()> {
    if !bytes.is_empty() {
        file.seek(SeekFrom::Start(at))?;
        file.write_all(bytes)?;
    }
    Ok(())
}

/// The file's prologue: a genuine CDF-1 / CDF-2 header (dimensions,
/// variables, begin offsets) for the netCDF layouts, the format's magic
/// for the others (the rest of the header region stays zero).
fn header(layout: &dyn FileLayout) -> Vec<u8> {
    use crate::netcdf_header::{encode_header, HeaderSpec, DEFAULT_VAR_NAMES};
    let kind = layout.kind();
    if !matches!(kind, LayoutKind::NetCdfClassic | LayoutKind::NetCdf64) {
        return magic(kind).to_vec();
    }
    let (grid, nvars, header) = (layout.grid(), layout.num_vars(), layout.header_bytes());
    let record_vars = kind == LayoutKind::NetCdfClassic;
    let names: Vec<&str> = DEFAULT_VAR_NAMES
        .iter()
        .copied()
        .chain((DEFAULT_VAR_NAMES.len()..nvars).map(|_| "extra"))
        .take(nvars)
        .collect();
    let per_var: u64 = if record_vars {
        (grid[0] * grid[1]) as u64 * ELEM_SIZE
    } else {
        (grid[0] * grid[1] * grid[2]) as u64 * ELEM_SIZE
    };
    let begin = move |v: usize| header + v as u64 * per_var;
    encode_header(&HeaderSpec {
        grid,
        var_names: &names,
        record_vars,
        header_size: header,
        var_begin: &begin,
    })
}

/// Read `sub` of variable `var` from an open file into a row-major f32
/// buffer, using the layout's placed runs (one `pread`-style access per
/// contiguous run).
pub fn read_subvolume(
    file: &mut File,
    layout: &dyn FileLayout,
    var: usize,
    sub: &Subvolume,
) -> std::io::Result<Vec<f32>> {
    let endian = layout.endian();
    let mut out = vec![0.0f32; sub.num_elements()];
    let mut runs = Vec::new();
    layout.placed_runs(var, sub, &mut |r| runs.push(r));
    let mut buf: Vec<u8> = Vec::new();
    for r in runs {
        let bytes = r.elems * ELEM_SIZE as usize;
        buf.resize(bytes, 0);
        file.seek(SeekFrom::Start(r.file_offset))?;
        file.read_exact(&mut buf)?;
        for (i, chunk) in buf.chunks_exact(4).enumerate() {
            out[r.out_start + i] = endian.decode([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Hdf5LikeLayout, NetCdf64Layout, NetCdfClassicLayout, RawLayout};

    fn field(var: usize, x: usize, y: usize, z: usize) -> f32 {
        (var * 1_000_000 + z * 10_000 + y * 100 + x) as f32
    }

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-formats-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn round_trip(layout: &dyn FileLayout, name: &str) {
        let path = tmpdir().join(name);
        let n = write_file(&path, layout, each_element(layout.num_vars(), field)).unwrap();
        assert_eq!(n, layout.file_size());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), layout.file_size());

        let mut f = File::open(&path).unwrap();
        let grid = layout.grid();
        let sub = Subvolume::new(
            [grid[0] / 4, grid[1] / 3, 1],
            [grid[0] / 2, grid[1] / 2, grid[2] - 1],
        );
        for var in 0..layout.num_vars() {
            let data = read_subvolume(&mut f, layout, var, &sub).unwrap();
            let mut i = 0;
            let e = sub.end();
            for z in sub.offset[2]..e[2] {
                for y in sub.offset[1]..e[1] {
                    for x in sub.offset[0]..e[0] {
                        assert_eq!(
                            data[i],
                            field(var, x, y, z),
                            "mismatch at var={var} ({x},{y},{z}) in {name}"
                        );
                        i += 1;
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_round_trip() {
        round_trip(&RawLayout::new([20, 16, 12]), "rt.raw");
    }

    #[test]
    fn netcdf_classic_round_trip() {
        round_trip(&NetCdfClassicLayout::new([20, 16, 12], 3), "rt.nc");
    }

    #[test]
    fn netcdf64_round_trip() {
        round_trip(&NetCdf64Layout::new([20, 16, 12], 3), "rt.nc64");
    }

    #[test]
    fn hdf5_round_trip() {
        round_trip(
            &Hdf5LikeLayout::with_chunk([20, 16, 12], 2, [7, 5, 5]),
            "rt.h5",
        );
    }

    #[test]
    fn netcdf_magic_is_written() {
        let l = NetCdfClassicLayout::new([4, 4, 4], 1);
        let path = tmpdir().join("magic.nc");
        write_file(&path, &l, each_element(l.num_vars(), field)).unwrap();
        let mut f = File::open(&path).unwrap();
        let mut m = [0u8; 4];
        f.read_exact(&mut m).unwrap();
        assert_eq!(&m, b"CDF\x01");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn netcdf_header_decodes_with_correct_begins() {
        use crate::layout::NetCdfClassicLayout;
        use crate::netcdf_header::decode_header;
        let l = NetCdfClassicLayout::new([12, 10, 6], 5);
        let path = tmpdir().join("hdr.nc");
        write_file(&path, &l, each_element(l.num_vars(), field)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let d = decode_header(&bytes[..512]).unwrap();
        assert!(d.record_vars);
        assert_eq!(d.numrecs, 6);
        assert_eq!(
            d.dims,
            vec![
                ("z".to_string(), 0),
                ("y".to_string(), 10),
                ("x".to_string(), 12),
            ]
        );
        assert_eq!(d.vars.len(), 5);
        // The header's begin offsets agree with the layout's extents.
        for (v, (_, begin)) in d.vars.iter().enumerate() {
            let e = l.extents(v, &crate::Subvolume::new([0, 0, 0], [12, 10, 1]));
            assert_eq!(*begin, e[0].offset, "var {v}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn netcdf64_header_decodes() {
        use crate::layout::NetCdf64Layout;
        use crate::netcdf_header::decode_header;
        let l = NetCdf64Layout::new([8, 8, 8], 3);
        let path = tmpdir().join("hdr.nc64");
        write_file(&path, &l, each_element(l.num_vars(), field)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let d = decode_header(&bytes[..1024]).unwrap();
        assert!(!d.record_vars);
        assert_eq!(d.dims[0], ("z".to_string(), 8));
        assert_eq!(d.vars[2].1, 1024 + 2 * 8 * 8 * 8 * 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn netcdf_floats_are_big_endian_on_disk() {
        let l = NetCdfClassicLayout::new([2, 1, 1], 1);
        let path = tmpdir().join("be.nc");
        write_file(
            &path,
            &l,
            each_element(1, |_, x, _, _| if x == 0 { 1.0 } else { -2.5 }),
        )
        .unwrap();
        let mut f = File::open(&path).unwrap();
        f.seek(SeekFrom::Start(l.header_bytes())).unwrap();
        let mut b = [0u8; 8];
        f.read_exact(&mut b).unwrap();
        assert_eq!(f32::from_be_bytes([b[0], b[1], b[2], b[3]]), 1.0);
        assert_eq!(f32::from_be_bytes([b[4], b[5], b[6], b[7]]), -2.5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slice_decode_is_elementwise_decode() {
        // NaNs (quiet, signalling, with payload), subnormals, ±0 and ±∞.
        let bits = [
            0x7fc0_0001u32,
            0x7f80_0001,
            0xffc1_2345,
            0x0000_0001,
            0x807f_ffff,
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0x3f80_0000,
        ];
        for endian in [Endian::Little, Endian::Big] {
            let src: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            let mut dst = vec![0.0f32; bits.len()];
            endian.decode_slice(&src, &mut dst);
            for (i, c) in src.chunks_exact(4).enumerate() {
                let want = endian.decode([c[0], c[1], c[2], c[3]]);
                assert_eq!(dst[i].to_bits(), want.to_bits(), "{endian:?} element {i}");
            }
            // Stops at the shorter side: a trailing partial element of
            // `src` is ignored, elements past `src` are left alone.
            let mut short = vec![1.5f32; 3];
            endian.decode_slice(&src[..6], &mut short);
            assert_eq!(short[0].to_bits(), dst[0].to_bits());
            assert_eq!(&short[1..], &[1.5, 1.5]);
        }
    }
}
