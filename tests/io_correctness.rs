//! Cross-crate integration: collective I/O delivers correct bytes for
//! every format, hint setting, and aggregator count — and the access
//! statistics reproduce the paper's Figure 9/10 structure at full
//! 1120³ scale (plans only; no 27 GB file needed).

use parallel_volume_rendering::core::pipeline::IoRunStats;
use parallel_volume_rendering::core::{
    laptop_aggregators, run_frame, run_frame_mpi, write_dataset, FrameConfig, IoMode,
};
use parallel_volume_rendering::formats::layout::FileLayout;
use parallel_volume_rendering::formats::{
    coalesce, each_element, read_subvolume, write_file, Subvolume, ELEM_SIZE,
};
use parallel_volume_rendering::pfs::twophase::{
    file_domains, two_phase_execute, two_phase_plan, CollectiveHints, RankRequest,
};
use parallel_volume_rendering::volume::{voxel_centre, BlockDecomposition, SupernovaField};

use proptest::prelude::*;

fn field(var: usize, x: usize, y: usize, z: usize) -> f32 {
    (var as f32) * 1e6 + (z as f32) * 1e4 + (y as f32) * 1e2 + x as f32
}

fn write_tmp(layout: &dyn FileLayout, name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-ioc-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let p = d.join(name);
    let fill = each_element(layout.num_vars(), field);
    parallel_volume_rendering::formats::write_file(&p, layout, fill).unwrap();
    p
}

/// Collective read of a block decomposition delivers exactly the field
/// values, for every format.
#[test]
fn collective_read_correct_for_all_formats() {
    let grid = [24usize, 20, 16];
    for (mode, name) in [
        (IoMode::Raw, "c.raw"),
        (IoMode::NetCdfUntuned, "c.nc"),
        (IoMode::NetCdfTuned, "c.nct"),
        (IoMode::NetCdf64, "c.nc64"),
    ] {
        let layout = mode.layout(grid);
        let p = write_tmp(layout.as_ref(), name);
        let decomp = BlockDecomposition::new(grid, 6);
        let var = if mode == IoMode::Raw { 0 } else { 3 };
        let requests: Vec<RankRequest> = decomp
            .blocks()
            .iter()
            .map(|b| {
                let sub = decomp.with_ghost(b, 1);
                let mut runs = Vec::new();
                layout.placed_runs(var, &sub, &mut |r| runs.push(r));
                RankRequest {
                    runs,
                    out_elems: sub.num_elements(),
                }
            })
            .collect();
        let mut f = std::fs::File::open(&p).unwrap();
        let hints = mode.hints(grid);
        let res = two_phase_execute(&mut f, &requests, 3, &hints).unwrap();

        for (rank, b) in decomp.blocks().iter().enumerate() {
            let sub = decomp.with_ghost(b, 1);
            let bytes = &res.rank_bytes[rank];
            let endian = layout.endian();
            let mut i = 0;
            let e = sub.end();
            for z in sub.offset[2]..e[2] {
                for y in sub.offset[1]..e[1] {
                    for x in sub.offset[0]..e[0] {
                        let v = endian.decode([
                            bytes[i * 4],
                            bytes[i * 4 + 1],
                            bytes[i * 4 + 2],
                            bytes[i * 4 + 3],
                        ]);
                        assert_eq!(
                            v,
                            field(var, x, y, z),
                            "{name} rank {rank} at ({x},{y},{z})"
                        );
                        i += 1;
                    }
                }
            }
        }
        std::fs::remove_file(&p).ok();
    }
}

/// The data-parallel read decodes window pieces straight into volumes;
/// the message-passing read ships bytes and decodes them once they have
/// all arrived. On a record file whose aggregator domains meet inside an
/// element, so that windows split elements between pieces, both give
/// the same image bit for bit.
#[test]
fn unaligned_file_domains_decode_like_the_rank_read() {
    let mut cfg = FrameConfig::small(22, 32, 12);
    cfg.io = IoMode::NetCdfUntuned;
    cfg.variable = 2;
    let layout = cfg.io.layout(cfg.grid);
    let mut aggregate = layout.extents(cfg.file_variable(), &Subvolume::whole(cfg.grid));
    coalesce(&mut aggregate);
    // Every element of the variable starts a multiple of 4 bytes after
    // its first one; a domain that does not is cut mid-element.
    let first = aggregate[0].offset;
    let domains = file_domains(&aggregate, laptop_aggregators(cfg.nprocs));
    assert!(
        domains
            .iter()
            .any(|d| !(d.offset - first).is_multiple_of(ELEM_SIZE)),
        "no domain boundary splits an element: {domains:?}"
    );

    let d = std::env::temp_dir().join(format!("pvr-ioc-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let p = d.join("unaligned.nc");
    write_dataset(&p, &cfg).unwrap();
    let (a, b) = (run_frame(&cfg, Some(&p)), run_frame_mpi(&cfg, &p));
    let bits = |img: &parallel_volume_rendering::render::Image| -> Vec<u32> {
        img.pixels()
            .iter()
            .flat_map(|px| px.map(f32::to_bits))
            .collect()
    };
    assert!(a.render_samples > 0);
    assert_eq!(
        bits(&a.image),
        bits(&b.image),
        "executors must agree bit for bit"
    );
    std::fs::remove_file(&p).ok();
}

/// Both executors read under one plan and report its statistics: on a
/// 32³ grid of 8 ranks reading variable 2, for every I/O mode, the
/// message-passing frame's `IoRunStats` equal the data-parallel frame's
/// field by field. Three modes' counts are pinned as (useful bytes,
/// physical bytes, accesses, exchange bytes), with the density their
/// ratio.
#[test]
fn both_executors_report_the_same_io_stats() {
    let mut cfg = FrameConfig::small(32, 32, 8);
    cfg.variable = 2;
    let pinned = [
        (IoMode::Raw, (131_072, 131_072, 2, 120_224)),
        (IoMode::NetCdfUntuned, (131_072, 622_592, 2, 120_224)),
        (IoMode::Hdf5, (157_216, 256_000, 200, 0)),
    ];
    let fields = |io: IoRunStats| {
        let counts = (io.useful_bytes, io.physical_bytes, io.accesses);
        let faults = (io.retries, io.failover_bytes, io.unrecovered_bytes);
        (counts, io.exchange_bytes, io.data_density.to_bits(), faults)
    };
    let d = std::env::temp_dir().join(format!("pvr-ioc-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    for mode in IoMode::ALL {
        cfg.io = mode;
        let p = d.join(format!("parity.{}", mode.name()));
        write_dataset(&p, &cfg).unwrap();
        let (rayon, mpi) = (run_frame(&cfg, Some(&p)).io, run_frame_mpi(&cfg, &p).io);
        assert_eq!(fields(mpi), fields(rayon), "{}", mode.name());
        assert!(rayon.useful_bytes > 0, "{}", mode.name());
        if let Some((_, want)) = pinned.iter().find(|(m, _)| *m == mode) {
            let got = (
                rayon.useful_bytes,
                rayon.physical_bytes,
                rayon.accesses,
                rayon.exchange_bytes,
            );
            assert_eq!(got, *want, "{}", mode.name());
            let density = rayon.useful_bytes as f64 / rayon.physical_bytes as f64;
            assert_eq!(rayon.data_density, density, "{}", mode.name());
        }
        std::fs::remove_file(&p).ok();
    }
}

/// `write_dataset` at an odd grid (13×11×9: partial HDF5 edge chunks on
/// every axis) for every I/O mode, as FNV-1a of the whole file. The
/// hashes were recorded from the element-by-element writer the slab
/// writer replaced; a file that changes by one byte fails here.
#[test]
fn every_io_mode_writes_the_bytes_it_always_has() {
    let fnv = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    };
    let pinned = [
        (IoMode::Raw, 0, 5_148, 0x7114_7b53_db0f_a023u64),
        (IoMode::Raw, 2, 5_148, 0x9808_a171_6511_482a),
        (IoMode::NetCdfUntuned, 2, 26_252, 0x5904_622f_27e1_de1d),
        (IoMode::NetCdfTuned, 0, 26_252, 0x5904_622f_27e1_de1d),
        (IoMode::NetCdf64, 2, 26_764, 0xbceb_d21e_aea7_af84),
        (IoMode::Hdf5, 2, 52_224, 0x85f4_028f_3f92_2b2b),
    ];
    let d = std::env::temp_dir().join(format!("pvr-ioc-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    for (mode, variable, len, hash) in pinned {
        let mut cfg = FrameConfig::small(13, 16, 4);
        cfg.grid = [13, 11, 9];
        (cfg.io, cfg.variable) = (mode, variable);
        let p = d.join(format!("pinned.{}.{variable}", mode.name()));
        assert_eq!(write_dataset(&p, &cfg).unwrap(), len);
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(bytes.len() as u64, len, "{}", mode.name());
        assert_eq!(fnv(&bytes), hash, "{} variable {variable}", mode.name());
        std::fs::remove_file(&p).ok();
    }
}

/// Every variable of every I/O mode's file reads back, through
/// `read_subvolume`, as the field sampled at its voxel centres.
#[test]
fn every_variable_reads_back_as_the_field_it_samples() {
    let d = std::env::temp_dir().join(format!("pvr-ioc-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    for mode in IoMode::ALL {
        let mut cfg = FrameConfig::small(13, 16, 4);
        cfg.grid = [13, 11, 9];
        (cfg.io, cfg.variable) = (mode, 3);
        let [nx, ny, nz] = cfg.grid;
        let p = d.join(format!("readback.{}", mode.name()));
        write_dataset(&p, &cfg).unwrap();
        let layout = mode.layout(cfg.grid);
        let field = SupernovaField::new(cfg.seed);
        let mut f = std::fs::File::open(&p).unwrap();
        for var in 0..layout.num_vars() {
            let whole = Subvolume::whole(cfg.grid);
            let got = read_subvolume(&mut f, layout.as_ref(), var, &whole).unwrap();
            let field_var = if mode == IoMode::Raw {
                cfg.variable
            } else {
                var
            };
            let mut i = 0;
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let (px, py, pz) = (
                            voxel_centre(x, nx),
                            voxel_centre(y, ny),
                            voxel_centre(z, nz),
                        );
                        let want = field.sample_var(field_var, px, py, pz);
                        assert_eq!(
                            got[i].to_bits(),
                            want.to_bits(),
                            "{} variable {var} at ({x},{y},{z})",
                            mode.name()
                        );
                        i += 1;
                    }
                }
            }
        }
        std::fs::remove_file(&p).ok();
    }
}

/// `write_dataset` synthesizes its slabs a row at a time; a writer that
/// calls the point evaluator voxel by voxel writes the same bytes, in
/// every `IoMode`, on an odd grid whose HDF5 chunks and slabs are
/// ragged (4³ chunks over 23×17×13).
#[test]
fn write_dataset_equals_a_per_voxel_writer() {
    let d = std::env::temp_dir().join(format!("pvr-ioc-rows-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let grid = [23, 17, 13];
    for mode in IoMode::ALL {
        for (seed, variable) in [(1530, 2), (7, 4)] {
            let mut cfg = FrameConfig::small(8, 16, 4);
            (cfg.grid, cfg.io, cfg.seed, cfg.variable) = (grid, mode, seed, variable);
            let (rows, voxels) = (d.join("by-rows"), d.join("by-voxels"));
            write_dataset(&rows, &cfg).unwrap();
            let field = SupernovaField::new(seed);
            let vars: Vec<usize> = match mode {
                IoMode::Raw => vec![variable],
                _ => (0..5).collect(),
            };
            let value = |v: usize, x, y, z| {
                let c = |i, axis: usize| voxel_centre(i, grid[axis]);
                field.sample_var(vars[v], c(x, 0), c(y, 1), c(z, 2))
            };
            let layout = mode.layout(grid);
            write_file(&voxels, layout.as_ref(), each_element(vars.len(), value)).unwrap();
            let (a, b) = (
                std::fs::read(&rows).unwrap(),
                std::fs::read(&voxels).unwrap(),
            );
            assert_eq!(a.len(), b.len(), "{} seed {seed}", mode.name());
            assert!(a == b, "{} seed {seed}: the files differ", mode.name());
        }
    }
    std::fs::remove_dir_all(&d).ok();
}

/// Paper-scale plan structure: the 1120³ netCDF single-variable read.
#[test]
fn paper_scale_netcdf_plan_structure() {
    let grid = [1120usize; 3];
    let layout = IoMode::NetCdfUntuned.layout(grid);
    let aggregate = layout.extents(0, &Subvolume::whole(grid));
    // 1120 records of 1120^2 elements each.
    assert_eq!(aggregate.len(), 1120);
    assert_eq!(aggregate[0].len, 1120 * 1120 * ELEM_SIZE);

    // Untuned: 16 MiB windows swallow the 25 MB record stride's gaps.
    let untuned = two_phase_plan(&aggregate, 64, &CollectiveHints::default());
    assert!(
        untuned.data_density() < 0.35,
        "untuned density {}",
        untuned.data_density()
    );
    // "~3,000 actual accesses, each roughly 15 MB".
    assert!(
        untuned.accesses.len() > 1000 && untuned.accesses.len() < 6000,
        "{} accesses",
        untuned.accesses.len()
    );
    assert!(untuned.mean_access_bytes() > 10e6 && untuned.mean_access_bytes() < 17e6);

    // Tuned to the record size: ~2x overhead (11 GB for 5 GB).
    let rec = 1120 * 1120 * ELEM_SIZE;
    let tuned = two_phase_plan(&aggregate, 64, &CollectiveHints::tuned(rec));
    let over = tuned.physical_bytes as f64 / tuned.useful_bytes as f64;
    assert!(over < 2.5, "tuned over-read {over}");
    assert!(tuned.physical_bytes < untuned.physical_bytes);

    // Raw mode: density 1.
    let raw_layout = IoMode::Raw.layout(grid);
    let raw_agg = raw_layout.extents(0, &Subvolume::whole(grid));
    let raw = two_phase_plan(&raw_agg, 64, &CollectiveHints::default());
    assert!((raw.data_density() - 1.0).abs() < 1e-9);
}

/// Figure 7's qualitative content, derived from plans alone: tuned
/// beats untuned at every aggregator count.
#[test]
fn tuning_always_helps_at_paper_scale() {
    let grid = [1120usize; 3];
    let layout = IoMode::NetCdfTuned.layout(grid);
    let aggregate = layout.extents(2, &Subvolume::whole(grid));
    let rec = 1120 * 1120 * ELEM_SIZE;
    for naggr in [8usize, 32, 128, 512] {
        let untuned = two_phase_plan(&aggregate, naggr, &CollectiveHints::default());
        let tuned = two_phase_plan(&aggregate, naggr, &CollectiveHints::tuned(rec));
        assert!(
            tuned.physical_bytes < untuned.physical_bytes,
            "naggr={naggr}: tuned {} !< untuned {}",
            tuned.physical_bytes,
            untuned.physical_bytes
        );
    }
}

/// HDF5 independent chunk reads at paper scale: ~1.5x over-read.
#[test]
fn paper_scale_hdf5_overhead() {
    let cfg = {
        let mut c = FrameConfig::paper_1120(2048);
        c.io = IoMode::Hdf5;
        c
    };
    let io = parallel_volume_rendering::core::PerfModel::default().simulate_io(&cfg);
    let over = io.physical_bytes as f64 / io.useful_bytes as f64;
    assert!(over > 1.1 && over < 2.2, "hdf5 over-read {over}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random decomposition + random hints still deliver correct bytes,
    /// on a pool of any of 1–4 threads.
    #[test]
    fn random_hints_never_corrupt_data(
        nblocks in 1usize..8,
        naggr in 1usize..6,
        cb_kb in 1u64..64,
        var in 0usize..3,
        threads in 1usize..5,
    ) {
        let grid = [16usize, 12, 10];
        let layout = IoMode::NetCdfUntuned.layout(grid);
        let p = write_tmp(layout.as_ref(), &format!("prop-{nblocks}-{naggr}-{cb_kb}-{var}-{threads}.nc"));
        let decomp = BlockDecomposition::new(grid, nblocks);
        let requests: Vec<RankRequest> = decomp
            .blocks()
            .iter()
            .map(|b| {
                let sub = decomp.with_ghost(b, 1);
                let mut runs = Vec::new();
                layout.placed_runs(var, &sub, &mut |r| runs.push(r));
                RankRequest { runs, out_elems: sub.num_elements() }
            })
            .collect();
        let mut f = std::fs::File::open(&p).unwrap();
        let hints = CollectiveHints { cb_buffer_size: cb_kb * 1024 };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let res = pool.install(|| two_phase_execute(&mut f, &requests, naggr, &hints)).unwrap();
        for (rank, b) in decomp.blocks().iter().enumerate() {
            let sub = decomp.with_ghost(b, 1);
            let endian = layout.endian();
            let bytes = &res.rank_bytes[rank];
            let mut i = 0;
            let e = sub.end();
            for z in sub.offset[2]..e[2] {
                for y in sub.offset[1]..e[1] {
                    for x in sub.offset[0]..e[0] {
                        let v = endian.decode([
                            bytes[i * 4], bytes[i * 4 + 1], bytes[i * 4 + 2], bytes[i * 4 + 3],
                        ]);
                        prop_assert_eq!(v, field(var, x, y, z));
                        i += 1;
                    }
                }
            }
        }
        std::fs::remove_file(&p).ok();
    }
}
