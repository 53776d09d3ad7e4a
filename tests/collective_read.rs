//! The collective read streams: aggregator groups read their own file
//! domains in 256 KiB positional stripes, on as many threads as the
//! pool has, and decode straight into the ranks' volumes. What it
//! delivers must not depend on the thread count, what it reads must not
//! change, and what it holds must not grow with `cb_buffer_size`.

#[path = "support/alloc.rs"]
mod alloc;
mod support;

use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use parallel_volume_rendering::core::{
    laptop_aggregators, run_frame, run_frame_traced, FrameConfig, IoMode,
};
use parallel_volume_rendering::formats::extent::coalesce;
use parallel_volume_rendering::formats::layout::{FileLayout, PlacedRun};
use parallel_volume_rendering::formats::{
    each_element, write_file, NetCdf64Layout, NetCdfClassicLayout, RawLayout, Subvolume, ELEM_SIZE,
};
use parallel_volume_rendering::obs::span::EventKind;
use parallel_volume_rendering::obs::Tracer;
use parallel_volume_rendering::pfs::twophase::{
    decode_scatter, file_domains, two_phase_execute, CollectiveHints, RankRequest, ScatterPlan,
};
use parallel_volume_rendering::pfs::StoredLattice;
use parallel_volume_rendering::volume::BlockDecomposition;
use proptest::prelude::*;

/// The read's stripe: windows shorter than, equal to and longer than
/// this are all exercised.
const STRIPE: u64 = 256 << 10;

/// A value per (variable, voxel) that no two elements share.
fn field(var: usize, x: usize, y: usize, z: usize) -> f32 {
    (var as f32) * 1e6 + (z as f32) * 1e4 + (y as f32) * 1e2 + x as f32
}

/// `layout`'s file of [`field`], written once per test process.
fn dataset(layout: &dyn FileLayout, name: &str) -> PathBuf {
    support::fixture("pvr-collective-read", name, |p| {
        write_file(p, layout, each_element(layout.num_vars(), field))
    })
}

/// Run `f` with the data-parallel pool capped at `n` threads.
fn on_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("the shim pool builder cannot fail")
        .install(f)
}

/// One request per ghosted block of `nblocks`, for variable `var`.
fn requests(
    layout: &dyn FileLayout,
    grid: [usize; 3],
    nblocks: usize,
    var: usize,
) -> Vec<RankRequest> {
    ghosted_requests(layout, &BlockDecomposition::new(grid, nblocks), 1, var)
}

/// One request per block of `decomp` grown by `ghost`, for variable
/// `var`.
fn ghosted_requests(
    layout: &dyn FileLayout,
    decomp: &BlockDecomposition,
    ghost: usize,
    var: usize,
) -> Vec<RankRequest> {
    decomp
        .blocks()
        .iter()
        .map(|b| {
            let sub = decomp.with_ghost(b, ghost);
            let mut runs = Vec::new();
            layout.placed_runs(var, &sub, &mut |r| runs.push(r));
            RankRequest {
                runs,
                out_elems: sub.num_elements(),
            }
        })
        .collect()
}

/// The placed runs of `requests[rank]`, as `decode_scatter` visits them.
fn request_runs(requests: &[RankRequest]) -> impl Fn(usize, &mut dyn FnMut(PlacedRun)) + '_ {
    |rank, f| requests[rank].runs.iter().for_each(|&r| f(r))
}

fn bits(volumes: &[Vec<f32>]) -> Vec<Vec<u32>> {
    volumes
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// For every collective layout, and buffers whose windows are shorter
/// than, equal to and longer than a stripe — one not a multiple of 4 —
/// over aggregator counts whose file domains meet inside an element:
/// the decoded volumes are `two_phase_execute`'s bytes decoded with
/// `Endian::decode_slice`, and each rank's runs read one by one, bit for
/// bit at 1, 2 and 4 threads. `two_phase_execute` reads under the same
/// plan and reports its exchange bytes.
#[test]
fn decoded_volumes_are_bit_identical_at_every_thread_count() {
    let grid = [72usize, 64, 56];
    let nblocks = 12;
    let (mut lengths, mut unaligned) = ([false; 3], false);
    for mode in IoMode::ALL {
        let layout = mode.layout(grid);
        if !layout.collective() {
            continue;
        }
        let var = if mode == IoMode::Raw { 0 } else { 3 };
        let path = dataset(layout.as_ref(), &format!("grid.{}", mode.name()));
        let requests = requests(layout.as_ref(), grid, nblocks, var);
        let endian = layout.endian();

        // Each rank's runs, read one at a time: the oracle that shares no
        // code with the collective read.
        let file = std::fs::File::open(&path).unwrap();
        let want: Vec<Vec<f32>> = requests
            .iter()
            .map(|rq| {
                let mut out = vec![0.0f32; rq.out_elems];
                for r in &rq.runs {
                    let mut buf = vec![0u8; r.elems * ELEM_SIZE as usize];
                    file.read_exact_at(&mut buf, r.file_offset).unwrap();
                    endian.decode_slice(&buf, &mut out[r.out_start..r.out_start + r.elems]);
                }
                out
            })
            .collect();

        let mut aggregate = layout.extents(var, &Subvolume::whole(grid));
        coalesce(&mut aggregate);
        for naggr in [3, 5] {
            let first = aggregate[0].offset;
            unaligned |= file_domains(&aggregate, naggr)
                .iter()
                .any(|d| !(d.offset - first).is_multiple_of(ELEM_SIZE));
            for cb in [100_001, STRIPE, 16 << 20] {
                let hints = CollectiveHints { cb_buffer_size: cb };
                let sp = ScatterPlan::build(&requests, naggr, &hints);
                for a in &sp.plan.accesses {
                    lengths[(a.extent.len.cmp(&STRIPE) as i8 + 1) as usize] = true;
                }
                let case = format!("{} naggr={naggr} cb={cb}", mode.name());
                let mut f = std::fs::File::open(&path).unwrap();
                let res =
                    on_threads(1, || two_phase_execute(&mut f, &requests, naggr, &hints)).unwrap();
                assert_eq!(sp.plan.accesses, res.plan.accesses, "{case}");
                assert_eq!(sp.exchange_bytes, res.exchange_bytes, "{case}");
                let oracle: Vec<Vec<f32>> = res
                    .rank_bytes
                    .iter()
                    .map(|b| {
                        let mut out = vec![0.0f32; b.len() / ELEM_SIZE as usize];
                        endian.decode_slice(b, &mut out);
                        out
                    })
                    .collect();
                assert_eq!(bits(&oracle), bits(&want), "{case}: execute");
                for threads in [1, 2, 4] {
                    let mut out: Vec<Vec<f32>> =
                        requests.iter().map(|rq| vec![0.0; rq.out_elems]).collect();
                    let (runs_of, tracer) = (request_runs(&requests), Tracer::disabled());
                    on_threads(threads, || {
                        decode_scatter(&f, &sp, &runs_of, endian, &mut out, &tracer)
                    })
                    .unwrap();
                    assert_eq!(bits(&out), bits(&want), "{case} at {threads} threads");
                }
            }
        }
    }
    assert_eq!(
        lengths, [true; 3],
        "windows shorter than, equal to, longer than a stripe"
    );
    assert!(unaligned, "no file domain boundary splits an element");
}

/// A recycled voxel buffer goes to the next read unfilled, so the read
/// must write every element: over every collective layout, buffers full
/// of NaN decode bit-identically to zeroed ones.
#[test]
fn a_recycled_buffer_full_of_nan_decodes_bit_identically() {
    let grid = [72usize, 64, 56];
    for mode in IoMode::ALL {
        let layout = mode.layout(grid);
        if !layout.collective() {
            continue;
        }
        let var = if mode == IoMode::Raw { 0 } else { 3 };
        let path = dataset(layout.as_ref(), &format!("grid.{}", mode.name()));
        let requests = requests(layout.as_ref(), grid, 12, var);
        let sp = ScatterPlan::build(&requests, 5, &mode.hints(grid));
        let decode = |fill: f32| {
            let mut out: Vec<Vec<f32>> =
                requests.iter().map(|rq| vec![fill; rq.out_elems]).collect();
            let f = std::fs::File::open(&path).unwrap();
            let (runs_of, tracer) = (request_runs(&requests), Tracer::disabled());
            decode_scatter(&f, &sp, &runs_of, layout.endian(), &mut out, &tracer).unwrap();
            out
        };
        assert_eq!(
            bits(&decode(f32::NAN)),
            bits(&decode(0.0)),
            "{}",
            mode.name()
        );
    }
}

/// The ledger's `io-record` frame: 128³, five interleaved record
/// variables, default hints, 8 ranks reading variable 2.
fn io_record() -> (FrameConfig, PathBuf) {
    let mut cfg = FrameConfig::small(128, 32, 8);
    cfg.io = IoMode::NetCdfUntuned;
    cfg.variable = 2;
    cfg.step = 4.0;
    let path = dataset(cfg.io.layout(cfg.grid).as_ref(), "io-record.nc");
    (cfg, path)
}

/// The largest volume a rank of `cfg` stores, in bytes.
fn largest_volume_bytes(cfg: &FrameConfig) -> u64 {
    let decomp = BlockDecomposition::new(cfg.grid, cfg.nprocs);
    let ghost = if cfg.shading { 2 } else { 1 };
    let blocks = decomp.blocks();
    let elems = blocks
        .iter()
        .map(|b| decomp.with_ghost(b, ghost).num_elements());
    elems.max().unwrap() as u64 * ELEM_SIZE
}

/// The collective read holds one stripe buffer per aggregator group,
/// not one window: at one thread, an `io-record` frame (16 MiB windows)
/// allocates nothing larger than the largest rank volume.
#[test]
fn a_collective_frame_allocates_nothing_larger_than_a_rank_volume() {
    let (cfg, path) = io_record();
    let sp = {
        let layout = cfg.io.layout(cfg.grid);
        let reqs = requests(layout.as_ref(), cfg.grid, cfg.nprocs, cfg.file_variable());
        ScatterPlan::build(
            &reqs,
            laptop_aggregators(cfg.nprocs),
            &cfg.io.hints(cfg.grid),
        )
    };
    let window = sp.plan.accesses.iter().map(|a| a.extent.len).max().unwrap();
    let volume = largest_volume_bytes(&cfg);
    assert!(window > STRIPE && window > volume, "a window of {window} B");
    let (frame, largest) = on_threads(1, || alloc::largest(|| run_frame(&cfg, Some(&path))));
    assert!(frame.render_samples > 0);
    println!("largest allocation {largest} B, largest rank volume {volume} B");
    assert!(
        largest <= volume,
        "largest allocation {largest} B > largest rank volume {volume} B"
    );
}

/// An `io-record` frame holds little beyond its voxel buffers, which
/// the frame before it left for it: the read plan is one run list,
/// built in file order, with no per-rank request lists and no sort
/// scratch beside it. Measured at one thread, as the lowest of four
/// frames (another test's frame may take the spare buffers between
/// two of them): 1 092 820 B, where requests, sorted runs and the
/// sort's scratch held 2 468 788 B. The bound is the measurement plus
/// 10 %.
#[test]
fn an_io_record_frame_holds_little_beyond_its_volumes() {
    let (cfg, path) = io_record();
    let peak = on_threads(1, || {
        let mut lowest = u64::MAX;
        for _ in 0..4 {
            let (frame, peak) = alloc::peak_live(|| run_frame(&cfg, Some(&path)));
            assert!(frame.render_samples > 0);
            lowest = lowest.min(peak);
        }
        lowest
    });
    println!("io-record live peak above its volumes: {peak} B");
    assert!(peak <= FRAME_LIVE_PEAK, "{peak} B live at the peak");
}

/// [`an_io_record_frame_holds_little_beyond_its_volumes`]'s bound.
const FRAME_LIVE_PEAK: u64 = 1_202_000;

/// What the `io-record` read does is exactly what it did before it
/// streamed: the counts below were recorded from the window-buffer
/// read. One `io.window` span per access, each on its aggregator's
/// rank track (ranks 0 and 4 of 8).
#[test]
fn io_record_read_counts_are_pinned() {
    let (cfg, path) = io_record();
    for threads in [1, 2] {
        let tracer = Tracer::wall();
        let frame = on_threads(threads, || run_frame_traced(&cfg, Some(&path), &tracer));
        let io = frame.io;
        assert_eq!(
            (
                io.accesses,
                io.physical_bytes,
                io.useful_bytes,
                io.exchange_bytes
            ),
            (
                PINNED_ACCESSES,
                PINNED_PHYSICAL,
                PINNED_USEFUL,
                PINNED_EXCHANGE
            ),
            "at {threads} threads"
        );
        let profile = tracer.finish();
        let windows: Vec<_> = profile
            .events
            .iter()
            .filter(|e| e.name == "io.window" && e.kind == EventKind::Begin)
            .collect();
        assert_eq!(windows.len(), PINNED_ACCESSES, "at {threads} threads");
        let mut tracks: Vec<_> = windows.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        assert_eq!(tracks, [0, 4], "at {threads} threads");
    }
}

/// `pfs.{accesses, physical_bytes, useful_bytes, exchange_bytes}` of
/// `io-record`: two aggregators, each one 16 MiB window and one short
/// one, reading five bytes for each useful one.
const PINNED_ACCESSES: usize = 4;
const PINNED_PHYSICAL: u64 = 41_418_752;
const PINNED_USEFUL: u64 = 8_388_608;
const PINNED_EXCHANGE: u64 = 6_624_800;

/// The three collective layouts of a five-variable `grid`, each with
/// the variable read from it.
fn collective_layouts(grid: [usize; 3]) -> [(Box<dyn FileLayout>, usize); 3] {
    [
        (Box::new(RawLayout::new(grid)), 0),
        (Box::new(NetCdfClassicLayout::new(grid, 5)), 3),
        (Box::new(NetCdf64Layout::new(grid, 5)), 2),
    ]
}

/// The lattice plan of `n` blocks of `grid` grown by `ghost` equals
/// `ScatterPlan::build`'s over the blocks' rank requests — runs,
/// accesses, expected pieces, exchange bytes and every window's sends — in every
/// collective layout, and the lattice read decodes what the sorted
/// plan's does, bit for bit. Returns whether two x-blocks
/// of the lattice store from the same voxel.
fn check_lattice_plan(grid: [usize; 3], n: usize, ghost: usize, naggr: usize, cb: u64) -> bool {
    let decomp = BlockDecomposition::new(grid, n);
    let lattice = StoredLattice::new(decomp.stored_intervals(ghost));
    let hints = CollectiveHints { cb_buffer_size: cb };
    for (layout, var) in collective_layouts(grid) {
        let layout = layout.as_ref();
        let case = format!(
            "{} grid {grid:?} n={n} ghost={ghost} naggr={naggr} cb={cb}",
            layout.kind().name()
        );
        let requests = ghosted_requests(layout, &decomp, ghost, var);
        let want = ScatterPlan::build(&requests, naggr, &hints);
        let got = ScatterPlan::from_lattice(layout, var, &lattice, naggr, &hints);
        assert_eq!(got.runs, want.runs, "{case}: runs");
        assert_eq!(got.plan.accesses, want.plan.accesses, "{case}: accesses");
        let sums = |p: &ScatterPlan| {
            (
                p.plan.useful_bytes,
                p.plan.physical_bytes,
                p.plan.unique_bytes,
            )
        };
        assert_eq!(sums(&got), sums(&want), "{case}: plan bytes");
        assert_eq!(got.piece_counts, want.piece_counts, "{case}: piece counts");
        assert_eq!(got.piece_bytes, want.piece_bytes, "{case}: piece bytes");
        assert_eq!(
            got.exchange_bytes, want.exchange_bytes,
            "{case}: exchange bytes"
        );
        for a in &want.plan.accesses {
            assert_eq!(got.sends_in(a.extent), want.sends_in(a.extent), "{case}");
        }

        let name = format!(
            "lattice.{}.{}x{}x{}",
            layout.kind().name(),
            grid[0],
            grid[1],
            grid[2]
        );
        let path = dataset(layout, &name);
        let fresh =
            || -> Vec<Vec<f32>> { requests.iter().map(|rq| vec![0.0; rq.out_elems]).collect() };
        let (endian, tracer) = (layout.endian(), Tracer::disabled());
        let mut oracle = fresh();
        let f = std::fs::File::open(&path).unwrap();
        decode_scatter(
            &f,
            &want,
            &request_runs(&requests),
            endian,
            &mut oracle,
            &tracer,
        )
        .unwrap();
        let mut out = fresh();
        let runs_of = |rank: usize, f: &mut dyn FnMut(PlacedRun)| {
            layout.placed_runs(var, &lattice.block(rank), f)
        };
        decode_scatter(&f, &got, &runs_of, endian, &mut out, &tracer).unwrap();
        assert_eq!(bits(&out), bits(&oracle), "{case}: decoded volumes");
    }
    let xs: Vec<usize> = (0..decomp.counts()[0])
        .map(|bx| lattice.block(bx).offset[0])
        .collect();
    xs.windows(2).any(|w| w[0] == w[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random grids, 7-smooth block counts (which every grid of at
    /// least 8 voxels a side decomposes into), ghosts of 1 and 2,
    /// aggregator counts and buffer sizes that split runs and elements.
    #[test]
    fn the_lattice_plan_is_the_sorted_plan(
        grid in (8usize..25, 8usize..25, 8usize..25),
        n in 0usize..SMOOTH.len(),
        ghost in 1usize..3,
        naggr in 1usize..6,
        cb in 50u64..20_000,
    ) {
        check_lattice_plan([grid.0, grid.1, grid.2], SMOOTH[n], ghost, naggr, cb);
    }
}

/// Block counts with no prime factor above 7.
const SMOOTH: [usize; 19] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 16, 18, 24, 27, 32, 36, 48, 64,
];

/// Lattices whose clamped ghosts give two x-blocks the same stored
/// start — blocks one voxel wide under ghost 1, two wide under ghost 2,
/// along x alone and mixed with y and z blocks — plan and read as the
/// sort does.
#[test]
fn clamped_ghosts_that_tie_plan_like_the_sort() {
    let cases = [
        ([8, 2, 2], 8, 1),
        ([16, 3, 3], 8, 2),
        ([6, 2, 2], 24, 1),
        ([12, 9, 5], 36, 2),
        ([10, 4, 6], 20, 2),
    ];
    for (grid, n, ghost) in cases {
        for (naggr, cb) in [(1, 64), (3, 997), (4, 16 << 20)] {
            assert!(
                check_lattice_plan(grid, n, ghost, naggr, cb),
                "grid {grid:?} n={n} ghost={ghost}: no two x-blocks tie"
            );
        }
    }
}
