//! Property tests pinning the render/composite fast path, bitwise.
//!
//! The macrocell/LUT empty-space skip and the sparse subimage exchange
//! are *conservative* optimizations: they may only elide work whose
//! contribution is provably exactly zero. These tests state that as a
//! bit-identity — across random transfer functions (including ones with
//! exact zero-opacity bands), random views, ghost widths, block
//! decompositions, and both frame executors, the fast path produces the
//! same pixels as the naive dense kernel, bit for bit.

use parallel_volume_rendering::compositing::PieceScan;
use parallel_volume_rendering::core::pipeline::{
    decode_fragment_msg, default_view, encode_fragment_msg, render_opts, run_frame_mpi,
    transfer_for,
};
use parallel_volume_rendering::core::{
    run_frame, run_frame_mpi_profiled, write_dataset, FrameConfig, IoMode,
};
use parallel_volume_rendering::mpisim::trace::{MarkKind, TraceEvent};
use parallel_volume_rendering::render::raycast::{
    render_block, render_block_with_grid, BlockDomain, RenderOpts, RenderStats, Shading,
    Termination,
};
use parallel_volume_rendering::render::{Camera, PixelRect, SubImage, TransferFunction, Vec3};
use parallel_volume_rendering::volume::{
    BlockDecomposition, MacrocellGrid, SupernovaField, Volume,
};

use proptest::prelude::*;
use proptest::Rng;

/// A uniform in `[lo, hi)` from the shim RNG.
fn uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.below(1 << 20) as f64 / (1 << 20) as f64)
}

/// A random transfer function over `(-1, 1)`: one of the built-in maps
/// or a randomized ramp that, half the time, carries an *exactly* zero
/// opacity plateau (both plateau control points have `a = 0.0`) — the
/// structure the macrocell skip exploits.
fn random_tf(rng: &mut Rng) -> TransferFunction {
    match rng.below(4) {
        0 => TransferFunction::supernova_velocity(),
        1 => TransferFunction::grayscale((-1.0, 1.0)),
        _ => {
            let zero_band = rng.below(2) == 0;
            let (b0, b1) = (
                uniform(rng, 0.2, 0.45) as f32,
                uniform(rng, 0.55, 0.8) as f32,
            );
            let mut pts = vec![
                (0.0f32, [1.0, 0.2, 0.1, uniform(rng, 0.0, 0.8) as f32]),
                (1.0f32, [0.1, 0.3, 1.0, uniform(rng, 0.0, 0.8) as f32]),
            ];
            if zero_band {
                pts.push((b0, [0.5, 0.5, 0.5, 0.0]));
                pts.push((b1, [0.5, 0.5, 0.5, 0.0]));
            } else {
                pts.push((b0, [0.5, 0.5, 0.5, uniform(rng, 0.0, 0.3) as f32]));
            }
            TransferFunction::from_points((-1.0, 1.0), &pts)
        }
    }
}

/// Rank counts that cut a 16³–18³ grid into blocks the kernel rule
/// marches under a 96² image.
const MARCHING_RANKS: [usize; 5] = [2, 3, 4, 6, 8];

fn assert_subs_bitwise(a: &SubImage, b: &SubImage, what: &str) {
    assert_eq!(a.rect, b.rect, "{what}: rects differ");
    for (i, (pa, pb)) in a.pixels.iter().zip(&b.pixels).enumerate() {
        for c in 0..4 {
            assert_eq!(
                pa[c].to_bits(),
                pb[c].to_bits(),
                "{what}: pixel {i} channel {c}: {} vs {}",
                pa[c],
                pb[c]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Block renderer: for a random decomposition, ghost width, view,
    /// and transfer function, every block renders bit-identically with
    /// the skipping packet march and the reference loop, and the
    /// per-block sample ladder is the same length (skipping changes
    /// `skipped_samples`, nothing else). The march is forced with an
    /// explicit grid: most of these small blocks are ones `render_block`
    /// would send to the reference loop.
    #[test]
    fn block_render_fast_path_is_bit_identical(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x9e37_79b9) | 1);
        let dims = [
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
        ];
        let field = SupernovaField::new(1500 + seed).variable(rng.below(5) as usize);
        let nprocs = 2 + rng.below(7) as usize;
        // Shading widens the trilinear support, so exact equivalence
        // needs the 2-cell ghost; unshaded runs also exercise ghost 1.
        let ghost = 1 + rng.below(2) as usize;
        let shading = ghost >= 2 && rng.below(2) == 0;
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0), // never degenerate
        );
        let tf = random_tf(&mut rng);
        let cam = Camera::orthographic(dims, view, 40, 40);
        let base = RenderOpts {
            step: uniform(&mut rng, 0.6, 1.4),
            shading: shading.then(Shading::default),
            ..Default::default()
        };

        let decomp = BlockDecomposition::new(dims, nprocs);
        let mut total_skipped = 0u64;
        for b in decomp.blocks() {
            let stored = decomp.with_ghost(&b, ghost);
            let vol = Volume::from_field_window(&field, dims, stored.offset, stored.shape);
            let dom = BlockDomain { grid: dims, owned: b.sub, stored };
            let naive = RenderOpts { fast_path: false, ..base };
            let fast = RenderOpts { fast_path: true, ..base };
            let grid = MacrocellGrid::build(&vol);
            let (sub_n, st_n) = render_block(&vol, &dom, &cam, &tf, &naive);
            let (sub_f, st_f) = render_block_with_grid(&vol, Some(&grid), &dom, &cam, &tf, &fast);
            prop_assert_eq!(st_n.samples, st_f.samples, "sample ladders differ");
            prop_assert_eq!(st_n.skipped_samples, 0);
            assert_subs_bitwise(&sub_n, &sub_f, &format!("seed {seed} block {:?}", b.sub.offset));
            total_skipped += st_f.skipped_samples;
        }
        // Not asserted > 0: a fully opaque random TF legitimately
        // degrades to the naive path. The supernova TF cases skip.
        let _ = total_skipped;
    }

    /// Threaded executor: a whole frame (render + sparse direct-send
    /// exchange) with the fast path on equals the naive frame bitwise,
    /// and the sparse exchange never prices above dense. The image is
    /// large enough that the rule marches blocks of every rank count
    /// drawn (5 and 7 ranks cut one-axis slabs too thin for the march).
    #[test]
    fn frame_fast_path_on_off_bit_identical(seed in 0u64..10_000, pick in 0usize..5) {
        let nprocs = MARCHING_RANKS[pick];
        let mut cfg = FrameConfig::small(18, 96, nprocs);
        cfg.seed = 2000 + seed;
        cfg.variable = (seed % 5) as usize;
        cfg.shading = seed % 3 == 0;
        let fast = run_frame(&cfg, None);
        cfg.fast_path = false;
        let naive = run_frame(&cfg, None);
        prop_assert!(fast.render_packets > 0, "the fast frame never marched");
        prop_assert_eq!(naive.render_samples, fast.render_samples);
        prop_assert_eq!(naive.render_skipped, 0);
        for (a, b) in naive.image.pixels().iter().zip(fast.image.pixels()) {
            for c in 0..4 {
                prop_assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
        prop_assert!(fast.composite.bytes <= fast.composite.dense_bytes);
    }

    /// Message-passing executor: same statement through the MPI-style
    /// pipeline, reading the dataset from a real file — the sparse
    /// fragment codec on the wire must also be lossless.
    #[test]
    fn mpi_frame_fast_path_on_off_bit_identical(seed in 0u64..10_000, pick in 0usize..4) {
        let nprocs = MARCHING_RANKS[pick];
        let mut cfg = FrameConfig::small(16, 96, nprocs);
        cfg.seed = 3000 + seed;
        cfg.variable = 2;
        cfg.shading = seed % 2 == 0;
        cfg.io = IoMode::Raw;
        let dir = std::env::temp_dir().join(format!("pvr-fastpath-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("fp-{seed}-{nprocs}.raw"));
        write_dataset(&path, &cfg).unwrap();
        let fast = run_frame_mpi(&cfg, &path);
        cfg.fast_path = false;
        let naive = run_frame_mpi(&cfg, &path);
        std::fs::remove_file(&path).ok();
        prop_assert!(fast.render_packets > 0, "the fast frame never marched");
        prop_assert_eq!(naive.render_samples, fast.render_samples);
        for (a, b) in naive.image.pixels().iter().zip(fast.image.pixels()) {
            for c in 0..4 {
                prop_assert_eq!(a[c].to_bits(), b[c].to_bits());
            }
        }
    }

    /// Packet kernel: for random decompositions, ghost widths, views,
    /// and transfer functions (including exact zero-opacity bands),
    /// marching 8 rays in lockstep — under both the `Off` and the
    /// bitwise termination gate — produces the same pixels, the same
    /// sample-ladder length, and the same ray count as the per-sample
    /// reference loop, bit for bit. Random dims make the per-block pixel
    /// footprints ragged, so partially-filled packets (masked lanes)
    /// are exercised on every case.
    #[test]
    fn packet_kernel_matches_scalar_bitwise_in_exact_mode(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x517c_c1b7) | 1);
        let dims = [
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
            12 + rng.below(24) as usize,
        ];
        let field = SupernovaField::new(4200 + seed).variable(rng.below(5) as usize);
        let nprocs = 2 + rng.below(7) as usize;
        let ghost = 1 + rng.below(2) as usize;
        let shading = ghost >= 2 && rng.below(2) == 0;
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0),
        );
        let tf = random_tf(&mut rng);
        let cam = Camera::orthographic(dims, view, 48, 48);
        let reference = RenderOpts {
            step: uniform(&mut rng, 0.6, 1.4),
            shading: shading.then(Shading::default),
            fast_path: false,
            termination: Termination::Off,
        };

        let decomp = BlockDecomposition::new(dims, nprocs);
        let mut total_packets = 0u64;
        for b in decomp.blocks() {
            let stored = decomp.with_ghost(&b, ghost);
            let vol = Volume::from_field_window(&field, dims, stored.offset, stored.shape);
            let dom = BlockDomain { grid: dims, owned: b.sub, stored };
            let (sub_s, st_s) = render_block(&vol, &dom, &cam, &tf, &reference);
            let grid = MacrocellGrid::build(&vol);
            for term in [Termination::Off, Termination::Bitwise] {
                let popts = RenderOpts { fast_path: true, termination: term, ..reference };
                let (sub_p, st_p) = render_block_with_grid(&vol, Some(&grid), &dom, &cam, &tf, &popts);
                prop_assert_eq!(st_s.samples, st_p.samples, "sample ladders differ");
                prop_assert_eq!(st_s.rays, st_p.rays, "ray counts differ");
                prop_assert_eq!(st_p.error_bound, 0.0, "lossless modes report zero error");
                assert_subs_bitwise(
                    &sub_s,
                    &sub_p,
                    &format!("seed {seed} block {:?} {term:?}", b.sub.offset),
                );
                total_packets += st_p.packets;
            }
        }
        // Ragged 48x48 footprints over random blocks always leave some
        // rays for the packet path; the shared-field march must have
        // actually engaged, or these cases test nothing.
        prop_assert!(total_packets > 0, "no packets launched across any block");
    }

    /// `render_block` with the fast path on runs one of the two kernels
    /// whole, so it is bitwise equal to both in pixels and in the counters
    /// every kernel agrees on (`samples`, `rays`, `terminated_rays`,
    /// `error_bound`), whichever the rule picks. Every case renders each
    /// block through a tiny image (rays too few for the march to pay) and
    /// a large one, and the whole grid as one block, so both sides of the
    /// rule are covered, with and without shading, under `Off`, `Bitwise`
    /// and `Bounded`.
    #[test]
    fn render_block_equals_both_kernels_bitwise(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x6c8e_9cf5) | 1);
        let dims = [
            16 + rng.below(25) as usize,
            16 + rng.below(25) as usize,
            16 + rng.below(25) as usize,
        ];
        let field = SupernovaField::new(6200 + seed).variable(rng.below(5) as usize);
        let nprocs = 2 + rng.below(7) as usize;
        let ghost = 1 + rng.below(2) as usize;
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0),
        );
        let tf = random_tf(&mut rng);
        let opts = RenderOpts {
            step: uniform(&mut rng, 0.6, 1.4),
            shading: (ghost >= 2 && rng.below(2) == 0).then(Shading::default),
            termination: match rng.below(3) {
                0 => Termination::Off,
                1 => Termination::Bitwise,
                _ => Termination::Bounded { alpha: uniform(&mut rng, 0.3, 0.95) as f32 },
            },
            fast_path: true,
        };
        let ladder = |s: &RenderStats| (s.samples, s.rays, s.terminated_rays, s.error_bound.to_bits());
        let mut picks = [0usize; 2]; // [reference, march]
        for decomp in [BlockDecomposition::new(dims, 1), BlockDecomposition::new(dims, nprocs)] {
            for image in [8, 64] {
                let cam = Camera::orthographic(dims, view, image, image);
                for b in decomp.blocks() {
                    let stored = decomp.with_ghost(&b, ghost);
                    let vol = Volume::from_field_window(&field, dims, stored.offset, stored.shape);
                    let dom = BlockDomain { grid: dims, owned: b.sub, stored };
                    let grid = MacrocellGrid::build(&vol);
                    let (sub, st) = render_block(&vol, &dom, &cam, &tf, &opts);
                    let (sub_r, st_r) = render_block_with_grid(&vol, None, &dom, &cam, &tf, &opts);
                    let (sub_p, st_p) =
                        render_block_with_grid(&vol, Some(&grid), &dom, &cam, &tf, &opts);
                    let what = format!("seed {seed} image {image} block {:?}", b.sub.offset);
                    assert_subs_bitwise(&sub, &sub_r, &format!("{what} vs reference"));
                    assert_subs_bitwise(&sub, &sub_p, &format!("{what} vs packet"));
                    prop_assert_eq!(ladder(&st), ladder(&st_r), "{} vs reference", what);
                    prop_assert_eq!(ladder(&st), ladder(&st_p), "{} vs packet", what);
                    // One kernel ran, whole: its perf-decision counters too.
                    prop_assert!(st == st_r || st == st_p, "{}: mixed counters", what);
                    if st_r != st_p {
                        picks[usize::from(st == st_p)] += 1;
                    }
                }
            }
        }
        prop_assert!(picks[0] > 0 && picks[1] > 0, "one side of the rule only: {:?}", picks);
    }

    /// Bounded termination: whatever the cut threshold, the actual
    /// per-pixel, per-channel deviation from the exact image never
    /// exceeds the bound the kernel reported for the block.
    #[test]
    fn bounded_mode_deviation_is_within_reported_bound(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed.wrapping_mul(0x2545_f491) | 1);
        let dims = [
            16 + rng.below(20) as usize,
            16 + rng.below(20) as usize,
            16 + rng.below(20) as usize,
        ];
        let field = SupernovaField::new(5200 + seed).variable(rng.below(5) as usize);
        let view = Vec3::new(
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, -1.0, 1.0),
            uniform(&mut rng, 0.3, 1.0),
        );
        let tf = random_tf(&mut rng);
        let cam = Camera::orthographic(dims, view, 48, 48);
        let vol = Volume::from_field(&field, dims);
        let dom = BlockDomain::whole(dims);
        let alpha = uniform(&mut rng, 0.2, 0.95) as f32;
        let exact = RenderOpts { fast_path: false, ..RenderOpts::exact() };
        let bounded = RenderOpts::bounded(alpha);
        let (sub_e, st_e) = render_block(&vol, &dom, &cam, &tf, &exact);
        let (sub_b, st_b) = render_block(&vol, &dom, &cam, &tf, &bounded);
        prop_assert_eq!(st_e.error_bound, 0.0);
        prop_assert_eq!(sub_e.rect, sub_b.rect);
        let mut dev = 0.0f32;
        for (pe, pb) in sub_e.pixels.iter().zip(&sub_b.pixels) {
            for c in 0..4 {
                dev = dev.max((pe[c] - pb[c]).abs());
            }
        }
        prop_assert!(
            dev <= st_b.error_bound,
            "deviation {} exceeds reported bound {} (alpha {}, terminated {})",
            dev, st_b.error_bound, alpha, st_b.terminated_rays
        );
        // No cut, no error: the bound is zero exactly when nothing
        // terminated at the threshold.
        if st_b.terminated_rays == 0 {
            prop_assert_eq!(st_b.error_bound, 0.0);
            prop_assert_eq!(dev, 0.0);
        }
    }

    /// The fragment wire encoding is lossless: encode → decode returns a
    /// bit-identical pixel buffer for random subimages with random
    /// transparency structure — whichever of the sparse and dense bodies
    /// the encoder picked — and the scan that sized it matches its
    /// content.
    #[test]
    fn sparse_encoding_roundtrips_bitwise(seed in 0u64..1_000_000) {
        let mut rng = Rng::seeded(seed | 1);
        let w = 1 + rng.below(40) as usize;
        let h = 1 + rng.below(30) as usize;
        let rect = PixelRect::new(rng.below(8) as usize, rng.below(8) as usize, w, h);
        let mut sub = SubImage::transparent(rect, uniform(&mut rng, 0.0, 100.0));
        let density = rng.below(101) as f64 / 100.0;
        for p in sub.pixels.iter_mut() {
            if uniform(&mut rng, 0.0, 1.0) < density {
                // Premultiplied; an occasional exact-zero channel keeps
                // the "non-transparent means any channel nonzero" edge.
                *p = [
                    uniform(&mut rng, 0.0, 1.0) as f32,
                    uniform(&mut rng, 0.0, 1.0) as f32,
                    0.0,
                    uniform(&mut rng, 0.01, 1.0) as f32,
                ];
            }
        }
        let (msg, scan) = encode_fragment_msg(0.5, 3, &sub, &sub.rect);
        let (quality, renderer, dec) = decode_fragment_msg(&msg);
        prop_assert_eq!((quality, renderer), (0.5, 3));
        assert_subs_bitwise(&sub, &dec, &format!("roundtrip seed {seed}"));
        prop_assert_eq!(dec.depth.to_bits(), sub.depth.to_bits());
        let payload = sub.pixels.iter().filter(|p| **p != [0.0; 4]).count();
        prop_assert_eq!(scan, PieceScan::of(&sub, &sub.rect));
        prop_assert_eq!((scan.rows, scan.pixels, scan.lit), (h, w * h, payload));
        prop_assert!(scan.spans <= payload);
        // The shorter body went out: at most the dense one.
        prop_assert!(msg.len() <= 8 + 56 + 16 * w * h);
    }
}

/// Every rank of a traced message-passing frame whose blocks march marks
/// one `render.packets` instant carrying exactly the packets its block
/// launches through `render_block` with the frame's camera, map and
/// options — the march path of the rank's render stage, end to end.
#[test]
fn mpi_ranks_mark_the_packets_they_march() {
    let mut cfg = FrameConfig::small(16, 96, 8);
    cfg.variable = 2;
    let dir = std::env::temp_dir().join(format!("pvr-fastpath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("packets-traced.raw");
    write_dataset(&path, &cfg).unwrap();
    let run = run_frame_mpi_profiled(&cfg, &path).unwrap();
    std::fs::remove_file(&path).ok();

    let field = SupernovaField::new(cfg.seed).variable(cfg.variable);
    let cam = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    let (tf, opts) = (transfer_for(&cfg), render_opts(&cfg));
    let decomp = BlockDecomposition::new(cfg.grid, cfg.nprocs);
    let mut total = 0;
    for (rank, b) in decomp.blocks().iter().enumerate() {
        let stored = decomp.with_ghost(b, 1);
        let vol = Volume::from_field_window(&field, cfg.grid, stored.offset, stored.shape);
        let dom = BlockDomain {
            grid: cfg.grid,
            owned: b.sub,
            stored,
        };
        let packets = render_block(&vol, &dom, &cam, &tf, &opts).1.packets;
        assert!(packets > 0, "rank {rank}'s block does not march");
        let marked: Vec<u64> = run
            .trace
            .events_for(rank)
            .filter_map(|e| match e {
                TraceEvent::Mark {
                    label: "render.packets",
                    kind: MarkKind::Instant,
                    value,
                    ..
                } => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(marked, [packets], "rank {rank}'s render.packets instants");
        total += packets;
    }
    assert_eq!(run.frame.render_packets, total);
}
