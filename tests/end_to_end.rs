//! Cross-crate integration: the full pipeline against ground truth.
//!
//! The strongest correctness statement in this workspace: a frame
//! rendered by `n` ranks reading a real file through collective I/O and
//! composited by any algorithm equals a single serial ray cast of the
//! full volume, to floating-point tolerance.

use parallel_volume_rendering::compositing::{composite_radix_k, composite_serial, ImagePartition};
use parallel_volume_rendering::core::pipeline::{default_view, run_frame_mpi, transfer_for};
use parallel_volume_rendering::core::{
    drive_frame, run_frame, write_dataset, CompositorPolicy, Driver, FrameConfig, FrameError,
    IoMode,
};
use parallel_volume_rendering::render::raycast::{render_serial, RenderOpts};
use parallel_volume_rendering::render::Camera;
use parallel_volume_rendering::volume::{SupernovaField, Volume};

fn tmp(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d.join(name)
}

/// Serial ground truth for a config: one process, whole volume.
fn serial_reference(cfg: &FrameConfig) -> parallel_volume_rendering::render::Image {
    let field = SupernovaField::new(cfg.seed).variable(cfg.variable);
    let vol = Volume::from_field(&field, cfg.grid);
    let cam = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    let (img, _) = render_serial(
        &vol,
        &cam,
        &transfer_for(cfg),
        &RenderOpts {
            step: cfg.step,
            ..Default::default()
        },
    );
    img
}

#[test]
fn parallel_pipeline_equals_serial_ray_cast() {
    for nprocs in [2usize, 8, 27] {
        let mut cfg = FrameConfig::small(24, 36, nprocs);
        cfg.variable = 2;
        let result = run_frame(&cfg, None);
        let reference = serial_reference(&cfg);
        let d = result.image.max_abs_diff(&reference);
        assert!(d < 2e-3, "nprocs={nprocs}: max diff {d}");
    }
}

#[test]
fn pipeline_from_disk_equals_serial_ray_cast() {
    let mut cfg = FrameConfig::small(20, 30, 8);
    cfg.variable = 2;
    cfg.io = IoMode::NetCdfUntuned;
    let p = tmp("e2e.nc");
    write_dataset(&p, &cfg).unwrap();
    let result = run_frame(&cfg, Some(&p));
    let reference = serial_reference(&cfg);
    let d = result.image.max_abs_diff(&reference);
    assert!(d < 2e-3, "max diff {d}");
    std::fs::remove_file(&p).ok();
}

#[test]
fn every_compositor_produces_the_same_image() {
    // Render subimages once via the pipeline internals, then composite
    // with direct-send (several m), binary swap (radix-k with every
    // radix 2), and serial gather.
    let mut cfg = FrameConfig::small(24, 40, 16);
    cfg.variable = 2;

    // Get the real frame (direct-send m = n).
    let base = run_frame(&cfg, None);

    for m in [1usize, 4, 7, 16] {
        let mut c = cfg;
        c.policy = CompositorPolicy::Fixed(m);
        let r = run_frame(&c, None);
        let d = r.image.max_abs_diff(&base.image);
        assert!(d < 1e-5, "direct-send m={m}: diff {d}");
    }

    // Binary swap / serial gather on independently rendered subimages.
    let field = SupernovaField::new(cfg.seed).variable(cfg.variable);
    let decomp = parallel_volume_rendering::volume::BlockDecomposition::new(cfg.grid, cfg.nprocs);
    let cam = Camera::orthographic(cfg.grid, default_view(), cfg.image.0, cfg.image.1);
    let tf = transfer_for(&cfg);
    let opts = RenderOpts::default();
    let subs: Vec<_> = decomp
        .blocks()
        .iter()
        .map(|b| {
            let stored = decomp.with_ghost(b, 1);
            let vol = Volume::from_field_window(&field, cfg.grid, stored.offset, stored.shape);
            let dom = parallel_volume_rendering::render::raycast::BlockDomain {
                grid: cfg.grid,
                owned: b.sub,
                stored,
            };
            parallel_volume_rendering::render::raycast::render_block(&vol, &dom, &cam, &tf, &opts).0
        })
        .collect();

    let (bs_img, bs_stats) =
        composite_radix_k(&subs, cfg.image.0, cfg.image.1, Some(&[2, 2, 2, 2]));
    let serial_img = composite_serial(&subs, cfg.image.0, cfg.image.1);
    assert!(
        bs_img.max_abs_diff(&serial_img) < 1e-5,
        "binary swap vs serial gather"
    );
    assert!(
        bs_img.max_abs_diff(&base.image) < 1e-5,
        "binary swap vs pipeline"
    );
    assert_eq!(bs_stats.radices.len(), 4); // log2(16) rounds

    let (ds_img, _) = parallel_volume_rendering::compositing::composite_direct_send(
        &subs,
        ImagePartition::new(cfg.image.0, cfg.image.1, 5),
    );
    assert!(
        ds_img.max_abs_diff(&serial_img) < 1e-5,
        "direct-send(5) vs serial gather"
    );
}

#[test]
fn message_passing_executor_is_bit_identical() {
    let mut cfg = FrameConfig::small(18, 26, 9);
    cfg.variable = 2;
    cfg.io = IoMode::Raw;
    cfg.policy = CompositorPolicy::Fixed(5);
    let p = tmp("mpi-e2e.raw");
    write_dataset(&p, &cfg).unwrap();
    let a = run_frame(&cfg, Some(&p));
    let b = run_frame_mpi(&cfg, &p);
    assert_eq!(
        a.image.max_abs_diff(&b.image),
        0.0,
        "executors must agree bit-for-bit"
    );
    std::fs::remove_file(&p).ok();
}

/// A dataset shorter than its layout is caught before the world starts
/// and comes back typed, naming the file and both lengths — not as a
/// panic inside a rank whose peers would be left in blocking receives.
#[test]
fn short_read_names_rank_path_and_extent() {
    let mut cfg = FrameConfig::small(18, 26, 4);
    cfg.io = IoMode::Raw;
    let p = tmp("short-read.raw");
    write_dataset(&p, &cfg).unwrap();
    let full = std::fs::metadata(&p).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&p)
        .unwrap()
        .set_len(full / 2)
        .unwrap();
    let mpi = Driver::mpi(parallel_volume_rendering::mpisim::RunOptions::default());
    let Err(FrameError::Io { path, source }) = drive_frame(&cfg, Some(&p), mpi) else {
        panic!("expected FrameError::Io");
    };
    assert_eq!(path, p);
    assert_eq!(source.kind(), std::io::ErrorKind::UnexpectedEof);
    let msg = source.to_string();
    for needle in [(full / 2).to_string(), full.to_string()] {
        assert!(msg.contains(&needle), "{needle:?} missing from: {msg}");
    }
    std::fs::remove_file(&p).ok();
}

/// A dataset that cannot be read is a typed error naming the file, not a
/// panic: on both read paths (two-phase collective, independent) of
/// both executors, and on the message-passing executor when no file is
/// given at all.
#[test]
fn unreadable_dataset_is_a_typed_io_error() {
    let mpi = || Driver::mpi(parallel_volume_rendering::mpisim::RunOptions::default());
    let io_error = |cfg: &FrameConfig, p: &std::path::Path, what: &str| {
        for (exec, driver) in [("rayon", Driver::rayon()), ("mpi", mpi())] {
            match drive_frame(cfg, Some(p), driver) {
                Err(FrameError::Io { path, source }) => {
                    assert_eq!(path, p, "{exec}, {what}");
                    let shown = FrameError::Io { path, source }.to_string();
                    let name = p.file_name().unwrap().to_str().unwrap();
                    assert!(shown.contains(name), "{exec}, {what}: {shown}");
                }
                Err(e) => panic!("{exec}, {what}: expected FrameError::Io, got {e}"),
                Ok(_) => panic!("{exec}, {what}: expected FrameError::Io, got a frame"),
            }
        }
    };
    for io in [IoMode::Raw, IoMode::Hdf5] {
        let mut cfg = FrameConfig::small(18, 26, 4);
        cfg.io = io;
        let p = tmp(&format!("unreadable.{}", io.name()));
        std::fs::remove_file(&p).ok();
        io_error(&cfg, &p, "missing file");
        write_dataset(&p, &cfg).unwrap();
        let full = std::fs::metadata(&p).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        // Short enough to cut into the first variable of a
        // multivariate file.
        f.set_len(full / 16).unwrap();
        io_error(&cfg, &p, "truncated file");
        std::fs::remove_file(&p).ok();
    }
    // Requests that cannot run are refused before anything runs: a
    // message-passing frame without a dataset, and a fault plan on the
    // data-parallel executor, which has no rank to lose.
    let cfg = FrameConfig::small(18, 26, 4);
    let policy = parallel_volume_rendering::faults::RecoveryPolicy::fast_test();
    let rayon_ft = Driver::rayon().faults(&Default::default(), &policy);
    for (what, driver) in [
        ("mpi without a dataset", mpi()),
        ("rayon with faults", rayon_ft),
    ] {
        match drive_frame(&cfg, None, driver) {
            Err(FrameError::Io { source, .. }) => {
                assert_eq!(source.kind(), std::io::ErrorKind::InvalidInput, "{what}")
            }
            Err(e) => panic!("{what}: expected FrameError::Io, got {e}"),
            Ok(_) => panic!("{what}: expected FrameError::Io, got a frame"),
        }
    }
}

#[test]
fn frame_time_instrumentation_sums() {
    let cfg = FrameConfig::small(16, 16, 4);
    let r = run_frame(&cfg, None);
    let t = r.timing;
    assert!((t.total() - (t.io + t.render + t.composite)).abs() < 1e-12);
    assert!(t.io_percent() + t.render_percent() + t.composite_percent() - 100.0 < 1e-9);
}

#[test]
fn upsampled_volume_renders_like_original() {
    // The paper upsamples 1120^3 -> 2240^3 and reports "resulting
    // images are similar to those from the original data".
    let field = SupernovaField::new(1530).variable(2);
    let small = Volume::from_field(&field, [24, 24, 24]);
    let up = small.upsample(2);
    let tf = parallel_volume_rendering::render::TransferFunction::supernova_velocity();
    let cam_s = Camera::orthographic([24; 3], default_view(), 48, 48);
    let cam_u = Camera::orthographic([48; 3], default_view(), 48, 48);
    let (img_s, _) = render_serial(&small, &cam_s, &tf, &RenderOpts::default());
    let (img_u, _) = render_serial(&up, &cam_u, &tf, &RenderOpts::default());
    let d = img_s.mean_abs_diff(&img_u);
    assert!(d < 0.08, "upsampled image diverged: mean diff {d}");
}
