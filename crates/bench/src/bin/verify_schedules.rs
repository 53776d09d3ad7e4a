//! Static schedule verification sweep.
//!
//! Runs the `pvr-verify` linter over paper-scale configurations:
//!
//! * **Direct-send** schedules as the executors derive them —
//!   `pvr_core::FrameShared`'s footprints and schedule for a 64³ grid
//!   under the pipeline's oblique orthographic camera — for
//!   n ∈ {2..1024} renderers and compositor counts m ∈ {1..n}
//!   (sampled; exhaustive for small n) — checking
//!   image-partition exactness, overlap conservation (every
//!   footprint ∩ tile intersection sent exactly once, exactly sized),
//!   and the paper's bounded per-compositor fan-in.
//! * **Radix-k** rounds for the default factorization, pure binary
//!   swap, and pure direct-send — checking round degree, group/lane
//!   locality, byte conservation, and final-span partition.
//! * **Stage tags** used by the pipeline.
//! * **Mutation kill check**: seeded faults (drop / duplicate /
//!   reroute / inflate) injected into known-good schedules must all be
//!   caught — proving the linter is not vacuously green.
//!
//! Exits nonzero on any violation (or any uncaught mutation).

use pvr_compositing::radixk::{default_radices, radix_k_schedule};
use pvr_compositing::{build_schedule, ImagePartition, Schedule};
use pvr_core::{CompositorPolicy, FrameConfig, FrameShared};
use pvr_render::image::PixelRect;
use pvr_verify::lint::{expected_fanin, mutate_rounds, mutate_schedule};
use pvr_verify::{lint_direct_send, lint_radix_k, lint_tags, m_samples, LintOptions, Mutation};

const IMAGE: (usize, usize) = (128, 128);
const GRID: [usize; 3] = [64, 64, 64];
// Past-256 entries arrived with the discrete-event core: schedule
// *construction* was never the bottleneck, but until frames could run
// at those sizes there was nothing to hold the linter's answers
// against. n = 512/1024 keep the static checks ahead of the dynamic
// `sim_scale` sweep (the lint is O(n·m) in footprint-tile pairs, so
// each doubling roughly quadruples its share of the run).
const N_SWEEP: [usize; 16] = [
    2, 3, 4, 6, 8, 12, 16, 27, 32, 64, 101, 128, 192, 256, 512, 1024,
];

/// Footprints and direct-send schedule of `n` renderers and `m`
/// compositors, exactly as both executors derive them: the sweep lints
/// the shipped derivation, not a copy of it.
fn frame_schedule(n: usize, m: usize) -> (Vec<PixelRect>, Schedule) {
    // A prime factor larger than a grid axis cannot be placed (e.g.
    // n = 101 on a 64³ grid); those n get the synthetic lattice.
    let mut rem = n;
    for p in 2..=GRID[0] {
        while rem.is_multiple_of(p) {
            rem /= p;
        }
    }
    if rem > 1 {
        let fps = pvr_verify::synthetic_footprints(n, IMAGE.0, IMAGE.1);
        let schedule = build_schedule(&fps, ImagePartition::new(IMAGE.0, IMAGE.1, m));
        return (fps, schedule);
    }
    let mut cfg = FrameConfig::small(GRID[0], IMAGE.0, n);
    cfg.policy = CompositorPolicy::Fixed(m);
    let shared = FrameShared::new(&cfg);
    (shared.footprints().to_vec(), shared.schedule().clone())
}

fn main() {
    let mut checks = 0usize;
    let mut failures = 0usize;
    let mut report = |label: String, ok: bool, detail: String| {
        checks += 1;
        if !ok {
            failures += 1;
            eprintln!("FAIL {label}: {detail}");
        }
    };

    // --- Direct-send sweep: real footprints, sampled m. ---
    for n in N_SWEEP {
        for m in m_samples(n) {
            let (fps, schedule) = frame_schedule(n, m);
            // Real oblique footprints are conservative bounding boxes
            // (larger than the ideal lattice cell), so give the
            // fan-in cap headroom over the synthetic bound.
            let opts = LintOptions {
                mean_fanin_alpha: 6.0,
                max_fanin_beta: 12.0,
                ..LintOptions::default()
            };
            let r = lint_direct_send(&fps, &schedule, &opts);
            report(
                format!("direct-send n={n} m={m}"),
                r.ok(),
                r.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            );
        }
        // Fan-in summary at m = n for the paper's scaling curve.
        let (_, schedule) = frame_schedule(n, n.min(IMAGE.0));
        let part = schedule.partition;
        let mean = schedule.messages.len() as f64 / part.m() as f64;
        println!(
            "direct-send n={n:>3}: {} msgs, mean fan-in {mean:.2} (expected O(n^1/3) ≈ {:.2})",
            schedule.messages.len(),
            expected_fanin(n, part.m()),
        );
    }

    // --- Radix-k sweep: default, binary-swap, direct-send factorizations. ---
    let pixels = IMAGE.0 * IMAGE.1;
    let opts = LintOptions::default();
    for n in N_SWEEP {
        let mut factorizations = vec![("default", default_radices(n)), ("direct", vec![n])];
        if n.is_power_of_two() {
            let swap = vec![2usize; n.trailing_zeros() as usize];
            factorizations.push(("binary-swap", swap));
        }
        for (label, radices) in factorizations {
            if radices.iter().any(|&k| k < 2) {
                continue;
            }
            let rounds = radix_k_schedule(n, pixels, &radices);
            let r = lint_radix_k(n, pixels, &radices, &rounds, &opts);
            report(
                format!("radix-k n={n} {label} {radices:?}"),
                r.ok(),
                r.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            );
        }
    }

    // --- Tag discipline. ---
    let tags = pvr_core::pipeline::tags::ALL;
    let r = lint_tags(&tags);
    report("stage tags".into(), r.ok(), format!("{:?}", r.violations));

    // The animation's epoch scheme must keep every frame's tags
    // disjoint from every other frame's — lint the full multi-frame
    // table the way the single-frame table is linted.
    let anim_tags = pvr_core::FrameTags::table(8);
    let r = lint_tags(&anim_tags);
    report(
        "animation tag epochs (8 frames)".into(),
        r.ok(),
        format!("{:?}", r.violations),
    );

    // --- Mutation kill check: every injected fault must be caught. ---
    let (fps, schedule) = frame_schedule(27, 9);
    for (i, mutation) in [
        Mutation::Drop(3),
        Mutation::Drop(17),
        Mutation::Duplicate(5),
        Mutation::Duplicate(29),
        Mutation::Inflate(7, 13),
        Mutation::Reroute(11, 4),
    ]
    .into_iter()
    .enumerate()
    {
        let bad = mutate_schedule(&schedule, mutation);
        if bad.messages == schedule.messages {
            continue; // mutation was a no-op (rerouted onto itself)
        }
        let caught = !lint_direct_send(&fps, &bad, &LintOptions::default()).ok();
        report(
            format!("mutation-kill direct-send #{i} {mutation:?}"),
            caught,
            "not caught".into(),
        );
    }
    let radices = default_radices(16);
    let rounds = radix_k_schedule(16, pixels, &radices);
    for (i, mutation) in [
        Mutation::Drop(2),
        Mutation::Duplicate(9),
        Mutation::Inflate(5, 11),
        Mutation::Reroute(3, 7),
    ]
    .into_iter()
    .enumerate()
    {
        let bad = mutate_rounds(&rounds, 16, mutation);
        let caught = !lint_radix_k(16, pixels, &radices, &bad, &opts).ok();
        report(
            format!("mutation-kill radix-k #{i} {mutation:?}"),
            caught,
            "not caught".into(),
        );
    }

    println!("verify_schedules: {checks} checks, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
