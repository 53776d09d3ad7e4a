//! # pvr-verify — the schedule linter
//!
//! The compositing stack ships pixels through hand-built message
//! schedules (direct-send with limited compositors, binary swap,
//! radix-k). A dropped overlap message blanks a tile and a duplicated
//! one double-blends; [`lint`] checks a schedule statically for those
//! faults: conservation (the image partition tiles exactly; every
//! renderer-footprint ∩ compositor-span overlap appears exactly once,
//! exactly sized), bounded per-compositor fan-in (the paper's
//! `O(n^{1/3})` direct-send scaling, generalized to `m ≤ n`), radix-k
//! round structure, and stage-tag discipline. [`lint::Mutation`]
//! injects faults to prove each rule fires.
//!
//! Wildcard-match orders are checked elsewhere: exhaustively at small n
//! by `pvr-mc`'s DPOR explorer, and on real frames by
//! `tests/verify_tooling.rs` under perturbed and swapped-replay
//! policies.
//!
//! The `verify_schedules` binary (in `pvr-bench`) sweeps the linter
//! over paper-scale (n, m) configurations with real raycast footprints;
//! the unit tests here sweep synthetic lattices.

pub mod lint;

pub use lint::{
    lint_direct_send, lint_direct_send_with_faults, lint_radix_k, lint_tags, LintOptions,
    LintReport, Mutation, Rule, Violation,
};

use pvr_render::image::PixelRect;

/// Compositor counts worth linting for a given renderer count: the
/// degenerate ends, the paper's limited-compositor points, and the
/// policy value. Exhaustive `1..=n` for small n.
pub fn m_samples(n: usize) -> Vec<usize> {
    let mut ms: Vec<usize> = if n <= 16 {
        (1..=n).collect()
    } else {
        vec![
            1,
            2,
            3,
            n / 4,
            n / 2,
            n,
            pvr_compositing::improved_compositor_count(n),
        ]
    };
    ms.retain(|&m| (1..=n).contains(&m));
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Synthetic renderer footprints for `n` ranks over a `w x h` image:
/// `layers` depth layers (≈ n^{1/3}) of a `gx x gy` screen lattice, the
/// shape a b³ block decomposition projects to. Ranks beyond
/// `layers*gx*gy` wrap onto the lattice again, so any `n` is valid.
/// Each footprint is padded by one pixel per side (clamped to the
/// image) so footprints straddle tile boundaries like real oblique
/// projections do.
pub fn synthetic_footprints(n: usize, w: usize, h: usize) -> Vec<PixelRect> {
    assert!(n >= 1 && w >= 4 && h >= 4);
    let layers = (n as f64).cbrt().round().max(1.0) as usize;
    let per_layer = n.div_ceil(layers);
    let gx = (per_layer as f64).sqrt().ceil().max(1.0) as usize;
    let rows = per_layer.div_ceil(gx);
    (0..n)
        .map(|i| {
            let cell = i % per_layer;
            let (cy, cx) = (cell / gx, cell % gx);
            // The last row may hold fewer cells; stretch them so every
            // layer tiles the full image.
            let cols = if cy + 1 == rows {
                per_layer - gx * (rows - 1)
            } else {
                gx
            };
            let x0 = (cx * w / cols).saturating_sub(1);
            let x1 = ((cx + 1) * w / cols + 1).min(w);
            let y0 = (cy * h / rows).saturating_sub(1);
            let y1 = ((cy + 1) * h / rows + 1).min(h);
            PixelRect::new(x0, y0, x1 - x0, y1 - y0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_compositing::radixk::{default_radices, radix_k_schedule};
    use pvr_compositing::{build_schedule, ImagePartition};

    const IMAGE: (usize, usize) = (128, 128);
    const N_SWEEP: [usize; 12] = [2, 3, 4, 6, 8, 16, 27, 32, 64, 101, 128, 256];

    fn lint_opts_for(n: usize) -> LintOptions {
        // The synthetic lattice follows the paper's scaling only when n
        // is an exact cube; other n get conservation checks only.
        let cube = (n as f64).cbrt().round() as usize;
        LintOptions {
            check_fanin: cube * cube * cube == n,
            ..LintOptions::default()
        }
    }

    #[test]
    fn direct_send_sweep_is_clean() {
        for n in N_SWEEP {
            let fps = synthetic_footprints(n, IMAGE.0, IMAGE.1);
            for m in m_samples(n) {
                let part = ImagePartition::new(IMAGE.0, IMAGE.1, m);
                let schedule = build_schedule(&fps, part);
                let report = lint_direct_send(&fps, &schedule, &lint_opts_for(n));
                assert!(
                    report.ok(),
                    "n={n} m={m}: {}",
                    report
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
    }

    #[test]
    fn fanin_scaling_holds_on_cubic_lattices() {
        for n in [8usize, 27, 64, 216] {
            let fps = synthetic_footprints(n, 256, 256);
            let part = ImagePartition::new(256, 256, n);
            let schedule = build_schedule(&fps, part);
            let report = lint_direct_send(&fps, &schedule, &LintOptions::default());
            assert!(report.ok(), "n={n}: {:?}", report.violations);
            // And the bound is not vacuous: it is within a small factor
            // of the observed fan-in.
            let expect = lint::expected_fanin(n, n);
            let mean = schedule.messages.len() as f64 / n as f64;
            assert!(
                mean <= 3.0 * expect && expect <= mean.max(1.0) * 8.0,
                "n={n}: mean {mean:.1} vs expected {expect:.1}"
            );
        }
    }

    #[test]
    fn every_direct_send_mutation_is_caught() {
        let n = 27;
        let fps = synthetic_footprints(n, IMAGE.0, IMAGE.1);
        let part = ImagePartition::new(IMAGE.0, IMAGE.1, 9);
        let schedule = build_schedule(&fps, part);
        assert!(lint_direct_send(&fps, &schedule, &LintOptions::default()).ok());
        for (mutation, expected_rule) in [
            (Mutation::Drop(5), Rule::Missing),
            (Mutation::Duplicate(11), Rule::Duplicate),
            (Mutation::Inflate(3, 7), Rule::PixelCount),
        ] {
            let bad = lint::mutate_schedule(&schedule, mutation);
            let report = lint_direct_send(&fps, &bad, &LintOptions::default());
            assert!(
                report.violations.iter().any(|v| v.rule == expected_rule),
                "{mutation:?} not caught as {expected_rule:?}: {:?}",
                report.violations
            );
        }
        // Reroute lands as dangling/duplicate/missing depending on the
        // target tile; it must be caught as *something*.
        for i in 0..8 {
            let bad = lint::mutate_schedule(&schedule, Mutation::Reroute(i * 13, i * 5 + 1));
            if bad.messages == schedule.messages {
                continue; // wrapped onto its own compositor
            }
            let report = lint_direct_send(&fps, &bad, &LintOptions::default());
            assert!(
                !report.ok(),
                "Reroute({}, {}) slipped through",
                i * 13,
                i * 5 + 1
            );
        }
    }

    /// A hole the fault plan explains is excused (tallied in
    /// `injected_missing`), while an unexplained hole still fires
    /// `Rule::Missing`.
    #[test]
    fn fault_aware_lint_excuses_only_injected_holes() {
        let n = 27;
        let fps = synthetic_footprints(n, IMAGE.0, IMAGE.1);
        let part = ImagePartition::new(IMAGE.0, IMAGE.1, 9);
        let schedule = build_schedule(&fps, part);
        let dropped = (
            schedule.messages[5].renderer,
            schedule.messages[5].compositor,
        );
        let bad = lint::mutate_schedule(&schedule, Mutation::Drop(5));

        // Unexcused, the hole is a Missing violation.
        let plain = lint_direct_send(&fps, &bad, &LintOptions::default());
        assert!(plain.violations.iter().any(|v| v.rule == Rule::Missing));
        assert_eq!(plain.injected_missing, 0);

        // Excused by the fault plan, the report is clean and the hole
        // is accounted as injected.
        let excused = lint_direct_send_with_faults(&fps, &bad, &LintOptions::default(), &[dropped]);
        assert!(excused.ok(), "{:?}", excused.violations);
        assert_eq!(excused.injected_missing, 1);

        // Excusing an *intact* link changes nothing: the message is
        // present, so there is no hole to excuse.
        let other = (
            schedule.messages[6].renderer,
            schedule.messages[6].compositor,
        );
        let wrong = lint_direct_send_with_faults(&fps, &bad, &LintOptions::default(), &[other]);
        assert!(wrong.violations.iter().any(|v| v.rule == Rule::Missing));
        assert_eq!(wrong.injected_missing, 0);
    }

    #[test]
    fn radix_k_sweep_is_clean() {
        let pixels = IMAGE.0 * IMAGE.1;
        let opts = LintOptions::default();
        for n in N_SWEEP {
            // Default factorization (binary swap when n is a power of
            // two), plus the pure direct-send factorization [n].
            let mut factorizations = vec![default_radices(n), vec![n]];
            if n == 16 {
                factorizations.push(vec![4, 4]);
                factorizations.push(vec![2, 8]);
            }
            for radices in factorizations {
                if radices.is_empty() || radices.iter().any(|&k| k < 2) {
                    continue; // n == 1 edge or invalid
                }
                let rounds = radix_k_schedule(n, pixels, &radices);
                let report = lint_radix_k(n, pixels, &radices, &rounds, &opts);
                assert!(
                    report.ok(),
                    "n={n} radices {radices:?}: {}",
                    report
                        .violations
                        .iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                );
            }
        }
    }

    #[test]
    fn every_radix_k_mutation_is_caught() {
        let n = 16;
        let pixels = 96 * 96;
        let radices = [2usize, 2, 2, 2]; // binary swap
        let rounds = radix_k_schedule(n, pixels, &radices);
        let opts = LintOptions::default();
        assert!(lint_radix_k(n, pixels, &radices, &rounds, &opts).ok());
        for (mutation, expected_rule) in [
            (Mutation::Drop(9), Rule::Missing),
            (Mutation::Duplicate(17), Rule::Duplicate),
            (Mutation::Inflate(4, 12), Rule::ByteCount),
            (Mutation::Reroute(7, 11), Rule::GroupLocality),
        ] {
            let bad = lint::mutate_rounds(&rounds, n, mutation);
            let report = lint_radix_k(n, pixels, &radices, &bad, &opts);
            assert!(
                report.violations.iter().any(|v| v.rule == expected_rule),
                "{mutation:?} not caught as {expected_rule:?}: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn tag_discipline_catches_collisions() {
        assert!(lint_tags(&[(1, "a"), (2, "b"), (3, "c")]).ok());
        let dup = lint_tags(&[(1, "a"), (1, "b")]);
        assert!(dup.violations.iter().any(|v| v.rule == Rule::TagDiscipline));
        let zero = lint_tags(&[(0, "a")]);
        assert!(zero
            .violations
            .iter()
            .any(|v| v.rule == Rule::TagDiscipline));
    }

    mod sweep_helpers {
        use super::*;

        #[test]
        fn m_samples_are_valid_and_cover_policy() {
            for n in N_SWEEP {
                let ms = m_samples(n);
                assert!(!ms.is_empty());
                assert!(ms.iter().all(|&m| (1..=n).contains(&m)), "n={n}: {ms:?}");
                assert!(ms.contains(&pvr_compositing::improved_compositor_count(n).min(n)));
                if n <= 16 {
                    assert_eq!(ms.len(), n, "small n lints the full 1..=n range");
                }
            }
        }

        #[test]
        fn synthetic_footprints_cover_the_image() {
            for n in N_SWEEP {
                let fps = synthetic_footprints(n, IMAGE.0, IMAGE.1);
                assert_eq!(fps.len(), n);
                // Union covers the image: check the four corners and
                // center are inside some footprint.
                for (x, y) in [(0, 0), (127, 0), (0, 127), (127, 127), (64, 64)] {
                    assert!(
                        fps.iter().any(|f| f.contains(x, y)),
                        "n={n}: pixel ({x},{y}) uncovered"
                    );
                }
            }
        }
    }
}
