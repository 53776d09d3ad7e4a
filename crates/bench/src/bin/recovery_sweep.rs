//! Self-healing sweep: the `recovery-sweep` CI gate.
//!
//! Drives the recovery orchestrator (orphan-block adoption, straggler
//! hedging, the deadline degradation ladder) across the full fault
//! space on a laptop-scale frame and gates the healing contract:
//!
//! * **Crash matrix** — a single permanent rank crash at *any* stage
//!   (I/O, render, composite) and *any* non-root rank heals
//!   bit-identically: survivors adopt the orphan block, compositors
//!   accept the late fragments, a dead compositor's tile is rebuilt at
//!   the root. Completeness is exactly 1.0 and `adopted_blocks > 0`.
//! * **Zero unhealed transients** — the drop-depth × straggler × down-
//!   server grid must heal every cell bit-identically (all faults
//!   there are survivable by construction).
//! * **Stragglers are hedged** — a 1.2 s straggle at any stage does not
//!   show up in the frame wall: suspicion fires a speculative duplicate
//!   render and first-wins dedup discards the loser.
//! * **Ladder accounting** — a budget that only fits the coarse rung
//!   keeps the frame complete with `error_bound > 0`; an exhausted
//!   budget degrades with the loss attributed in the completeness map.
//!
//! Writes `results/BENCH_recovery.json` (healed fraction, recovery
//! bytes, p95 frame wall over the crash matrix) for the CI artifact.
//! Exits nonzero on any violated gate.

use std::path::Path;
use std::time::Instant;

use pvr_bench::{fault_frame, gate, p95_wall_ms, sweep_cfg, sweep_dataset, transient_plan};
use pvr_core::pipeline::run_frame_mpi;
use pvr_core::{FrameConfig, FrameShared};
use pvr_faults::{FaultPlan, RankAction, RankFault, RecoveryPolicy, Stage};
use pvr_obs::bench::Trajectory;
use pvr_obs::FlightRecorder;
use pvr_render::image::Image;

fn stage_name(s: Stage) -> &'static str {
    match s {
        Stage::Io => "io",
        Stage::Render => "render",
        Stage::Composite => "composite",
    }
}

struct MatrixCell {
    rank: usize,
    stage: &'static str,
    healed: bool,
    adopted_blocks: u64,
    recovery_bytes: u64,
    wall_ms: f64,
}

/// Every (non-root rank, stage) single-crash cell must heal to a frame
/// bit-identical with the fault-free baseline.
fn crash_matrix(
    cfg: &FrameConfig,
    path: &Path,
    policy: &RecoveryPolicy,
    baseline: &Image,
) -> (bool, Vec<MatrixCell>) {
    let mut ok = true;
    let mut cells = Vec::new();
    println!("# crash matrix: single permanent crash, every rank x stage");
    for stage in [Stage::Io, Stage::Render, Stage::Composite] {
        for rank in 1..cfg.nprocs {
            let plan = FaultPlan {
                seed: 100 + rank as u64,
                ranks: vec![RankFault {
                    rank,
                    stage,
                    action: RankAction::Crash,
                }],
                ..FaultPlan::default()
            };
            let t0 = Instant::now();
            let cell = match fault_frame(cfg, path, &plan, policy, &FlightRecorder::disabled()) {
                Ok(ft) => {
                    let rec = ft.frame.timing.recovery;
                    let healed = baseline.pixels() == ft.frame.image.pixels()
                        && ft.completeness.fully_complete()
                        && rec.adopted_blocks >= 1;
                    MatrixCell {
                        rank,
                        stage: stage_name(stage),
                        healed,
                        adopted_blocks: rec.adopted_blocks,
                        recovery_bytes: rec.recovery_bytes,
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    }
                }
                Err(e) => {
                    println!("  rank {rank} stage {}: RUN FAILED: {e}", stage_name(stage));
                    MatrixCell {
                        rank,
                        stage: stage_name(stage),
                        healed: false,
                        adopted_blocks: 0,
                        recovery_bytes: 0,
                        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                    }
                }
            };
            ok &= cell.healed;
            println!(
                "  rank {} stage {:>9}: {} ({} adopted, {} bytes, {:.0} ms)",
                cell.rank,
                cell.stage,
                if cell.healed { "healed" } else { "UNHEALED" },
                cell.adopted_blocks,
                cell.recovery_bytes,
                cell.wall_ms
            );
            cells.push(cell);
        }
    }
    (ok, cells)
}

/// The drop-depth × straggler × down-server grid, gated: every cell
/// heals.
fn transient_grid(cfg: &FrameConfig, path: &Path, policy: &RecoveryPolicy, base: &Image) -> bool {
    let mut unhealed = 0usize;
    let mut cases = 0usize;
    for depth in [0u32, 1, 2] {
        for stragglers in [0usize, 1, 2] {
            for down in [0usize, 1] {
                let plan = transient_plan(11, depth, stragglers, down);
                cases += 1;
                match fault_frame(cfg, path, &plan, policy, &FlightRecorder::disabled()) {
                    Ok(ft)
                        if base.pixels() == ft.frame.image.pixels()
                            && ft.completeness.fully_complete() => {}
                    _ => unhealed += 1,
                }
            }
        }
    }
    gate(
        "zero-unhealed-transients",
        unhealed == 0,
        format!("{unhealed}/{cases} transient cells left unhealed"),
    )
}

/// A 1.2 s straggle at each stage is hedged: bit-identical frame, wall
/// bounded well below the straggle.
fn straggle_bounded(cfg: &FrameConfig, path: &Path, policy: &RecoveryPolicy, base: &Image) -> bool {
    let mut ok = true;
    for stage in [Stage::Render, Stage::Composite] {
        let plan = FaultPlan {
            seed: 4,
            ranks: vec![RankFault {
                rank: 3,
                stage,
                action: RankAction::StraggleMs(1200),
            }],
            ..FaultPlan::default()
        };
        match fault_frame(cfg, path, &plan, policy, &FlightRecorder::disabled()) {
            Ok(ft) => {
                let rec = ft.frame.timing.recovery;
                ok &= gate(
                    &format!("straggle-bounded-{}", stage_name(stage)),
                    base.pixels() == ft.frame.image.pixels()
                        && ft.completeness.fully_complete()
                        && rec.hedged_renders >= 1
                        && ft.frame.timing.wall < 1.2,
                    format!(
                        "{} hedges, wall {:.3}s < 1.2s straggle",
                        rec.hedged_renders, ft.frame.timing.wall
                    ),
                );
            }
            Err(e) => {
                ok &= gate(
                    &format!("straggle-bounded-{}", stage_name(stage)),
                    false,
                    e.to_string(),
                )
            }
        }
    }
    ok
}

/// The degradation ladder's accounting: coarse heals stay complete and
/// carry an error bound; exhausted budgets degrade explicitly.
fn ladder_accounting(cfg: &FrameConfig, path: &Path, policy: &RecoveryPolicy) -> bool {
    let mut ok = true;
    let est = FrameShared::new(cfg).heal_costs()[5];
    let plan = FaultPlan {
        seed: 9,
        ranks: vec![RankFault {
            rank: 5,
            stage: Stage::Composite,
            action: RankAction::Crash,
        }],
        ..FaultPlan::default()
    };

    let mut coarse = *policy;
    coarse.frame_budget = Some(est * 0.5);
    match fault_frame(cfg, path, &plan, &coarse, &FlightRecorder::disabled()) {
        Ok(ft) => {
            let rec = ft.frame.timing.recovery;
            ok &= gate(
                "ladder-coarse-heals-with-error-bound",
                ft.completeness.fully_complete()
                    && rec.approx_blocks >= 1
                    && ft.frame.timing.error_bound > 0.0,
                format!(
                    "{} approx blocks, error bound {:.4}",
                    rec.approx_blocks, ft.frame.timing.error_bound
                ),
            );
        }
        Err(e) => ok &= gate("ladder-coarse-heals-with-error-bound", false, e.to_string()),
    }

    let mut exhausted = *policy;
    exhausted.frame_budget = Some(est * 0.1);
    match fault_frame(cfg, path, &plan, &exhausted, &FlightRecorder::disabled()) {
        Ok(ft) => {
            ok &= gate(
                "ladder-exhausted-degrades-explicitly",
                !ft.completeness.fully_complete()
                    && ft.frame.timing.recovery.approx_blocks == 0
                    && ft.frame.timing.error_bound == 0.0,
                format!("completeness {:.4}", ft.completeness.frame_fraction()),
            );
        }
        Err(e) => ok &= gate("ladder-exhausted-degrades-explicitly", false, e.to_string()),
    }
    ok
}

/// The `BENCH_recovery.json` trajectory over the crash matrix: cell
/// and heal counts are exact (every cell must heal, deterministically),
/// recovery traffic rides a band (adoption is suspicion-timer driven),
/// and the p95 frame wall is info-only.
fn recovery_trajectory(cells: &[MatrixCell]) -> Trajectory {
    let healed = cells.iter().filter(|c| c.healed).count();
    let bytes: u64 = cells.iter().map(|c| c.recovery_bytes).sum();
    let p95 = p95_wall_ms(cells.iter().map(|c| c.wall_ms));
    let mut t = Trajectory::new("recovery");
    t.exact("crash_cells", cells.len() as f64)
        .exact("healed_cells", healed as f64)
        .exact(
            "healed_fraction",
            if cells.is_empty() {
                1.0
            } else {
                healed as f64 / cells.len() as f64
            },
        )
        .rel("recovery_bytes_total", bytes as f64, 0.5)
        .info("p95_frame_wall_ms", p95)
        .table(
            "cells",
            &[
                "rank",
                "stage",
                "healed",
                "adopted_blocks",
                "recovery_bytes",
                "wall_ms",
            ],
            cells
                .iter()
                .map(|c| {
                    vec![
                        c.rank.to_string(),
                        c.stage.to_string(),
                        (c.healed as u8).to_string(),
                        c.adopted_blocks.to_string(),
                        c.recovery_bytes.to_string(),
                        format!("{:.2}", c.wall_ms),
                    ]
                })
                .collect(),
        );
    t
}

fn main() {
    let t0 = Instant::now();
    let cfg = sweep_cfg();
    let path = sweep_dataset(&cfg, "recovery-sweep");
    let policy = RecoveryPolicy::fast_test();
    let baseline = run_frame_mpi(&cfg, &path);

    let (matrix_ok, cells) = crash_matrix(&cfg, &path, &policy, &baseline.image);
    let mut all = gate(
        "crash-matrix-heals",
        matrix_ok,
        format!(
            "{}/{} cells healed bit-identically",
            cells.iter().filter(|c| c.healed).count(),
            cells.len()
        ),
    );
    all &= transient_grid(&cfg, &path, &policy, &baseline.image);
    all &= straggle_bounded(&cfg, &path, &policy, &baseline.image);
    all &= ladder_accounting(&cfg, &path, &policy);

    pvr_bench::write_trajectory(&recovery_trajectory(&cells));
    println!(
        "recovery-sweep: {} in {:.1}s",
        if all { "all gates passed" } else { "FAILURES" },
        t0.elapsed().as_secs_f64()
    );

    std::fs::remove_file(&path).ok();
    if !all {
        std::process::exit(1);
    }
}
