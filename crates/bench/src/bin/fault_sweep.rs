//! Fault-injection sweep over the fault-tolerant pipeline.
//!
//! Exercises `pvr_core::drive_frame` with `Driver::faults` against seeded
//! [`FaultPlan`]s on a laptop-scale frame (8 ranks, 16³ grid) and
//! checks the recovery contract end to end:
//!
//! * **Transient faults heal exactly** — dropped message attempts
//!   within the retry budget, stragglers within the stage deadline, and
//!   down servers covered by stripe replicas all produce a frame
//!   bit-identical to the fault-free run with completeness exactly 1.0.
//! * **Permanent faults degrade, never hang** — a crashed rank or an
//!   unreplicated down server terminates within its deadlines with
//!   completeness < 1.0 and the loss attributed to specific tiles.
//! * **Everything replays** — re-running the same `(seed, FaultPlan)`
//!   reproduces the image and the completeness map exactly.
//!
//! It runs the assertion suite with fixed seeds and exits nonzero on
//! any violated invariant — the `fault-sweep` CI job:
//! `cargo run --release -p pvr-bench --bin fault_sweep`. The drop depth
//! × stragglers × down-server grid is `recovery_sweep`'s, gated there.

use std::path::Path;
use std::time::Instant;

use pvr_bench::{
    fault_frame as run, gate, p95_wall_ms, sweep_cfg, sweep_dataset, transient_plan, FaultFrame,
};
use pvr_core::pipeline::run_frame_mpi;
use pvr_core::{CompositorPolicy, FrameConfig, FrameError};
use pvr_faults::{
    FaultPlan, RankAction, RankFault, RecoveryPolicy, ServerAction, ServerFault, Stage,
};
use pvr_obs::bench::Trajectory;
use pvr_obs::FlightRecorder;

/// Per-scenario outcome feeding `results/BENCH_faults.json`.
struct Outcome {
    case: &'static str,
    /// Did the frame end fully complete (healed or never hurt)?
    healed: bool,
    /// Was a full heal expected (i.e. does `healed == false` mean a
    /// deliberate degradation scenario rather than a failure)?
    heal_expected: bool,
    recovery_bytes: u64,
    wall_ms: f64,
}

/// Build the `BENCH_faults.json` trajectory: healed-frame fraction
/// over heal-expected scenarios and total recovery traffic are exact
/// gates (the schedules are seeded and deterministic). It records no
/// wall clock, so a rerun rewrites it byte for byte; the frame walls
/// are printed instead ([`print_walls`]).
fn bench_faults_trajectory(outcomes: &[Outcome]) -> Trajectory {
    let expected: Vec<&Outcome> = outcomes.iter().filter(|o| o.heal_expected).collect();
    let healed = expected.iter().filter(|o| o.healed).count();
    let fraction = if expected.is_empty() {
        1.0
    } else {
        healed as f64 / expected.len() as f64
    };
    let bytes: u64 = outcomes.iter().map(|o| o.recovery_bytes).sum();
    let mut t = Trajectory::new("faults");
    t.exact("frames", outcomes.len() as f64)
        .exact("heal_expected_frames", expected.len() as f64)
        .exact("healed_frames", healed as f64)
        .exact("healed_fraction", fraction)
        // Recovery traffic is seeded but the hedging path is timer
        // driven, so the byte total gets a band rather than exactness.
        .rel("recovery_bytes_total", bytes as f64, 0.5)
        .table(
            "cases",
            &["case", "healed", "heal_expected", "recovery_bytes"],
            outcomes
                .iter()
                .map(|o| {
                    vec![
                        o.case.to_string(),
                        (o.healed as u8).to_string(),
                        (o.heal_expected as u8).to_string(),
                        o.recovery_bytes.to_string(),
                    ]
                })
                .collect(),
        );
    t
}

/// Print each scenario's frame wall and their p95 (not recorded in
/// the trajectory: a wall clock differs on every run).
fn print_walls(outcomes: &[Outcome]) {
    println!("# frame walls");
    for o in outcomes {
        println!("{:<16} {:>9.2} ms", o.case, o.wall_ms);
    }
    let p95 = p95_wall_ms(outcomes.iter().map(|o| o.wall_ms));
    println!("{:<16} {p95:>9.2} ms", "p95");
}

/// Record one scenario's recovery outcome into the CI metrics registry.
fn record(reg: &pvr_obs::Registry, case: &str, ft: &FaultFrame) {
    let label = format!("case={case}");
    let rec = ft.frame.timing.recovery;
    reg.gauge_set(
        "completeness_milli",
        &label,
        (ft.completeness.frame_fraction() * 1000.0).round() as i64,
    );
    reg.gauge_set("retries", &label, (rec.retries + rec.io_retries) as i64);
    reg.gauge_set("timeouts", &label, rec.timeouts as i64);
    reg.gauge_set("crashed_ranks", &label, rec.crashed_ranks as i64);
    reg.gauge_set("failover_bytes", &label, ft.frame.io.failover_bytes as i64);
    reg.gauge_set(
        "unrecovered_bytes",
        &label,
        ft.frame.io.unrecovered_bytes as i64,
    );
}

/// Run one plan under a wall-clock timer, recording into `flight`.
fn timed(
    cfg: &FrameConfig,
    path: &Path,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    flight: &FlightRecorder,
) -> (Result<FaultFrame, FrameError>, f64) {
    let t0 = Instant::now();
    let out = run(cfg, path, plan, policy, flight);
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn outcome_of(case: &'static str, heal_expected: bool, ft: &FaultFrame, wall_ms: f64) -> Outcome {
    Outcome {
        case,
        healed: ft.completeness.fully_complete(),
        heal_expected,
        recovery_bytes: ft.frame.timing.recovery.recovery_bytes + ft.frame.io.failover_bytes,
        wall_ms,
    }
}

fn suite(cfg: &FrameConfig, path: &Path, policy: &RecoveryPolicy) -> bool {
    let mut all = true;
    let reg = pvr_obs::Registry::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    // One always-on ring across the whole suite: the anomalous
    // scenarios (crash, straggler violation) dump it, and the dumps
    // land under results/ as replayable Perfetto artifacts for the CI
    // upload. The ring keeps logical ticks, not wall time, so a rerun
    // rewrites the dumps byte for byte.
    let flight = FlightRecorder::manual(512);
    let baseline = run_frame_mpi(cfg, path);

    // 1. Transient faults: bit-identical frame, exact completeness 1.0.
    let plan = transient_plan(5, 2, 1, 0);
    match timed(cfg, path, &plan, policy, &flight) {
        (Ok(ft), wall) => {
            record(&reg, "transient", &ft);
            outcomes.push(outcome_of("transient", true, &ft, wall));
            let rec = ft.frame.timing.recovery;
            all &= gate(
                "transient-bit-identical",
                baseline.image.pixels() == ft.frame.image.pixels()
                    && ft.completeness.frame_fraction() == 1.0
                    && rec.retries > 0
                    && rec.timeouts == 0,
                format!(
                    "completeness {:.4}, {} retries, {} timeouts",
                    ft.completeness.frame_fraction(),
                    rec.retries,
                    rec.timeouts
                ),
            );
        }
        (Err(e), _) => all &= gate("transient-bit-identical", false, e.to_string()),
    }

    // 2. Replica failover hides an entire down server.
    let plan = FaultPlan {
        seed: 3,
        servers: vec![ServerFault {
            server: 0,
            action: ServerAction::Down,
        }],
        ..FaultPlan::default()
    };
    match timed(cfg, path, &plan, policy, &flight) {
        (Ok(ft), wall) => {
            record(&reg, "failover", &ft);
            outcomes.push(outcome_of("failover", true, &ft, wall));
            all &= gate(
                "failover-hides-down-server",
                baseline.image.pixels() == ft.frame.image.pixels()
                    && ft.completeness.frame_fraction() == 1.0
                    && ft.frame.io.failover_bytes > 0
                    && ft.frame.io.unrecovered_bytes == 0,
                format!(
                    "completeness {:.4}, {} failover bytes",
                    ft.completeness.frame_fraction(),
                    ft.frame.io.failover_bytes
                ),
            );
        }
        (Err(e), _) => all &= gate("failover-hides-down-server", false, e.to_string()),
    }

    // 3. Permanent loss (failover disabled) terminates with
    //    completeness < 1.0 — and reproduces exactly on a second run.
    let mut no_failover = *policy;
    no_failover.io_failover = false;
    let (first, wall1) = timed(cfg, path, &plan, &no_failover, &flight);
    let second = run(cfg, path, &plan, &no_failover, &flight);
    match (first, second) {
        (Ok(a), Ok(b)) => {
            record(&reg, "permanent", &a);
            outcomes.push(outcome_of("permanent-loss", false, &a, wall1));
            let fa = a.completeness.frame_fraction();
            all &= gate(
                "permanent-loss-degrades",
                fa < 1.0 && a.frame.io.unrecovered_bytes > 0,
                format!(
                    "completeness {fa:.4}, {} unrecovered bytes",
                    a.frame.io.unrecovered_bytes
                ),
            );
            all &= gate(
                "permanent-loss-reproduces",
                a.frame.image.pixels() == b.frame.image.pixels()
                    && fa == b.completeness.frame_fraction(),
                format!(
                    "run1 {fa:.6} vs run2 {:.6}",
                    b.completeness.frame_fraction()
                ),
            );
        }
        (a, b) => {
            let msg = format!(
                "{:?} / {:?}",
                a.err().map(|e| e.to_string()),
                b.err().map(|e| e.to_string())
            );
            all &= gate("permanent-loss-degrades", false, msg);
        }
    }

    // 4. A crashed renderer heals: survivors adopt the orphan block and
    //    the frame comes out bit-identical to the fault-free run.
    let plan = FaultPlan {
        seed: 9,
        ranks: vec![RankFault {
            rank: 5,
            stage: Stage::Composite,
            action: RankAction::Crash,
        }],
        ..FaultPlan::default()
    };
    match timed(cfg, path, &plan, policy, &flight) {
        (Ok(ft), wall) => {
            record(&reg, "crash", &ft);
            outcomes.push(outcome_of("crash-heal", true, &ft, wall));
            let rec = ft.frame.timing.recovery;
            all &= gate(
                "crash-heals-bit-identically",
                baseline.image.pixels() == ft.frame.image.pixels()
                    && ft.completeness.fully_complete()
                    && rec.crashed_ranks == 1
                    && rec.adopted_blocks >= 1
                    && rec.recovery_bytes > 0,
                format!(
                    "completeness {:.4}, {} adopted blocks, {} recovery bytes",
                    ft.completeness.frame_fraction(),
                    rec.adopted_blocks,
                    rec.recovery_bytes
                ),
            );
        }
        (Err(e), _) => all &= gate("crash-heals-bit-identically", false, e.to_string()),
    }

    // 4b. A straggler is hedged: the frame is bit-identical and does
    //     not wait out the straggle.
    let plan = FaultPlan {
        seed: 4,
        ranks: vec![RankFault {
            rank: 3,
            stage: Stage::Composite,
            action: RankAction::StraggleMs(1200),
        }],
        ..FaultPlan::default()
    };
    match timed(cfg, path, &plan, policy, &flight) {
        (Ok(ft), wall) => {
            record(&reg, "straggler", &ft);
            outcomes.push(outcome_of("straggler-hedge", true, &ft, wall));
            let rec = ft.frame.timing.recovery;
            all &= gate(
                "straggler-hedged",
                baseline.image.pixels() == ft.frame.image.pixels()
                    && ft.completeness.fully_complete()
                    && rec.hedged_renders >= 1
                    && ft.frame.timing.wall < 1.2,
                format!(
                    "completeness {:.4}, {} hedges, wall {:.3}s",
                    ft.completeness.frame_fraction(),
                    rec.hedged_renders,
                    ft.frame.timing.wall
                ),
            );
        }
        (Err(e), _) => all &= gate("straggler-hedged", false, e.to_string()),
    }

    // 5. Plans replay through their JSON serialization unchanged.
    let plan = transient_plan(21, 1, 1, 0);
    let round = FaultPlan::from_json(&plan.to_json());
    all &= gate(
        "plan-json-roundtrip",
        round.as_ref() == Ok(&plan),
        format!("{} bytes of JSON", plan.to_json().len()),
    );

    // 6. The same healing guarantees at paper scale: the discrete-event
    //    core makes an n = 1024 rank a task, not an OS thread (the old
    //    executor topped out near 256), so the CI suite now proves the
    //    recovery protocols at four times that — transient retries and
    //    crash adoption, each bit-identical to a 1024-rank baseline.
    let mut scale_cfg = *cfg;
    scale_cfg.nprocs = 1024;
    // The 24×24 CI image has 576 pixels, so the improved policy's
    // m(1024) would out-count the tiles; a fixed 256 keeps the
    // paper-shaped 4:1 renderer:compositor reduction instead.
    scale_cfg.policy = CompositorPolicy::Fixed(256);
    let scale_baseline = run_frame_mpi(&scale_cfg, path);
    let plan = transient_plan(5, 2, 1, 0);
    match timed(&scale_cfg, path, &plan, policy, &flight) {
        (Ok(ft), wall) => {
            record(&reg, "transient-1024", &ft);
            outcomes.push(outcome_of("transient-1024", true, &ft, wall));
            let rec = ft.frame.timing.recovery;
            all &= gate(
                "transient-heals-at-n1024",
                scale_baseline.image.pixels() == ft.frame.image.pixels()
                    && ft.completeness.frame_fraction() == 1.0
                    && rec.retries > 0,
                format!(
                    "completeness {:.4}, {} retries",
                    ft.completeness.frame_fraction(),
                    rec.retries
                ),
            );
        }
        (Err(e), _) => all &= gate("transient-heals-at-n1024", false, e.to_string()),
    }
    let plan = FaultPlan {
        seed: 9,
        ranks: vec![RankFault {
            rank: 5,
            stage: Stage::Composite,
            action: RankAction::Crash,
        }],
        ..FaultPlan::default()
    };
    match timed(&scale_cfg, path, &plan, policy, &flight) {
        (Ok(ft), wall) => {
            record(&reg, "crash-1024", &ft);
            outcomes.push(outcome_of("crash-heal-1024", true, &ft, wall));
            let rec = ft.frame.timing.recovery;
            all &= gate(
                "crash-heals-at-n1024",
                scale_baseline.image.pixels() == ft.frame.image.pixels()
                    && ft.completeness.fully_complete()
                    && rec.crashed_ranks == 1
                    && rec.adopted_blocks >= 1,
                format!(
                    "completeness {:.4}, {} adopted blocks",
                    ft.completeness.frame_fraction(),
                    rec.adopted_blocks
                ),
            );
        }
        (Err(e), _) => all &= gate("crash-heals-at-n1024", false, e.to_string()),
    }

    // Metrics snapshot of every scenario, teed to results/ for the CI
    // artifact upload.
    let snap = reg.snapshot();
    println!("# metrics snapshot");
    print!("{}", snap.to_text());
    pvr_bench::emit_csv("fault_sweep_metrics", &snap.to_csv());

    // Every anomaly the suite provoked, as a replayable trace (open in
    // ui.perfetto.dev or any trace-event viewer).
    let dumps = flight.take_dumps();
    for (i, d) in dumps.iter().enumerate() {
        pvr_bench::write_artifact(
            &format!("flight_dump_{}_{i}.json", d.reason),
            d.json.as_bytes(),
        );
    }
    all &= gate(
        "anomalous-scenarios-dumped-the-flight-ring",
        !dumps.is_empty(),
        format!("{} anomaly dump(s)", dumps.len()),
    );

    print_walls(&outcomes);
    // Recovery summary: every heal-expected scenario must actually
    // have healed — the zero-unhealed-transient gate.
    pvr_bench::write_trajectory(&bench_faults_trajectory(&outcomes));
    let unhealed = outcomes
        .iter()
        .filter(|o| o.heal_expected && !o.healed)
        .count();
    all &= gate(
        "zero-unhealed-expected",
        unhealed == 0,
        format!("{unhealed} heal-expected scenario(s) left unhealed"),
    );

    all
}

fn main() {
    let cfg = sweep_cfg();
    let path = sweep_dataset(&cfg, "fault-sweep");
    let t0 = Instant::now();
    let ok = suite(&cfg, &path, &RecoveryPolicy::fast_test());
    println!(
        "fault-sweep CI suite: {} in {:.1}s",
        if ok { "all checks passed" } else { "FAILURES" },
        t0.elapsed().as_secs_f64()
    );
    std::fs::remove_file(&path).ok();
    if !ok {
        std::process::exit(1);
    }
}
