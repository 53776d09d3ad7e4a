//! Profile smoke test — the `profile-smoke` CI job.
//!
//! Runs one fixed-seed 8-rank frame through the message-passing
//! executor with tracing on (`run_frame_mpi_profiled`: trace, replay
//! the canonical match order, profile), then validates the whole
//! observability stack end to end:
//!
//! * the exported Perfetto JSON parses and is well-nested per track
//!   (schema validation, not just string checks);
//! * a second profiled run exports **byte-identical** JSON — the
//!   canonical-replay determinism contract;
//! * the critical path threads the happens-before graph and fully
//!   attributes the logical makespan;
//! * the per-stage imbalance factors and the per-link message-volume
//!   matrix are reported and sane.
//!
//! Artifacts land under `results/`: the trace JSON, a plain-text
//! Gantt, and CSVs for the critical path, imbalance, link matrix, and
//! metrics snapshot.

use pvr_bench::{check, emit_csv, sweep_cfg, sweep_dataset, write_artifact};
use pvr_core::{run_frame_mpi_profiled, CompositorPolicy};
use pvr_obs::analysis::imbalance_csv;
use pvr_obs::{critical_path, gantt, imbalance, link_matrix, perfetto, Registry};

fn main() {
    let cfg = sweep_cfg();
    let path = sweep_dataset(&cfg, "profile-smoke");
    let mut all = true;
    let mut chk = |name: &str, ok: bool, detail: &str| {
        all &= ok;
        check(name, ok, detail);
    };

    let p1 = run_frame_mpi_profiled(&cfg, &path).expect("profiled frame");
    let p2 = run_frame_mpi_profiled(&cfg, &path).expect("profiled frame (repeat)");
    std::fs::remove_file(&path).ok();

    // --- Exporter: schema-valid, deterministic bytes. ---
    let json1 = perfetto::to_json(&p1.profile);
    let json2 = perfetto::to_json(&p2.profile);
    match perfetto::validate(&json1) {
        Ok(n) => chk(
            "perfetto JSON is schema-valid and well-nested",
            n > 0,
            &format!("{n} trace events"),
        ),
        Err(e) => chk(
            "perfetto JSON is schema-valid and well-nested",
            false,
            &format!("{e:?}"),
        ),
    }
    chk(
        "profiled run exports byte-identical JSON across runs",
        json1 == json2,
        &format!("{} bytes", json1.len()),
    );
    chk(
        "both runs render identical images",
        p1.frame.image.pixels() == p2.frame.image.pixels(),
        "canonical replay preserves the frame",
    );

    // --- Critical path through the happens-before graph. ---
    let cp = critical_path(&p1.trace);
    chk(
        "critical path attributes the full logical makespan",
        cp.makespan > 0 && cp.per_rank.iter().sum::<u64>() == cp.makespan,
        &format!(
            "makespan {} over {} segments",
            cp.makespan,
            cp.segments.len()
        ),
    );
    chk(
        "critical path segments are contiguous in time",
        cp.segments.windows(2).all(|w| w[0].end == w[1].start),
        &format!("dominant rank {:?}", cp.dominant_rank()),
    );

    // --- Per-stage load imbalance (the paper's Fig. 6 statistic). ---
    let stages = ["io", "render", "composite"];
    let im = imbalance(&p1.profile, &stages);
    chk(
        "all three stages carry spans on every rank",
        im.iter().all(|r| r.mean > 0),
        &format!(
            "mean ticks: io {} render {} composite {}",
            im[0].mean, im[1].mean, im[2].mean
        ),
    );
    chk(
        "imbalance factor >= 1 for every stage (max >= mean)",
        im.iter().all(|r| r.factor_milli >= 1000),
        &format!(
            "factors: io {:.2} render {:.2} composite {:.2}",
            im[0].factor_milli as f64 / 1000.0,
            im[1].factor_milli as f64 / 1000.0,
            im[2].factor_milli as f64 / 1000.0
        ),
    );

    // --- Per-link message volume. ---
    let lm = link_matrix(&p1.trace);
    let m = match cfg.policy {
        CompositorPolicy::Fixed(m) => m,
        _ => unreachable!(),
    };
    chk(
        "rank 0 gathers one tile message per compositor",
        lm.in_degree(0) >= m as u64,
        &format!(
            "in-degree {} at rank 0, {} messages / {} bytes total",
            lm.in_degree(0),
            lm.total_msgs(),
            lm.total_bytes()
        ),
    );
    chk(
        "io windows appear as spans in the profile",
        !p1.profile.span_durations("io.window").is_empty(),
        &format!(
            "{} io.window spans",
            p1.profile.span_durations("io.window").len()
        ),
    );

    // --- Metrics registry snapshot of the run's headline numbers. ---
    let reg = Registry::new();
    reg.gauge_set("makespan", "", cp.makespan as i64);
    reg.counter_add("trace.events", "", p1.trace.events.len() as u64);
    reg.counter_add("link.msgs", "", lm.total_msgs());
    reg.counter_add("link.bytes", "", lm.total_bytes());
    for r in &im {
        reg.gauge_set(
            "imbalance_milli",
            &format!("stage={}", r.name),
            r.factor_milli as i64,
        );
    }

    // --- Artifacts. ---
    write_artifact("profile_smoke.trace.json", json1.as_bytes());
    write_artifact(
        "profile_smoke.gantt.txt",
        gantt::render(&p1.profile, 100).as_bytes(),
    );
    emit_csv("profile_smoke_critical_path", &cp.to_csv());
    emit_csv("profile_smoke_imbalance", &imbalance_csv(&im));
    emit_csv("profile_smoke_links", &lm.to_csv());
    emit_csv("profile_smoke_metrics", &reg.snapshot().to_csv());

    if !all {
        std::process::exit(1);
    }
}
