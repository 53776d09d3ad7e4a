//! Frame SLO budgets and the executor-side glue around
//! [`pvr_obs::slo`].
//!
//! The pure verdict machinery (measured vs budget, incident
//! precedence, attribution) lives in `pvr-obs`; this module supplies
//! everything that needs the pipeline's own types:
//!
//! * [`stage_budgets`] derives per-stage budgets from the same
//!   calibrated perf-model predictions that already size the recovery
//!   deadlines ([`crate::recovery::effective_policy`]): the modeled
//!   I/O, render, and composite seconds (the composite term prices the
//!   frame's own schedule, handed in) times a headroom factor, with
//!   a floor so laptop-scale frames are judged against sane
//!   sub-second budgets, and a [`FrameConfig::stage_deadline_ms`]
//!   override winning outright.
//! * [`incidents_from_plan`] / [`counter_incidents`] convert fault
//!   plans and recovery counters into located [`Incident`]s, so a
//!   crash or hedged straggler attributes to its injection site even
//!   when recovery kept the wall clock fast.
//! * [`record_frame_flight`] mirrors the verdict and incidents onto
//!   the always-on [`FlightRecorder`] and fires the anomaly dump on a
//!   violation, fault, or degradation-ladder activation. Only
//!   deterministic values (ranks, stages, counts — never wall
//!   seconds) ride the flight args, so manual-clock dumps are
//!   byte-stable for golden tests.

use std::time::Duration;

use pvr_compositing::Schedule;
use pvr_faults::{FaultPlan, RankAction, RecoveryCounters, Stage};
use pvr_obs::flight::FlightRecorder;
use pvr_obs::slo::SloInput;
pub use pvr_obs::slo::{
    evaluate, Cause, FrameSlo, Incident, IncidentKind, SloReport, Verdict, STAGE_NAMES,
};
use pvr_obs::Args;

use crate::config::FrameConfig;
use crate::perfmodel::PerfModel;

/// Nominal staging bandwidth for the I/O budget term (bytes/s) — the
/// same scale constant the recovery deadline derivation uses.
const NOMINAL_IO_BW: f64 = 1.0e9;

/// How budgets are derived from the perf model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Multiplier between a predicted stage time and the budget that
    /// declares it violated (matches the recovery deadline headroom).
    pub headroom: f64,
    /// Per-stage budget floor in seconds, plan order. Laptop-scale
    /// frames predict microsecond stages; judging them against a
    /// floor keeps scheduler noise from reading as violations.
    pub floor: [f64; 3],
    /// Fraction of a budget past which a stage is
    /// [`Verdict::AtRisk`].
    pub at_risk_frac: f64,
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy {
            headroom: 3.0,
            floor: [0.25; 3],
            at_risk_frac: 0.8,
        }
    }
}

/// Per-stage budgets in seconds, plan order. Derived from the
/// calibrated perf model exactly like the recovery deadlines: modeled
/// stage seconds × headroom, floored per stage; a
/// [`FrameConfig::stage_deadline_ms`] override wins outright.
/// `schedule` is the frame's direct-send schedule
/// ([`crate::scheduler::FrameShared::schedule`]).
pub fn stage_budgets(cfg: &FrameConfig, schedule: &Schedule, policy: &SloPolicy) -> [f64; 3] {
    if let Some(ms) = cfg.stage_deadline_ms {
        return [ms as f64 / 1e3; 3];
    }
    let model = PerfModel::default();
    let io_est = cfg.variable_bytes() as f64 / NOMINAL_IO_BW;
    let (render_est, _) = model.simulate_render(cfg);
    let comp_est = model.simulate_composite(cfg, schedule).seconds;
    let mut budgets = [io_est, render_est, comp_est];
    for (b, floor) in budgets.iter_mut().zip(policy.floor) {
        *b = (*b * policy.headroom).max(floor);
    }
    budgets
}

/// One frame's measurements, as an executor hands them over.
#[derive(Debug, Clone, Copy)]
pub struct FrameSample<'a> {
    /// Frame-level stage seconds (the root rank's stopwatch).
    pub stage_secs: [f64; 3],
    /// Per-rank per-stage seconds; empty when the executor has no
    /// per-rank decomposition (the plain rayon path).
    pub per_rank: &'a [[f64; 3]],
    pub incidents: &'a [Incident],
}

/// Evaluate one frame against its derived budgets.
pub fn evaluate_frame(
    cfg: &FrameConfig,
    schedule: &Schedule,
    policy: &SloPolicy,
    sample: &FrameSample,
) -> SloReport {
    evaluate(&SloInput {
        budgets: stage_budgets(cfg, schedule, policy),
        at_risk_frac: policy.at_risk_frac,
        stage_secs: sample.stage_secs,
        per_rank: sample.per_rank,
        incidents: sample.incidents,
    })
}

/// [`evaluate_frame`] under the default policy, reduced to the compact
/// summary the executors embed in [`crate::timing::FrameTiming`].
pub fn annotate(cfg: &FrameConfig, schedule: &Schedule, sample: &FrameSample) -> FrameSlo {
    evaluate_frame(cfg, schedule, &SloPolicy::default(), sample).summary()
}

/// Fill the attributed rank from a message trace's happens-before
/// critical path when time/incident evidence could not name one.
pub fn refine_summary_with_trace(slo: &mut FrameSlo, trace: &pvr_mpisim::trace::TraceLog) {
    if slo.verdict != Verdict::Ok && slo.rank.is_none() {
        slo.rank = pvr_obs::critical_path(trace)
            .dominant_rank()
            .map(|(r, _)| r);
    }
}

/// Located incidents from an injected fault plan: every planned crash,
/// and every planned straggle long enough to trip the suspicion
/// window. Sub-suspicion straggles are left to the per-rank stage
/// times (on the message-passing executor the sleep is real and shows
/// up there).
pub fn incidents_from_plan(n: usize, plan: &FaultPlan, suspicion: Duration) -> Vec<Incident> {
    let mut out = Vec::new();
    for rank in 0..n {
        for stage in [Stage::Io, Stage::Render, Stage::Composite] {
            match plan.rank_fault(rank, stage) {
                Some(RankAction::Crash) => out.push(Incident {
                    rank,
                    stage: stage.index(),
                    kind: IncidentKind::Crash,
                }),
                Some(RankAction::StraggleMs(ms))
                    if Duration::from_millis(ms) >= suspicion && !suspicion.is_zero() =>
                {
                    out.push(Incident {
                        rank,
                        stage: stage.index(),
                        kind: IncidentKind::Straggler,
                    })
                }
                _ => {}
            }
        }
    }
    out
}

/// Located incidents from one rank's recovery counters: a coarse-rung
/// heal is a degradation-ladder activation at the render stage, a
/// replica read is a survivable I/O failover.
pub fn counter_incidents(rank: usize, c: &RecoveryCounters, out: &mut Vec<Incident>) {
    if c.approx_blocks > 0 {
        out.push(Incident {
            rank,
            stage: 1,
            kind: IncidentKind::DegradedLadder,
        });
    }
    if c.io_failovers > 0 {
        out.push(Incident {
            rank,
            stage: 0,
            kind: IncidentKind::IoFailover,
        });
    }
}

/// Flight-ring event name for an incident kind (the `<subsystem>.<event>`
/// naming convention — see `pvr-obs`'s crate docs).
pub fn flight_fault_name(kind: IncidentKind) -> &'static str {
    match kind {
        IncidentKind::Crash => "rank.crash",
        IncidentKind::Straggler => "rank.straggle",
        IncidentKind::DegradedLadder => "heal.ladder",
        IncidentKind::IoFailover => "io.failover",
    }
}

/// Why a frame's flight ring should be dumped, if at all: a crash or
/// ladder activation dumps under its own name, any other violation
/// dumps as an SLO violation. `None` for healthy and merely at-risk
/// frames.
pub fn anomaly_reason(slo: &FrameSlo, incidents: &[Incident]) -> Option<&'static str> {
    if incidents.iter().any(|i| i.kind == IncidentKind::Crash) {
        Some("rank-crash")
    } else if incidents
        .iter()
        .any(|i| i.kind == IncidentKind::DegradedLadder)
    {
        Some("degradation-ladder")
    } else if slo.verdict == Verdict::Violated {
        Some("slo-violation")
    } else {
        None
    }
}

/// Mirror one frame's verdict onto the flight recorder: incident fault
/// events on the responsible rank's track, non-zero recovery counters
/// as metrics, the verdict instant, and — on a violation, crash, or
/// ladder activation — the anomaly dump itself. Every recorded arg is
/// deterministic (ranks, stages, counts; never wall seconds), so a
/// manual-clock recorder produces byte-identical dumps across runs.
pub fn record_frame_flight(
    flight: &FlightRecorder,
    slo: &FrameSlo,
    incidents: &[Incident],
    rec: &RecoveryCounters,
) {
    if !flight.enabled() {
        return;
    }
    for inc in incidents {
        flight.fault(
            inc.rank as u32,
            flight_fault_name(inc.kind),
            Args::two("rank", inc.rank as u64, "stage", inc.stage as u64),
        );
    }
    for (name, v) in [
        ("recovery.crashed_ranks", rec.crashed_ranks),
        ("recovery.adopted_blocks", rec.adopted_blocks),
        ("recovery.approx_blocks", rec.approx_blocks),
        ("recovery.hedged_renders", rec.hedged_renders),
        ("recovery.bytes", rec.recovery_bytes),
        ("recovery.io_failovers", rec.io_failovers),
    ] {
        if v > 0 {
            flight.metric(0, name, v);
        }
    }
    let code = match slo.verdict {
        Verdict::Ok => 0,
        Verdict::AtRisk => 1,
        Verdict::Violated => 2,
    };
    let args = match (slo.stage, slo.rank) {
        (Some(s), Some(r)) => Args::three("verdict", code, "stage", s as u64, "rank", r as u64),
        (Some(s), None) => Args::two("verdict", code, "stage", s as u64),
        _ => Args::one("verdict", code),
    };
    flight.instant(0, "frame.slo", args);
    if let Some(reason) = anomaly_reason(slo, incidents) {
        flight.anomaly(reason, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FrameShared;

    fn budgets(cfg: &FrameConfig) -> [f64; 3] {
        let shared = FrameShared::new(cfg);
        stage_budgets(cfg, shared.schedule(), &SloPolicy::default())
    }

    #[test]
    fn budgets_scale_with_frame_and_respect_floors() {
        // A tiny test frame predicts microsecond stages: every budget
        // sits at its floor.
        let cfg = FrameConfig::small(16, 24, 8);
        assert_eq!(budgets(&cfg), [0.25; 3]);

        // The paper-scale frame predicts long stages: budgets grow
        // with the prediction, with headroom applied.
        let b = budgets(&FrameConfig::paper_1120(4096));
        assert!(b[0] > 1.0, "io budget {}", b[0]);
        assert!(b[1] > 0.25, "render budget {}", b[1]);

        // The config deadline override wins outright.
        let mut cfg = FrameConfig::small(16, 24, 8);
        cfg.stage_deadline_ms = Some(2000);
        assert_eq!(budgets(&cfg), [2.0; 3]);
    }

    /// The `sim-2048` frame's budgets, pinned to the bit: pricing the
    /// schedule the frame already holds must give what re-deriving it
    /// per call gave.
    #[test]
    fn budgets_from_the_shared_schedule_are_pinned() {
        let mut cfg = FrameConfig::small(64, 128, 2048);
        cfg.policy = crate::config::CompositorPolicy::Improved;
        let policy = SloPolicy {
            floor: [0.0; 3],
            ..SloPolicy::default()
        };
        let b = stage_budgets(&cfg, FrameShared::new(&cfg).schedule(), &policy);
        assert_eq!(
            b.map(f64::to_bits),
            [0x3f69c511dc3a41e0, 0x3f692f8c3dea38c2, 0x3ff33e655d84721d]
        );
    }

    #[test]
    fn plan_incidents_locate_crashes_and_suspicious_straggles() {
        let plan = FaultPlan {
            seed: 7,
            ranks: vec![
                pvr_faults::RankFault {
                    rank: 5,
                    stage: Stage::Render,
                    action: RankAction::Crash,
                },
                pvr_faults::RankFault {
                    rank: 3,
                    stage: Stage::Composite,
                    action: RankAction::StraggleMs(1200),
                },
                pvr_faults::RankFault {
                    rank: 2,
                    stage: Stage::Io,
                    action: RankAction::StraggleMs(1),
                },
            ],
            ..FaultPlan::default()
        };
        let inc = incidents_from_plan(8, &plan, Duration::from_millis(100));
        assert_eq!(inc.len(), 2, "sub-suspicion straggle is not an incident");
        assert!(inc.contains(&Incident {
            rank: 5,
            stage: 1,
            kind: IncidentKind::Crash
        }));
        assert!(inc.contains(&Incident {
            rank: 3,
            stage: 2,
            kind: IncidentKind::Straggler
        }));
    }

    #[test]
    fn counter_incidents_locate_ladder_and_failover() {
        let mut out = Vec::new();
        let c = RecoveryCounters {
            approx_blocks: 1,
            io_failovers: 2,
            ..RecoveryCounters::default()
        };
        counter_incidents(4, &c, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind, IncidentKind::DegradedLadder);
        assert_eq!((out[0].rank, out[0].stage), (4, 1));
        assert_eq!(out[1].kind, IncidentKind::IoFailover);
        assert_eq!((out[1].rank, out[1].stage), (4, 0));
        counter_incidents(0, &RecoveryCounters::default(), &mut out);
        assert_eq!(out.len(), 2, "healthy counters add nothing");
    }

    #[test]
    fn frame_evaluation_attributes_an_injected_crash() {
        let cfg = FrameConfig::small(16, 24, 8);
        let incidents = [Incident {
            rank: 5,
            stage: 1,
            kind: IncidentKind::Crash,
        }];
        let slo = annotate(
            &cfg,
            FrameShared::new(&cfg).schedule(),
            &FrameSample {
                stage_secs: [0.0; 3],
                per_rank: &[],
                incidents: &incidents,
            },
        );
        assert_eq!(slo.verdict, Verdict::Violated);
        assert_eq!((slo.stage, slo.rank), (Some(1), Some(5)));
        assert_eq!(slo.cause, Some(Cause::Crash));
        assert_eq!(anomaly_reason(&slo, &incidents), Some("rank-crash"));
    }

    #[test]
    fn flight_recording_is_deterministic_and_dumps_on_violation() {
        let run = || {
            let flight = FlightRecorder::manual(32);
            flight.begin_frame();
            let slo = FrameSlo {
                verdict: Verdict::Violated,
                stage: Some(2),
                rank: Some(3),
                cause: Some(Cause::Straggler),
                budget: 0.25,
                measured: 1.2,
            };
            let incidents = [Incident {
                rank: 3,
                stage: 2,
                kind: IncidentKind::Straggler,
            }];
            let rec = RecoveryCounters {
                hedged_renders: 1,
                ..RecoveryCounters::default()
            };
            record_frame_flight(&flight, &slo, &incidents, &rec);
            let dumps = flight.take_dumps();
            assert_eq!(dumps.len(), 1);
            assert_eq!(dumps[0].reason, "slo-violation");
            dumps[0].json.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn healthy_frames_record_a_verdict_but_no_dump() {
        let flight = FlightRecorder::manual(8);
        let slo = FrameSlo {
            verdict: Verdict::Ok,
            stage: None,
            rank: None,
            cause: None,
            budget: 0.0,
            measured: 0.0,
        };
        record_frame_flight(&flight, &slo, &[], &RecoveryCounters::default());
        assert_eq!(flight.len(), 1, "just the frame.slo instant");
        assert!(flight.take_dumps().is_empty());
    }
}
