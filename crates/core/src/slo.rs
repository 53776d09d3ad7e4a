//! The frame's SLO verdict: measured per-stage times against budgets
//! derived from the performance model, with the blown budget attributed
//! to a (stage, rank).
//!
//! The paper's end-to-end story is that knowing *which* stage and
//! *which* process eats the frame is what makes a 32K-core run
//! debuggable (Figs. 3, 5, 6). This module turns that analysis into a
//! per-frame verdict; `pvr-obs` supplies the mechanisms it reads and
//! records through (the critical path, the flight recorder).
//!
//! * [`stage_budgets`] derives per-stage budgets from the same
//!   calibrated perf-model predictions that size the recovery deadlines
//!   ([`crate::recovery::effective_policy`]): the modeled I/O, render,
//!   and composite seconds (the composite term prices the frame's own
//!   schedule, handed in) times the shared headroom, floored at 250 ms
//!   so laptop-scale frames are judged against sane sub-second budgets,
//!   and a [`FrameConfig::stage_deadline_ms`] override winning outright.
//! * [`evaluate`] is a pure function of the budgets, the measured stage
//!   seconds and the located [`Incident`]s (crashes, stragglers past
//!   suspicion, ladder activations, I/O failovers): a deterministic
//!   [`Verdict`] and the (stage, rank, [`Cause`]) it is attributed to.
//!   Incidents outrank raw time — a crashed rank is the cause even when
//!   a hedge kept the frame fast — otherwise the slowest rank of the
//!   worst stage is named, and a message trace's critical path names
//!   it when no per-rank time could.
//! * Fault plans and recovery counters become located incidents, so a
//!   crash or hedged straggler attributes to its injection site even
//!   when recovery kept the wall clock fast.
//! * The verdict and incidents are mirrored onto the always-on
//!   [`FlightRecorder`], which dumps on a violation, crash, or
//!   degradation-ladder activation. Only deterministic values (ranks,
//!   stages, counts — never wall seconds) ride the flight args, so
//!   manual-clock dumps are byte-stable for golden tests.

use std::time::Duration;

use pvr_compositing::Schedule;
use pvr_faults::{FaultPlan, RankAction, RecoveryCounters, Stage};
use pvr_obs::flight::FlightRecorder;
use pvr_obs::Args;

use crate::config::FrameConfig;
use crate::perfmodel::PerfModel;

/// Multiplier between a predicted stage time and the budget that
/// declares it violated — and the recovery deadline that aborts it.
pub(crate) const HEADROOM: f64 = 3.0;

/// Nominal staging bandwidth (bytes/s) behind the I/O budget and the
/// derived I/O deadline. Only the *scale* matters: the floors keep
/// laptop-sized frames at their configured values, and paper-scale
/// frames grow theirs.
pub(crate) const NOMINAL_IO_BW: f64 = 1.0e9;

/// Per-stage budget floor in seconds. Laptop-scale frames predict
/// microsecond stages; judging them against a floor keeps scheduler
/// noise from reading as violations.
const BUDGET_FLOOR: f64 = 0.25;

/// Fraction of a budget past which a stage is [`Verdict::AtRisk`].
const AT_RISK_FRAC: f64 = 0.8;

/// The per-frame (and per-stage) SLO verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// All stages within their at-risk thresholds.
    Ok,
    /// Some stage within budget but past the at-risk fraction, or a
    /// survivable recovery event (I/O failover) occurred.
    AtRisk,
    /// Some stage past its budget, or a crash/straggler/degradation
    /// made the frame late or incomplete.
    Violated,
}

/// Why a frame is not [`Verdict::Ok`]: what the recovery layer observed
/// at a (stage, rank), or raw time. Declared in attribution precedence:
/// a crash outranks a straggler, which outranks a ladder activation,
/// then an I/O failover, then time alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// A rank crashed.
    Crash,
    /// A rank straggled past the suspicion window (hedged or waited).
    Straggler,
    /// The recovery budget forced a coarse/skip rung.
    DegradedLadder,
    /// A storage server failed over to a replica (survivable).
    IoFailover,
    /// The stage's measured time passed its budget, or the at-risk
    /// fraction of it. Never the cause of an [`Incident`].
    OverBudget,
}

impl Cause {
    /// The stage verdict an incident of this cause forces on its own.
    fn verdict(self) -> Verdict {
        match self {
            Cause::IoFailover => Verdict::AtRisk,
            _ => Verdict::Violated,
        }
    }

    /// Flight-ring event name of an incident of this cause (the
    /// `<subsystem>.<event>` naming convention — see `pvr-obs`'s crate
    /// docs).
    fn flight_name(self) -> &'static str {
        match self {
            Cause::Crash => "rank.crash",
            Cause::Straggler => "rank.straggle",
            Cause::DegradedLadder => "heal.ladder",
            Cause::IoFailover => "io.failover",
            Cause::OverBudget => unreachable!("over-budget is never an incident"),
        }
    }
}

/// One recovery observation, located at (stage, rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    pub rank: usize,
    /// Stage in plan order: 0 = I/O, 1 = render, 2 = composite.
    pub stage: usize,
    pub cause: Cause,
}

/// One frame's verdict and what it is attributed to. `Copy` +
/// `PartialEq`, so the timing structs that embed it keep their derives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSlo {
    pub verdict: Verdict,
    /// Attributed stage (plan order, as [`Incident::stage`]); `None`
    /// when Ok.
    pub stage: Option<usize>,
    /// The responsible rank, when one can be named: from an incident,
    /// the slowest per-rank measurement, or the critical path.
    pub rank: Option<usize>,
    pub cause: Option<Cause>,
    /// Budget seconds of the attributed stage (0 when Ok).
    pub budget: f64,
    /// Measured seconds of the attributed stage: the max of the
    /// frame-level and per-rank measurements (0 when Ok).
    pub measured: f64,
}

/// Everything [`evaluate`] consumes: one frame's budgets and
/// measurements, as an executor hands them over.
#[derive(Debug, Clone, Copy)]
pub struct SloInput<'a> {
    /// Per-stage budgets in seconds, plan order ([`stage_budgets`]).
    pub budgets: [f64; 3],
    /// Frame-level stage seconds (the root rank's stopwatch).
    pub stage_secs: [f64; 3],
    /// Per-rank per-stage seconds; empty when the executor has no
    /// per-rank decomposition (the data-parallel executor).
    pub per_rank: &'a [[f64; 3]],
    /// Located recovery observations for the frame.
    pub incidents: &'a [Incident],
}

/// Per-stage budgets in seconds, plan order: modeled stage seconds ×
/// the headroom the recovery deadlines use, floored per stage; a
/// [`FrameConfig::stage_deadline_ms`] override wins outright.
/// `schedule` is the frame's direct-send schedule
/// ([`crate::scheduler::FrameShared::schedule`]).
pub fn stage_budgets(cfg: &FrameConfig, schedule: &Schedule) -> [f64; 3] {
    if let Some(ms) = cfg.stage_deadline_ms {
        return [ms as f64 / 1e3; 3];
    }
    modeled_budgets(cfg, schedule).map(|b| b.max(BUDGET_FLOOR))
}

/// [`stage_budgets`] before the floor: the perf model's stage seconds
/// times the headroom.
fn modeled_budgets(cfg: &FrameConfig, schedule: &Schedule) -> [f64; 3] {
    let model = PerfModel::default();
    let io_est = cfg.variable_bytes() as f64 / NOMINAL_IO_BW;
    let (render_est, _) = model.simulate_render(cfg);
    let comp_est = model.simulate_composite(cfg, schedule).seconds;
    [io_est, render_est, comp_est].map(|s| s * HEADROOM)
}

/// The budgets to judge a frame by: `price()`d when the verdict can
/// depend on them, the floors otherwise. Without a deadline override no
/// budget is below [`BUDGET_FLOOR`], so a frame with no incidents whose
/// every stage time, at the frame and on every rank, stays within the
/// at-risk share of the floor is [`Verdict::Ok`] whatever the model
/// prices — and a fast frame skips pricing its schedule.
pub(crate) fn budgets_for(
    cfg: &FrameConfig,
    stage_secs: &[f64; 3],
    per_rank: &[[f64; 3]],
    incidents: &[Incident],
    price: impl FnOnce() -> [f64; 3],
) -> [f64; 3] {
    let near_floor = |s: &f64| *s > BUDGET_FLOOR * AT_RISK_FRAC;
    let mut times = stage_secs.iter().chain(per_rank.iter().flatten());
    if cfg.stage_deadline_ms.is_some() || !incidents.is_empty() || times.any(near_floor) {
        price()
    } else {
        [BUDGET_FLOOR; 3]
    }
}

/// Evaluate one frame. Deterministic: a pure function of its input.
///
/// Each stage is judged on the larger of its frame-level and slowest
/// per-rank time, then raised by the incidents located at it. A non-Ok
/// frame is attributed among the stages at its severity: to the
/// highest-precedence incident there (see [`Cause`]), else to the stage
/// with the worst overrun ratio and its slowest rank.
pub fn evaluate(input: &SloInput) -> FrameSlo {
    let mut measured = [0.0f64; 3];
    let mut verdicts = [Verdict::Ok; 3];
    for s in 0..3 {
        let per_rank_max = input.per_rank.iter().map(|r| r[s]).fold(0.0f64, f64::max);
        measured[s] = input.stage_secs[s].max(per_rank_max);
        let budget = input.budgets[s];
        let by_time = if measured[s] > budget {
            Verdict::Violated
        } else if measured[s] > budget * AT_RISK_FRAC {
            Verdict::AtRisk
        } else {
            Verdict::Ok
        };
        verdicts[s] = input
            .incidents
            .iter()
            .filter(|i| i.stage == s)
            .map(|i| i.cause.verdict())
            .fold(by_time, Verdict::max);
    }
    let verdict = verdicts.into_iter().fold(Verdict::Ok, Verdict::max);
    if verdict == Verdict::Ok {
        return FrameSlo {
            verdict,
            stage: None,
            rank: None,
            cause: None,
            budget: 0.0,
            measured: 0.0,
        };
    }

    let candidate = |s: usize| verdicts[s] == verdict;
    let incident = input
        .incidents
        .iter()
        .filter(|i| candidate(i.stage))
        .min_by_key(|i| i.cause);
    let (stage, rank, cause) = match incident {
        Some(inc) => (inc.stage, Some(inc.rank), inc.cause),
        None => {
            let ratio = |s: usize| measured[s] / input.budgets[s].max(1e-12);
            let stage = (0..3)
                .filter(|&s| candidate(s))
                .max_by(|&a, &b| ratio(a).total_cmp(&ratio(b)))
                .unwrap_or(0);
            let rank = input
                .per_rank
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a[stage].total_cmp(&b[stage]))
                .map(|(r, _)| r);
            (stage, rank, Cause::OverBudget)
        }
    };
    FrameSlo {
        verdict,
        stage: Some(stage),
        rank,
        cause: Some(cause),
        budget: input.budgets[stage],
        measured: measured[stage],
    }
}

/// Name the attributed rank from a message trace's happens-before
/// critical path (its dominant rank) when time and incidents could not.
pub(crate) fn refine_with_critical_path(slo: &mut FrameSlo, trace: &pvr_mpisim::trace::TraceLog) {
    if slo.verdict != Verdict::Ok && slo.rank.is_none() {
        slo.rank = pvr_mpisim::analysis::critical_path(trace)
            .dominant_rank()
            .map(|(r, _)| r);
    }
}

/// Located incidents from an injected fault plan: every planned crash,
/// and every planned straggle long enough to trip the suspicion
/// window. Sub-suspicion straggles are left to the per-rank stage
/// times (the sleep is real and shows up there).
pub(crate) fn incidents_from_plan(
    n: usize,
    plan: &FaultPlan,
    suspicion: Duration,
) -> Vec<Incident> {
    let mut out = Vec::new();
    for rank in 0..n {
        for stage in [Stage::Io, Stage::Render, Stage::Composite] {
            let cause = match plan.rank_fault(rank, stage) {
                Some(RankAction::Crash) => Cause::Crash,
                Some(RankAction::StraggleMs(ms))
                    if Duration::from_millis(ms) >= suspicion && !suspicion.is_zero() =>
                {
                    Cause::Straggler
                }
                _ => continue,
            };
            out.push(Incident {
                rank,
                stage: stage.index(),
                cause,
            });
        }
    }
    out
}

/// Located incidents from one rank's recovery counters: a coarse-rung
/// heal is a degradation-ladder activation at the render stage, a
/// replica read is a survivable I/O failover.
pub(crate) fn counter_incidents(rank: usize, c: &RecoveryCounters, out: &mut Vec<Incident>) {
    if c.approx_blocks > 0 {
        out.push(Incident {
            rank,
            stage: 1,
            cause: Cause::DegradedLadder,
        });
    }
    if c.io_failovers > 0 {
        out.push(Incident {
            rank,
            stage: 0,
            cause: Cause::IoFailover,
        });
    }
}

/// Why a frame's flight ring should be dumped, if at all: a crash or
/// ladder activation dumps under its own name, any other violation
/// dumps as an SLO violation. `None` for healthy and merely at-risk
/// frames.
fn anomaly_reason(slo: &FrameSlo, incidents: &[Incident]) -> Option<&'static str> {
    let any = |cause| incidents.iter().any(|i| i.cause == cause);
    if any(Cause::Crash) {
        Some("rank-crash")
    } else if any(Cause::DegradedLadder) {
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
pub(crate) fn record_frame_flight(
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
            inc.cause.flight_name(),
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
        stage_budgets(cfg, FrameShared::new(cfg).schedule())
    }

    /// Unit budgets against a quiet frame.
    fn base_input<'a>(per_rank: &'a [[f64; 3]], incidents: &'a [Incident]) -> SloInput<'a> {
        SloInput {
            budgets: [1.0, 1.0, 1.0],
            stage_secs: [0.1, 0.2, 0.1],
            per_rank,
            incidents,
        }
    }

    #[test]
    fn healthy_frame_is_ok() {
        let slo = evaluate(&base_input(&[], &[]));
        assert_eq!(slo.verdict, Verdict::Ok);
        assert_eq!((slo.stage, slo.rank, slo.cause), (None, None, None));
        assert_eq!((slo.budget, slo.measured), (0.0, 0.0));
    }

    #[test]
    fn slow_rank_blows_its_stage_budget_and_is_named() {
        // Rank 3's composite takes 1.5 s against a 1 s budget.
        let per_rank: Vec<[f64; 3]> = (0..8)
            .map(|r| [0.1, 0.2, if r == 3 { 1.5 } else { 0.1 }])
            .collect();
        let slo = evaluate(&base_input(&per_rank, &[]));
        assert_eq!(slo.verdict, Verdict::Violated);
        assert_eq!(
            (slo.stage, slo.rank, slo.cause),
            (Some(2), Some(3), Some(Cause::OverBudget))
        );
        assert!((slo.measured - 1.5).abs() < 1e-12);
        assert_eq!(slo.budget, 1.0);
    }

    /// Judging by the floors where `budgets_for` skips the pricing gives
    /// every verdict the priced budgets give: stage times swept across
    /// the at-risk share of the floor, with and without a slow rank, an
    /// incident or a deadline override.
    #[test]
    fn skipping_the_pricing_never_changes_a_verdict() {
        let mut cfg = FrameConfig::small(16, 24, 8);
        for priced in [[0.25, 0.25, 0.25], [0.3, 1.5, 0.25], [4.0, 0.26, 0.9]] {
            for deadline in [None, Some(150)] {
                cfg.stage_deadline_ms = deadline;
                let priced = deadline.map_or(priced, |ms| [ms as f64 / 1e3; 3]);
                for t in [0.0, 0.05, 0.19, 0.2, 0.21, 0.3, 1.0] {
                    let stage_secs = [0.01, t, 0.02];
                    let slow = [[0.01, 0.02, 2.0 * t + 0.01]];
                    let crash = [Incident {
                        rank: 1,
                        stage: 1,
                        cause: Cause::Crash,
                    }];
                    for (per_rank, incidents) in [
                        (&[][..], &[][..]),
                        (&slow[..], &[][..]),
                        (&[][..], &crash[..]),
                    ] {
                        let judge = |budgets| {
                            evaluate(&SloInput {
                                budgets,
                                stage_secs,
                                per_rank,
                                incidents,
                            })
                        };
                        let skipped =
                            budgets_for(&cfg, &stage_secs, per_rank, incidents, || priced);
                        assert_eq!(judge(skipped), judge(priced), "t {t}, budgets {priced:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn at_risk_band_sits_between_ok_and_violated() {
        let mut input = base_input(&[], &[]);
        input.stage_secs = [0.1, 0.9, 0.1];
        let slo = evaluate(&input);
        assert_eq!(slo.verdict, Verdict::AtRisk);
        assert_eq!((slo.stage, slo.rank), (Some(1), None));
    }

    #[test]
    fn crash_incident_outranks_raw_time() {
        // Rank 5 crashed at render; rank 2's composite is also slow.
        let per_rank: Vec<[f64; 3]> = (0..8)
            .map(|r| [0.1, 0.1, if r == 2 { 2.0 } else { 0.1 }])
            .collect();
        let incidents = [Incident {
            rank: 5,
            stage: 1,
            cause: Cause::Crash,
        }];
        let slo = evaluate(&base_input(&per_rank, &incidents));
        assert_eq!(slo.verdict, Verdict::Violated);
        assert_eq!(
            (slo.stage, slo.rank, slo.cause),
            (Some(1), Some(5), Some(Cause::Crash))
        );
    }

    #[test]
    fn straggler_incident_names_the_injection_site() {
        let incidents = [Incident {
            rank: 3,
            stage: 2,
            cause: Cause::Straggler,
        }];
        let slo = evaluate(&base_input(&[], &incidents));
        assert_eq!(slo.verdict, Verdict::Violated);
        assert_eq!(
            (slo.stage, slo.rank, slo.cause),
            (Some(2), Some(3), Some(Cause::Straggler))
        );
    }

    #[test]
    fn io_failover_is_at_risk_not_violated() {
        let incidents = [Incident {
            rank: 0,
            stage: 0,
            cause: Cause::IoFailover,
        }];
        let slo = evaluate(&base_input(&[], &incidents));
        assert_eq!(slo.verdict, Verdict::AtRisk);
        assert_eq!(slo.cause, Some(Cause::IoFailover));
    }

    #[test]
    fn verdicts_and_causes_are_ordered_by_severity_and_precedence() {
        assert!(Verdict::Ok < Verdict::AtRisk && Verdict::AtRisk < Verdict::Violated);
        assert!(Cause::Crash < Cause::Straggler && Cause::Straggler < Cause::DegradedLadder);
        assert!(Cause::DegradedLadder < Cause::IoFailover && Cause::IoFailover < Cause::OverBudget);
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

    /// The `sim-2048` frame's budgets before the floor, pinned to the
    /// bit: pricing the schedule the frame already holds must give what
    /// re-deriving it per call gave.
    #[test]
    fn budgets_from_the_shared_schedule_are_pinned() {
        let mut cfg = FrameConfig::small(64, 128, 2048);
        cfg.policy = crate::config::CompositorPolicy::Improved;
        let b = modeled_budgets(&cfg, FrameShared::new(&cfg).schedule());
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
            cause: Cause::Crash
        }));
        assert!(inc.contains(&Incident {
            rank: 3,
            stage: 2,
            cause: Cause::Straggler
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
        assert_eq!(out[0].cause, Cause::DegradedLadder);
        assert_eq!((out[0].rank, out[0].stage), (4, 1));
        assert_eq!(out[1].cause, Cause::IoFailover);
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
            cause: Cause::Crash,
        }];
        let slo = evaluate(&SloInput {
            budgets: budgets(&cfg),
            stage_secs: [0.0; 3],
            per_rank: &[],
            incidents: &incidents,
        });
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
                cause: Cause::Straggler,
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
        let slo = evaluate(&base_input(&[], &[]));
        record_frame_flight(&flight, &slo, &[], &RecoveryCounters::default());
        assert_eq!(flight.len(), 1, "just the frame.slo instant");
        assert!(flight.take_dumps().is_empty());
    }
}
