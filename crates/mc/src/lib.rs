//! Stateless model checking of `pvr-mpisim` programs with dynamic
//! partial-order reduction (DPOR).
//!
//! The randomized probes in `pvr-verify` (`MatchPolicy::Perturb`,
//! single-swap replays) sample wildcard-match interleavings; they prove
//! nothing about the orders they never draw. This crate turns the probe
//! into a *sound verdict at small n*: every inequivalent way the
//! program's wildcard receives could have matched its sends is
//! enumerated, and every enumerated trace is checked for result
//! bit-identity, deadlock-freedom, and message conservation.
//!
//! ## How exploration works
//!
//! An execution of a deterministic rank program is fully determined by
//! its *match function*: which send each wildcard receive consumed
//! (payloads, branches, and every `recv_from` follow from that). Two
//! schedulings with the same match function are Mazurkiewicz-equivalent
//! for our invariants — per-rank results are functions of the messages
//! each rank consumed, in the order it consumed them. So the explorer
//! enumerates match functions, never raw thread schedules:
//!
//! 1. **Run** the program under [`MatchPolicy::Guided`] with some
//!    forced prefix (initially empty ⇒ plain min-source), tracing on.
//! 2. **Derive backtracks**: for every wildcard receive `w` in the
//!    trace, every send `s` that `w` could have matched instead —
//!    `s` targets the same (receiver, tag), is next-in-stream under
//!    per-(source, tag) FIFO given the receives before `w` in program
//!    order, and is not happens-after `w` (vector clocks, recorded in
//!    the trace) — yields a new forced prefix: every choice made
//!    before `w` in this execution, then `w := s`.
//! 3. **Prune**: a proposed prefix already enqueued or explored is
//!    dropped (the sleep-set discipline: a branch is explored from one
//!    representative only); a run whose complete match function was
//!    already seen contributes no new proposals.
//! 4. Repeat depth-first until the frontier is empty.
//!
//! Candidate sends are *feasible* by the standard DPOR argument: every
//! event the forced prefix needs happens-before `w`, and forcing
//! `w := s` cannot unpost `s` because `s` does not causally depend on
//! `w`. Pruning is *sound* for our invariants because they are
//! functions of the match function alone, so checking one
//! representative per class checks the class.
//!
//! On a violation the offending schedule is returned (and can be
//! persisted as JSON via [`Schedule`]) for deterministic replay through
//! `MatchPolicy::Replay`/`Guided` — no re-exploration needed to debug.
//!
//! ## What this is not
//!
//! Exploration is exhaustive over *blocking* wildcard receives of a
//! deterministic program. Timed/poll receives (`recv_any_timeout`,
//! `try_recv_any`) resolve by wall clock and are not choice points;
//! programs built on them (the ft pipeline's deadlined receives) must
//! be model-checked through a blocking model of their protocol, which
//! is what `verify_mc`'s ack/retransmit model does.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pvr_mpisim::trace::{clock_leq, Clock, ReplayLog, TraceEvent, TraceLog};
use pvr_mpisim::{Comm, GuidedSchedule, MatchPolicy, RunError, RunOptions, World};

mod schedule;
pub use schedule::Schedule;

/// Exploration knobs.
#[derive(Clone)]
pub struct McOptions {
    /// Hard cap on executions (a state-space blowup becomes an
    /// incomplete report, not a hang).
    pub max_runs: u64,
    /// Wall-clock budget for the whole exploration.
    pub time_budget: Option<Duration>,
    /// Stop at the first violation (default) or keep enumerating.
    pub stop_on_violation: bool,
    /// Check per-link send/receive conservation on every trace.
    pub check_conservation: bool,
    /// Registry to emit `mc.*` explorer stats into, with this label
    /// (e.g. `"model=direct,n=6,m=2"`).
    pub metrics: Option<(Arc<pvr_obs::Registry>, String)>,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            max_runs: 500_000,
            time_budget: None,
            stop_on_violation: true,
            check_conservation: true,
            metrics: None,
        }
    }
}

/// Exploration statistics (the ISSUE's explored/pruned trace counts).
#[derive(Debug, Clone, Default)]
pub struct McStats {
    /// Executions performed.
    pub runs: u64,
    /// Distinct match-function classes explored (≤ `runs`).
    pub traces: u64,
    /// Executions that converged to an already-explored class
    /// (distinct guided prefixes, same completion).
    pub redundant_runs: u64,
    /// Wildcard receives across all distinct traces.
    pub choice_points: u64,
    /// Sound alternative matches identified (branch proposals).
    pub backtrack_points: u64,
    /// Proposals dropped because an identical prefix was already
    /// enqueued or explored — the sleep-set prunes.
    pub sleep_prunes: u64,
    /// Per-choice-point alternatives excluded by per-(source, tag)
    /// FIFO order or by happens-before (the partial-order reduction
    /// itself, counted against a policy-blind enumerator).
    pub candidate_prunes: u64,
    /// Peak depth-first frontier size.
    pub peak_frontier: usize,
    /// `W!` for the baseline trace's `W` wildcard receives: the global
    /// match orderings a reduction-free stateless checker would have
    /// to consider. `f64` because it overflows u64 immediately.
    pub naive_orderings: f64,
    /// Wall time spent exploring.
    pub wall: Duration,
    /// False iff `max_runs`/`time_budget` stopped exploration early.
    pub complete: bool,
}

/// Why a trace failed.
#[derive(Debug, Clone)]
pub enum ViolationKind {
    /// Per-rank results differ from the baseline trace's (bit-identity
    /// broken; `ranks` lists the differing ranks).
    Divergence { ranks: Vec<usize> },
    /// The guided run deadlocked (report names the wait-for cycle).
    Deadlock { report: String },
    /// The guided run stalled out the watchdog.
    Stall { report: String },
    /// A rank panicked (assertion failure, protocol bug, ...).
    Panic { message: String },
    /// A built-in invariant failed (currently: message conservation).
    Invariant { message: String },
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Divergence { ranks } => {
                write!(f, "result diverges from baseline at ranks {ranks:?}")
            }
            ViolationKind::Deadlock { report } => write!(f, "deadlock: {report}"),
            ViolationKind::Stall { report } => write!(f, "stall: {report}"),
            ViolationKind::Panic { message } => write!(f, "panic: {message}"),
            ViolationKind::Invariant { message } => write!(f, "invariant: {message}"),
        }
    }
}

/// A failing trace with the schedule that reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Replay this to reproduce the failure deterministically.
    pub schedule: Schedule,
    /// True when `schedule` covers every wildcard of the failing run
    /// (replayable via `MatchPolicy::Replay`); false when the run died
    /// before completing (deadlock/panic) — replay those via
    /// `MatchPolicy::Guided`, which pins the prefix that triggers the
    /// failure and lets the rest run deterministically.
    pub complete: bool,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [schedule: {}{}]",
            self.kind,
            self.schedule.to_json(),
            if self.complete { "" } else { " (prefix)" }
        )
    }
}

/// Outcome of an exhaustive exploration.
#[derive(Debug)]
pub struct McReport<T> {
    /// Per-rank results of the baseline (empty-schedule, min-source)
    /// run; `None` iff the baseline itself failed.
    pub baseline: Option<Vec<T>>,
    pub stats: McStats,
    /// Empty iff every explored trace satisfied every invariant.
    pub violations: Vec<Violation>,
}

impl<T> McReport<T> {
    /// Sound verdict: every inequivalent interleaving explored, none
    /// violated anything.
    pub fn verified(&self) -> bool {
        self.violations.is_empty() && self.stats.complete
    }
}

/// One wildcard receive of a trace, with what the backtrack analysis
/// needs.
struct WildcardSite {
    rank: usize,
    /// Rank-local wildcard ordinal.
    widx: u64,
    /// Global position in the trace's event order.
    pos: usize,
    /// Sound alternative sources (≠ chosen) this receive could have
    /// matched instead.
    alternatives: Vec<usize>,
}

/// Per-trace analysis: every wildcard site with its sound alternative
/// matches, plus pruning counters.
fn analyze(
    trace: &TraceLog,
    n: usize,
    stats: &mut McStats,
) -> (Vec<WildcardSite>, Vec<Vec<usize>>) {
    // Sends per (from, to, tag), indexed by seq.
    use std::collections::HashMap;
    let mut sends: HashMap<(usize, usize, u32), Vec<&Clock>> = HashMap::new();
    for e in &trace.events {
        if let TraceEvent::Send {
            from,
            to,
            tag,
            seq,
            clock,
            ..
        } = e
        {
            let v = sends.entry((*from, *to, *tag)).or_default();
            debug_assert_eq!(*seq as usize, v.len(), "sends scanned in seq order");
            v.push(clock);
        }
    }

    let mut sites = Vec::new();
    // Per rank, the global event position of each wildcard in widx
    // order (trace events append in execution order, so per-rank
    // positions increase with program order).
    let mut wildcard_positions: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Next expected seq per (rank, src, tag) stream as receives occur
    // in program order.
    let mut matched: HashMap<(usize, usize, u32), usize> = HashMap::new();
    for (pos, e) in trace.events.iter().enumerate() {
        let TraceEvent::Recv {
            rank,
            src,
            tag,
            wildcard,
            recv_clock,
            ..
        } = e
        else {
            continue;
        };
        if let Some(w) = wildcard {
            let mut alternatives = Vec::new();
            for q in 0..n {
                if q == *src {
                    continue;
                }
                let next = *matched.get(&(*rank, q, *tag)).unwrap_or(&0);
                let Some(stream) = sends.get(&(q, *rank, *tag)) else {
                    continue;
                };
                if next >= stream.len() {
                    continue; // stream fully consumed before w
                }
                // Later messages of the stream can never be matched by
                // w: FIFO pins them behind `next`.
                stats.candidate_prunes += (stream.len() - next - 1) as u64;
                if clock_leq(recv_clock, stream[next]) {
                    // The send happens-after w: it only exists because
                    // w matched what it matched.
                    stats.candidate_prunes += 1;
                } else {
                    alternatives.push(q);
                }
            }
            debug_assert_eq!(
                *w as usize,
                wildcard_positions[*rank].len(),
                "wildcards appear in widx order per rank"
            );
            wildcard_positions[*rank].push(pos);
            sites.push(WildcardSite {
                rank: *rank,
                widx: *w,
                pos,
                alternatives,
            });
        }
        *matched.entry((*rank, *src, *tag)).or_insert(0) += 1;
    }
    (sites, wildcard_positions)
}

/// The forced prefix that reverses site `w` to match `alt` instead:
/// rank `w.rank` keeps its choices before `w`, then forces `alt`;
/// every other rank keeps exactly the choices it had already made when
/// `w` executed (the execution-order prefix, as in classic DPOR).
/// Those choices were made before `w` matched, so they cannot depend
/// on it and stay feasible; trimming them any further (e.g. to the
/// happens-before set) loses the context that distinguishes branches
/// and makes the prefix dedupe unsound.
fn reversal_prefix(
    full: &[Vec<usize>],
    wildcard_positions: &[Vec<usize>],
    w: &WildcardSite,
    alt: usize,
) -> Vec<Vec<usize>> {
    let n = full.len();
    let mut prefix: Vec<Vec<usize>> = Vec::with_capacity(n);
    for r in 0..n {
        if r == w.rank {
            let mut row = full[r][..w.widx as usize].to_vec();
            row.push(alt);
            prefix.push(row);
        } else {
            let keep = wildcard_positions[r]
                .iter()
                .take_while(|&&p| p < w.pos)
                .count();
            prefix.push(full[r][..keep].to_vec());
        }
    }
    prefix
}

fn factorial_f64(k: u64) -> f64 {
    let mut acc = 1.0f64;
    for i in 2..=k {
        acc *= i as f64;
        if !acc.is_finite() {
            break;
        }
    }
    acc
}

/// Message conservation: every send delivered, per (from, to, tag).
/// (Dropped sends record no `Send` event, so fault-injected drops do
/// not trip this.) A surplus send at exit means a rank terminated with
/// traffic still in flight — the unacked-shutdown class of bug.
fn check_conservation(trace: &TraceLog) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut balance: BTreeMap<(usize, usize, u32), i64> = BTreeMap::new();
    for e in &trace.events {
        match e {
            TraceEvent::Send { from, to, tag, .. } => {
                *balance.entry((*from, *to, *tag)).or_default() += 1
            }
            TraceEvent::Recv { rank, src, tag, .. } => {
                *balance.entry((*src, *rank, *tag)).or_default() -= 1
            }
            _ => {}
        }
    }
    let lost: Vec<String> = balance
        .iter()
        .filter(|(_, &d)| d != 0)
        .map(|((f, t, tag), d)| format!("link {f}->{t} tag {tag}: {d} sends undelivered"))
        .collect();
    if lost.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "message conservation violated: {}",
            lost.join("; ")
        ))
    }
}

/// Exhaustively explore every inequivalent wildcard-match interleaving
/// of `program` on `n` ranks, checking bit-identity against the
/// baseline run, deadlock-freedom, and message conservation.
///
/// Never returns `Err` for schedule-induced failures — those are
/// [`Violation`]s in the report. (The `Result` is kept for future
/// explorer-internal errors; exploration itself is total.)
pub fn explore<T, F, Fut>(n: usize, program: F, opts: &McOptions) -> McReport<T>
where
    T: Send + PartialEq + Clone,
    F: Fn(Comm) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = T>,
{
    let t0 = Instant::now();
    let mut stats = McStats {
        complete: true,
        ..McStats::default()
    };
    let mut violations: Vec<Violation> = Vec::new();
    let mut baseline: Option<Vec<T>> = None;

    let root: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stack: Vec<Vec<Vec<usize>>> = vec![root.clone()];
    let mut seen_prefixes: HashSet<Vec<Vec<usize>>> = HashSet::new();
    seen_prefixes.insert(root);
    let mut seen_traces: HashSet<Vec<Vec<usize>>> = HashSet::new();

    while let Some(prefix) = stack.pop() {
        if stats.runs >= opts.max_runs || opts.time_budget.is_some_and(|b| t0.elapsed() >= b) {
            stats.complete = false;
            break;
        }
        stats.runs += 1;
        let sched = Arc::new(GuidedSchedule::new(prefix.clone()));
        let run_opts = RunOptions::default()
            .policy(MatchPolicy::Guided(sched))
            .traced();
        let outcome = catch_unwind(AssertUnwindSafe(|| World::run_opts(n, run_opts, &program)));
        let out = match outcome {
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                violations.push(Violation {
                    kind: ViolationKind::Panic { message },
                    schedule: Schedule::new(prefix),
                    complete: false,
                });
                if opts.stop_on_violation {
                    break;
                }
                continue;
            }
            Ok(Err(e)) => {
                let kind = match &e {
                    RunError::Deadlock { report } => ViolationKind::Deadlock {
                        report: report.clone(),
                    },
                    RunError::Stalled { report } => ViolationKind::Stall {
                        report: report.clone(),
                    },
                };
                violations.push(Violation {
                    kind,
                    schedule: Schedule::new(prefix),
                    complete: false,
                });
                if opts.stop_on_violation {
                    break;
                }
                continue;
            }
            Ok(Ok(out)) => out,
        };

        let trace = out.trace.expect("guided runs are traced");
        let full = ReplayLog::from_trace(&trace).per_rank().to_vec();
        debug_assert!(
            full.iter()
                .zip(&prefix)
                .all(|(f, p)| f.len() >= p.len() && f[..p.len()] == p[..]),
            "guided run did not honour its forced prefix — does the \
             program use timed receives as choice points?"
        );
        if !seen_traces.insert(full.clone()) {
            // Same match function as an earlier run: identical
            // execution, identical proposals. Nothing new.
            stats.redundant_runs += 1;
            continue;
        }
        stats.traces += 1;

        // Invariants.
        match &baseline {
            None => {
                stats.naive_orderings = factorial_f64(trace.wildcard_count() as u64);
                baseline = Some(out.results);
            }
            Some(base) => {
                if out.results != *base {
                    let ranks: Vec<usize> = out
                        .results
                        .iter()
                        .zip(base)
                        .enumerate()
                        .filter(|(_, (a, b))| a != b)
                        .map(|(r, _)| r)
                        .collect();
                    violations.push(Violation {
                        kind: ViolationKind::Divergence { ranks },
                        schedule: Schedule::new(full.clone()),
                        complete: true,
                    });
                    if opts.stop_on_violation {
                        break;
                    }
                }
            }
        }
        if opts.check_conservation {
            if let Err(message) = check_conservation(&trace) {
                violations.push(Violation {
                    kind: ViolationKind::Invariant { message },
                    schedule: Schedule::new(full.clone()),
                    complete: true,
                });
                if opts.stop_on_violation {
                    break;
                }
            }
        }

        // Backtrack-set computation and branch enqueueing.
        let (sites, wildcard_positions) = analyze(&trace, n, &mut stats);
        stats.choice_points += sites.len() as u64;
        for site in &sites {
            for &alt in &site.alternatives {
                stats.backtrack_points += 1;
                let proposal = reversal_prefix(&full, &wildcard_positions, site, alt);
                if seen_prefixes.insert(proposal.clone()) {
                    stack.push(proposal);
                    stats.peak_frontier = stats.peak_frontier.max(stack.len());
                } else {
                    stats.sleep_prunes += 1;
                }
            }
        }
    }

    stats.wall = t0.elapsed();
    if let Some((registry, label)) = &opts.metrics {
        registry.counter_add("mc.runs", label, stats.runs);
        registry.counter_add("mc.traces", label, stats.traces);
        registry.counter_add("mc.redundant_runs", label, stats.redundant_runs);
        registry.counter_add("mc.choice_points", label, stats.choice_points);
        registry.counter_add("mc.backtrack_points", label, stats.backtrack_points);
        registry.counter_add("mc.sleep_prunes", label, stats.sleep_prunes);
        registry.counter_add("mc.candidate_prunes", label, stats.candidate_prunes);
        registry.counter_add("mc.violations", label, violations.len() as u64);
        registry.gauge_set("mc.peak_frontier", label, stats.peak_frontier as i64);
        registry.gauge_set("mc.complete", label, i64::from(stats.complete));
    }

    McReport {
        baseline,
        stats,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Boxed rank-program future: helpers returning closures cannot
    /// name the async block's type, so they box it.
    type BoxFut<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

    /// `k` senders (ranks 1..=k) each send one message to rank 0; rank
    /// 0 matches them with wildcards and returns the match order.
    fn fan_in(k: usize) -> impl Fn(Comm) -> BoxFut<Vec<usize>> + Send + Sync {
        move |mut comm: Comm| -> BoxFut<Vec<usize>> {
            Box::pin(async move {
                if comm.rank() == 0 {
                    let mut v = Vec::with_capacity(k);
                    for _ in 0..k {
                        v.push(comm.recv_any(1).await.0);
                    }
                    v
                } else {
                    comm.send(0, 1, vec![comm.rank() as u8]).await;
                    Vec::new()
                }
            })
        }
    }

    /// Order-*independent* fan-in: rank 0 sorts what it matched.
    fn fan_in_sorted(k: usize) -> impl Fn(Comm) -> BoxFut<Vec<usize>> + Send + Sync {
        let inner = fan_in(k);
        move |comm: Comm| -> BoxFut<Vec<usize>> {
            let fut = inner(comm);
            Box::pin(async move {
                let mut v = fut.await;
                v.sort_unstable();
                v
            })
        }
    }

    #[test]
    fn enumerates_all_match_orders_of_a_fan_in() {
        // 3 concurrent single-message senders: exactly 3! inequivalent
        // match functions, none violating anything (results sorted).
        let report = explore(4, fan_in_sorted(3), &McOptions::default());
        assert!(report.verified(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.traces, 6);
        assert!(report.stats.complete);
        // Every run converged to a distinct class or was counted
        // redundant; nothing lost.
        assert_eq!(
            report.stats.runs,
            report.stats.traces + report.stats.redundant_runs
        );
    }

    #[test]
    fn independent_receivers_multiply() {
        // Ranks 1, 2 each send to ranks 0 and 3: two independent 2-way
        // fan-ins ⇒ 2! × 2! = 4 classes.
        let program = |mut comm: Comm| async move {
            match comm.rank() {
                0 | 3 => {
                    let mut v = Vec::with_capacity(2);
                    for _ in 0..2 {
                        v.push(comm.recv_any(1).await.0);
                    }
                    v.sort_unstable();
                    v
                }
                r => {
                    comm.send(0, 1, vec![r as u8]).await;
                    comm.send(3, 1, vec![r as u8]).await;
                    Vec::new()
                }
            }
        };
        let report = explore(4, program, &McOptions::default());
        assert!(report.verified(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.traces, 4);
    }

    #[test]
    fn fifo_streams_prune_candidates() {
        // Rank 1 sends two messages (FIFO-pinned), rank 2 one: the
        // distinct interleavings of [a, a, b] are 3, not 3!.
        let program = |mut comm: Comm| async move {
            match comm.rank() {
                0 => {
                    let mut v = Vec::with_capacity(3);
                    for _ in 0..3 {
                        v.push(comm.recv_any(1).await.0);
                    }
                    v.sort_unstable();
                    v
                }
                1 => {
                    comm.send(0, 1, vec![1]).await;
                    comm.send(0, 1, vec![2]).await;
                    Vec::new()
                }
                _ => {
                    comm.send(0, 1, vec![3]).await;
                    Vec::new()
                }
            }
        };
        let report = explore(3, program, &McOptions::default());
        assert!(report.verified(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.traces, 3);
        assert!(
            report.stats.candidate_prunes > 0,
            "the second message of rank 1's stream must be FIFO-pruned"
        );
    }

    #[test]
    fn causal_chains_have_one_class() {
        // rank 1 -> 0; then 0 -> 2; then 2 -> 0. The second wildcard's
        // send happens-after the first receive: no reversal exists.
        let program = |mut comm: Comm| async move {
            match comm.rank() {
                0 => {
                    let a = comm.recv_any(1).await.0;
                    comm.send(2, 2, vec![0]).await;
                    let b = comm.recv_any(1).await.0;
                    vec![a, b]
                }
                1 => {
                    comm.send(0, 1, vec![1]).await;
                    Vec::new()
                }
                _ => {
                    let _ = comm.recv_from(0, 2).await;
                    comm.send(0, 1, vec![2]).await;
                    Vec::new()
                }
            }
        };
        let report = explore(3, program, &McOptions::default());
        assert!(report.verified(), "violations: {:?}", report.violations);
        assert_eq!(report.stats.traces, 1);
        assert_eq!(report.stats.backtrack_points, 0);
    }

    #[test]
    fn order_dependent_result_is_caught_with_replayable_schedule() {
        // Raw match order escapes as the result: every order but the
        // baseline's diverges. The counterexample must reproduce after a
        // JSON round-trip, both under plain Replay and as the prefix of a
        // Guided run (how a partial schedule is replayed).
        let report = explore(4, fan_in(3), &McOptions::default());
        assert!(!report.verified());
        let v = report
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::Divergence { .. }))
            .expect("a divergence violation");
        assert!(v.complete, "a completed run yields a full schedule");

        let schedule = Schedule::from_json(&v.schedule.to_json()).unwrap();
        for policy in [
            MatchPolicy::Replay(Arc::new(schedule.to_replay())),
            MatchPolicy::Guided(Arc::new(schedule.to_guided())),
        ] {
            let replayed =
                World::run_opts(4, RunOptions::default().policy(policy), fan_in(3)).unwrap();
            assert_ne!(
                replayed.results,
                report.baseline.as_ref().unwrap().clone(),
                "replaying the counterexample must reproduce the divergence"
            );
        }
    }

    #[test]
    fn schedule_dependent_deadlock_is_caught() {
        // Rank 0 deadlocks iff its first wildcard matches rank 2: it
        // then waits for a tag-9 message nobody sends. Only DPOR-style
        // enumeration finds this reliably.
        let program = |mut comm: Comm| async move {
            match comm.rank() {
                0 => {
                    let (src, _) = comm.recv_any(1).await;
                    if src == 2 {
                        let _ = comm.recv_from(2, 9).await;
                    }
                    let _ = comm.recv_any(1).await;
                }
                r => comm.send(0, 1, vec![r as u8]).await,
            };
            0usize
        };
        let report = explore(3, program, &McOptions::default());
        let v = report
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::Deadlock { .. }))
            .expect("the src==2-first schedule must deadlock");
        // The prefix pins rank 0's first wildcard to source 2.
        assert_eq!(v.schedule.prefix[0][0], 2);
        assert!(!v.complete);
    }

    #[test]
    fn lost_message_violates_conservation() {
        // Rank 1 sends two messages but rank 0 consumes only one: the
        // second send is never delivered.
        let program = |mut comm: Comm| async move {
            match comm.rank() {
                0 => {
                    let _ = comm.recv_any(1).await;
                }
                _ => {
                    comm.send(0, 1, vec![1]).await;
                    comm.send(0, 1, vec![2]).await;
                }
            };
            0usize
        };
        let report = explore(2, program, &McOptions::default());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::Invariant { .. })));
    }

    #[test]
    fn run_cap_reports_incomplete() {
        let opts = McOptions {
            max_runs: 3,
            ..McOptions::default()
        };
        let report = explore(5, fan_in_sorted(4), &opts);
        assert!(!report.stats.complete);
        assert!(!report.verified());
        assert!(report.violations.is_empty());
    }

    #[test]
    fn metrics_are_emitted() {
        let registry = Arc::new(pvr_obs::Registry::new());
        let opts = McOptions {
            metrics: Some((Arc::clone(&registry), "model=test".into())),
            ..McOptions::default()
        };
        let report = explore(3, fan_in_sorted(2), &opts);
        assert!(report.verified());
        assert_eq!(
            registry.counter_value("mc.traces", "model=test"),
            Some(report.stats.traces)
        );
        assert_eq!(
            registry.counter_value("mc.runs", "model=test"),
            Some(report.stats.runs)
        );
    }
}
