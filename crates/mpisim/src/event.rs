//! The discrete-event executor: every rank is a resumable task
//! (a future) polled by a single-threaded scheduler, and all waiting
//! is virtual — parked tasks are woken by message arrival, barrier
//! release, or virtual-time timers. No OS threads, no wall-clock
//! sleeps: a simulated 5-second link delay costs zero wall time, and
//! the deadlock check runs event-driven at quiescence instead of on a
//! polling watchdog.
//!
//! ## Scheduling rules
//!
//! * Tasks are created in rank order and seeded into a FIFO ready
//!   queue, so the first scheduling round polls rank 0, 1, … n-1.
//! * A send wakes the destination task (idempotently: a task is in the
//!   ready queue at most once). Spurious wakes are harmless — a task
//!   whose wait is still unsatisfied re-parks.
//! * When the ready queue drains, the earliest timer fires: virtual
//!   time jumps to the timer's deadline and its owner is woken. Ties
//!   break by registration order, so runs are deterministic.
//! * When the ready queue drains and no timers are pending, the world
//!   is quiescent: every task is parked forever or done. With deadlock
//!   detection on, [`check_deadlock`] names the wait-for cycle;
//!   otherwise the run is declared [`RunError::Stalled`].
//! * A wall-clock guard (checked every few thousand polls and at every
//!   timer fire) converts a runaway run — e.g. an infinite virtual-time
//!   loop — into [`RunError::Stalled`] after [`RunOptions::timeout`].

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::trace::TraceLog;
use crate::{check_deadlock, stall_report, Comm, RunError, RunOptions, RunOutput, SimStats, State};

/// Wall-clock guard cadence: the watchdog deadline is checked every
/// this many task polls (and at every timer fire).
const WALL_GUARD_EVERY: u64 = 4096;

/// The shared world state plus the executor's scheduling structures.
/// Single-threaded: tasks reach it through `Rc<RefCell<…>>`, and no
/// borrow is held across a task poll.
pub(crate) struct EventCore {
    pub(crate) st: State,
    /// Ranks awaiting a poll, FIFO. `in_ready` dedups wakes.
    ready: VecDeque<usize>,
    in_ready: Vec<bool>,
    /// Virtual-time timers: (deadline ns, registration seq, rank).
    /// `Reverse` turns the max-heap into earliest-deadline-first; the
    /// registration seq makes ties deterministic.
    timers: BinaryHeap<Reverse<(u64, u64, usize)>>,
    timer_seq: u64,
    /// The virtual clock, advanced only by firing timers.
    pub(crate) now_ns: u64,
    /// Wall time each task has spent being polled (user compute).
    pub(crate) busy: Vec<Duration>,
    /// Set while a task is being polled: (rank, poll start), so
    /// `Comm::time` can include the in-progress poll's elapsed time.
    pub(crate) poll_epoch: Option<(usize, Instant)>,
    /// Counters for `SimStats`.
    polls: u64,
    messages: u64,
    timer_fires: u64,
}

impl EventCore {
    fn new(n: usize, trace: bool) -> EventCore {
        EventCore {
            st: State::new(n, trace),
            ready: (0..n).collect(),
            in_ready: vec![true; n],
            timers: BinaryHeap::new(),
            timer_seq: 0,
            now_ns: 0,
            busy: vec![Duration::ZERO; n],
            poll_epoch: None,
            polls: 0,
            messages: 0,
            timer_fires: 0,
        }
    }

    /// Schedule `rank` for a poll (idempotent).
    pub(crate) fn wake(&mut self, rank: usize) {
        if !self.in_ready[rank] {
            self.in_ready[rank] = true;
            self.ready.push_back(rank);
        }
    }

    fn pop_ready(&mut self) -> Option<usize> {
        let r = self.ready.pop_front()?;
        self.in_ready[r] = false;
        Some(r)
    }

    /// Register a virtual-time timer waking `rank` at `at_ns`.
    pub(crate) fn add_timer(&mut self, at_ns: u64, rank: usize) {
        self.timer_seq += 1;
        self.timers.push(Reverse((at_ns, self.timer_seq, rank)));
    }

    /// Advance virtual time to the earliest timer and wake its owner.
    /// Returns false when no timers are pending (true quiescence).
    fn fire_next_timer(&mut self) -> bool {
        let Some(Reverse((at, _, rank))) = self.timers.pop() else {
            return false;
        };
        self.now_ns = self.now_ns.max(at);
        self.timer_fires += 1;
        self.wake(rank);
        true
    }

    /// Account one accepted send (for `SimStats`).
    pub(crate) fn count_message(&mut self) {
        self.messages += 1;
    }

    /// Fail the world with `err`, saying so on stderr.
    fn poison(&mut self, err: RunError) {
        eprintln!("pvr-mpisim: {err}");
        self.st.poison = Some(err);
    }
}

/// The wall guard of an `n`-rank world: true once `timeout` has passed
/// since `start`, when the world (unless already failed) is failed with
/// a stall report.
fn wall_expired(
    core: &RefCell<EventCore>,
    start: Instant,
    timeout: Option<Duration>,
    n: usize,
) -> bool {
    let Some(t) = timeout.filter(|&t| start.elapsed() >= t) else {
        return false;
    };
    let mut c = core.borrow_mut();
    if c.st.poison.is_none() {
        let report = stall_report(&c.st, t, n);
        c.poison(RunError::Stalled { report });
    }
    true
}

/// Run `n` ranks as futures on the discrete-event scheduler.
pub(crate) fn run_world<T, F, Fut>(
    n: usize,
    opts: RunOptions,
    f: &F,
) -> Result<RunOutput<T>, RunError>
where
    F: Fn(Comm) -> Fut,
    Fut: std::future::Future<Output = T>,
{
    // Ranks travel as `u32` in envelopes and sequence maps.
    assert!(u32::try_from(n).is_ok(), "a world of {n} ranks");
    let timeout = opts.timeout;
    let opts = Arc::new(opts);
    let core = Rc::new(RefCell::new(EventCore::new(n, opts.trace)));

    // All rank tasks are created up front (they hold no resources
    // beyond their state machine until first polled).
    let mut tasks: Vec<Option<Pin<Box<Fut>>>> = Vec::with_capacity(n);
    for rank in 0..n {
        let comm = Comm::new(rank, n, Rc::clone(&core), Arc::clone(&opts));
        tasks.push(Some(Box::pin(f(comm))));
    }

    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut finished = 0usize;
    let mut real_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let start = Instant::now();
    let mut polls_since_guard: u64 = 0;

    'world: loop {
        // Drain the ready queue.
        loop {
            let next = core.borrow_mut().pop_ready();
            let Some(r) = next else { break };
            let Some(fut) = tasks[r].as_mut() else {
                continue; // stale wake of a finished task
            };
            {
                let mut c = core.borrow_mut();
                c.polls += 1;
                c.poll_epoch = Some((r, Instant::now()));
            }
            let polled = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
            {
                let mut c = core.borrow_mut();
                if let Some((_, t0)) = c.poll_epoch.take() {
                    c.busy[r] += t0.elapsed();
                }
            }
            match polled {
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready(v)) => {
                    results[r] = Some(v);
                    tasks[r] = None;
                    finished += 1;
                }
                Err(payload) => {
                    // The task's locals (its Comm included) were
                    // dropped by the unwind; keep the first real
                    // payload and let the rest of the world run.
                    tasks[r] = None;
                    finished += 1;
                    if real_panic.is_none() {
                        real_panic = Some(payload);
                    }
                }
            }
            polls_since_guard += 1;
            if polls_since_guard >= WALL_GUARD_EVERY {
                polls_since_guard = 0;
                if wall_expired(&core, start, timeout, n) {
                    break 'world;
                }
            }
        }
        if finished == n {
            break;
        }
        // Quiescent: advance virtual time.
        if core.borrow_mut().fire_next_timer() {
            if wall_expired(&core, start, timeout, n) {
                break 'world;
            }
            continue;
        }
        // Quiescent with no timers: nothing can ever wake anyone.
        let mut c = core.borrow_mut();
        if c.st.poison.is_some() {
            break;
        }
        let err = match check_deadlock(&c.st) {
            Some(report) => RunError::Deadlock { report },
            // Unreachable by construction (a parked task always
            // registers either a blocked status or a timer), but never
            // hang: report the stall.
            None => RunError::Stalled {
                report: stall_report(&c.st, timeout.unwrap_or(start.elapsed()), n),
            },
        };
        c.poison(err);
        break;
    }

    // Tear down remaining tasks; their Comm drops flush traces and
    // mark the ranks done.
    drop(tasks);

    if let Some(p) = real_panic {
        resume_unwind(p);
    }
    let mut c = core.borrow_mut();
    if let Some(err) = c.st.poison.take() {
        return Err(err);
    }
    let trace =
        c.st.trace_sink
            .take()
            .map(|events| TraceLog::new(n, events));
    let sim = Some(SimStats {
        polls: c.polls,
        messages: c.messages,
        timer_fires: c.timer_fires,
        virtual_time: Duration::from_nanos(c.now_ns),
        peak_resident: n,
        task_bytes: std::mem::size_of::<Fut>(),
        wall: start.elapsed(),
    });
    Ok(RunOutput {
        results: results
            .into_iter()
            .map(|o| o.expect("rank produced no result"))
            .collect(),
        trace,
        sim,
    })
}
