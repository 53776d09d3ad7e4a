//! The original thread-backed executor (feature `thread-exec`): one OS
//! thread per rank, blocking waits on condvars inside one global lock,
//! and a wall-clock watchdog. Kept as the differential oracle for the
//! discrete-event core — the property tests run the same program on
//! both backends and require vector-clock-equivalent traces — and for
//! wall-time comparison benchmarks (`bench_sim`). Select it with
//! [`RunOptions::backend`]`(Backend::Thread)`.
//!
//! Rank programs are still async (the public `Comm` API is shared with
//! the event core), but every `Comm` future on this backend blocks
//! internally and completes on its first poll, so each rank thread
//! drives its future with a single-poll `block_on`.

use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::trace::TraceLog;
use crate::{
    check_deadlock, stall_report, Comm, Envelope, RunError, RunOptions, RunOutput, Status, Until,
    Want, WorldLink,
};

/// Unwind payload used when a rank is torn down by poison (deadlock or
/// watchdog). Not a real panic: the runner translates it into the
/// poisoning `RunError` and `resume_unwind` skips the panic hook, so
/// teardown is quiet.
pub(crate) struct PoisonUnwind;

pub(crate) struct Shared {
    pub(crate) state: Mutex<crate::State>,
    /// One condvar per rank: notified on message arrival for that rank,
    /// barrier release, and poison.
    rank_cv: Vec<Condvar>,
    /// Notified when the world completes or is poisoned (wakes the
    /// watchdog).
    monitor_cv: Condvar,
    /// World start, for `Comm::now` / `Comm::time` (wall clock on this
    /// backend).
    pub(crate) start: Instant,
}

impl Shared {
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, crate::State> {
        // A rank panicking in user code poisons the mutex; the runtime
        // state is still consistent (we never unwind while mutating it).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn notify_everyone(&self) {
        for cv in &self.rank_cv {
            cv.notify_all();
        }
        self.monitor_cv.notify_all();
    }
}

fn poison_with(shared: &Shared, st: &mut crate::State, err: RunError) {
    eprintln!("pvr-mpisim: {err}");
    st.poison = Some(err);
    shared.notify_everyone();
}

/// Watchdog: poisons the world with [`RunError::Stalled`] if it is
/// still unfinished (and not already poisoned) at the deadline.
fn watchdog(shared: &Shared, n: usize, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    let mut st = shared.lock_state();
    loop {
        if st.done_count == n || st.poison.is_some() {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            let report = stall_report(&st, timeout, n);
            poison_with(shared, &mut st, RunError::Stalled { report });
            return;
        }
        let (g, _) = shared
            .monitor_cv
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        st = g;
    }
}

/// Drive a rank's future to completion. On this backend every await
/// point blocks inside its first poll, so one poll suffices.
fn block_on<T>(fut: impl std::future::Future<Output = T>) -> T {
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::noop();
    let mut cx = Context::from_waker(waker);
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "rank future parked on the thread backend: only Comm futures \
             (which block internally) may be awaited here"
        ),
    }
}

pub(crate) fn run_world<T, F, Fut>(
    n: usize,
    opts: RunOptions,
    f: &F,
) -> Result<RunOutput<T>, RunError>
where
    T: Send,
    F: Fn(Comm) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = T>,
{
    let shared = Arc::new(Shared {
        state: Mutex::new(crate::State::new(n, opts.trace)),
        rank_cv: (0..n).map(|_| Condvar::new()).collect(),
        monitor_cv: Condvar::new(),
        start: Instant::now(),
    });
    let opts = Arc::new(opts);

    let mut joins: Vec<std::thread::Result<T>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                let opts = Arc::clone(&opts);
                let f = &f;
                scope.spawn(move || {
                    let comm = Comm::new(rank, n, WorldLink::Thread(shared), opts);
                    block_on(f(comm))
                })
            })
            .collect();
        if let Some(t) = opts.timeout {
            let shared = Arc::clone(&shared);
            scope.spawn(move || watchdog(&shared, n, t));
        }
        for h in handles {
            joins.push(h.join());
        }
    });

    let mut results = Vec::with_capacity(n);
    let mut real_panic = None;
    for j in joins {
        match j {
            Ok(t) => results.push(Some(t)),
            Err(payload) => {
                if payload.downcast_ref::<PoisonUnwind>().is_none() && real_panic.is_none() {
                    real_panic = Some(payload);
                }
                results.push(None);
            }
        }
    }
    if let Some(p) = real_panic {
        resume_unwind(p);
    }
    let mut st = shared.lock_state();
    if let Some(err) = st.poison.take() {
        return Err(err);
    }
    let trace = st.trace_sink.take().map(|events| TraceLog::new(n, events));
    Ok(RunOutput {
        results: results
            .into_iter()
            .map(|o| o.expect("rank produced no result"))
            .collect(),
        trace,
        sim: None,
    })
}

/// The blocking (condvar) implementations of the `Comm` wait
/// primitives. Each is called from the async facade in `lib.rs` and
/// returns synchronously, so the enclosing future never parks.
impl Comm {
    fn poison_unwind(&self) -> ! {
        resume_unwind(Box::new(PoisonUnwind))
    }

    /// Accept a send into the destination queue and wake the receiver.
    pub(crate) fn thread_enqueue(&self, shared: &Arc<Shared>, to: usize, env_of: EnvelopeParts) {
        let mut st = shared.lock_state();
        if st.poison.is_some() {
            drop(st);
            self.poison_unwind();
        }
        st.arrival += 1;
        let arrival = st.arrival;
        let (tag, seq, clock, data) = env_of;
        st.queues[to].push_back(Envelope {
            src: self.rank(),
            tag,
            seq,
            arrival,
            clock,
            data,
        });
        drop(st);
        shared.rank_cv[to].notify_all();
    }

    /// Non-blocking drain of this rank's arrival queue into `pending`.
    pub(crate) fn thread_drain(&mut self, shared: &Arc<Shared>) {
        let me = self.rank();
        let mut st = shared.lock_state();
        if st.poison.is_some() {
            drop(st);
            self.poison_unwind();
        }
        while let Some(env) = st.queues[me].pop_front() {
            self.pending_push(env);
        }
    }

    /// The general blocking wait: forever or until a deadline. Returns
    /// `None` only on expiry. Registers the blocked status so the
    /// deadlock detector can see it, and re-checks poison on every
    /// wakeup.
    pub(crate) fn thread_wait_match(
        &mut self,
        shared: &Arc<Shared>,
        want: Want,
        tag: u32,
        until: Until,
    ) -> Option<Envelope> {
        let me = self.rank();
        let deadline = match until {
            Until::Forever => None,
            Until::Timeout(d) => Some(Instant::now() + d),
        };
        let shared = Arc::clone(shared);
        let mut st = shared.lock_state();
        loop {
            if st.poison.is_some() {
                drop(st);
                self.poison_unwind();
            }
            while let Some(env) = st.queues[me].pop_front() {
                self.pending_push(env);
            }
            if let Some(env) = self.try_take(&want, tag) {
                return Some(env);
            }
            let wait_for = match deadline {
                None => None,
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    Some(deadline - now)
                }
            };
            let timed = wait_for.is_some();
            st.status[me] = match want {
                Want::From(src) => Status::RecvFrom { src, tag, timed },
                Want::Any => Status::RecvAny { tag, timed },
            };
            // A timed wait wakes by itself, so it must neither trigger
            // the detector here nor count as quiescent when another
            // rank's check scans the status table (check_deadlock skips
            // worlds with any timed waiter).
            if !timed && self.opts().deadlock_detection {
                if let Some(report) = check_deadlock(&st) {
                    poison_with(&shared, &mut st, RunError::Deadlock { report });
                    drop(st);
                    self.poison_unwind();
                }
            }
            st = match wait_for {
                None => shared.rank_cv[me]
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    shared.rank_cv[me]
                        .wait_timeout(st, d)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            st.status[me] = Status::Running;
        }
    }

    /// Blocking barrier body; joins the merged release clock into this
    /// rank's and returns the crossed generation.
    pub(crate) fn thread_barrier(&self, shared: &Arc<Shared>) -> u64 {
        let me = self.rank();
        let mut st = shared.lock_state();
        if st.poison.is_some() {
            drop(st);
            self.poison_unwind();
        }
        let (gen, last) = st.barrier_arrive(&self.local_ref().clock);
        if last {
            for cv in &shared.rank_cv {
                cv.notify_all();
            }
        } else {
            st.status[me] = Status::Barrier { gen };
            if self.opts().deadlock_detection {
                if let Some(report) = check_deadlock(&st) {
                    poison_with(shared, &mut st, RunError::Deadlock { report });
                    drop(st);
                    self.poison_unwind();
                }
            }
            while st.barrier_gen == gen && st.poison.is_none() {
                st = shared.rank_cv[me]
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.status[me] = Status::Running;
            if st.poison.is_some() {
                drop(st);
                self.poison_unwind();
            }
        }
        crate::join_clock(&mut self.local_mut().clock, &st.release_clock);
        gen
    }

    /// Drop-time bookkeeping: mark the rank done, flush its trace, and
    /// re-run the deadlock check — a rank exiting while peers still
    /// wait on it is itself a deadlock.
    pub(crate) fn thread_drop(&mut self, shared: &Arc<Shared>) {
        let me = self.rank();
        let size = self.size();
        let mut st = shared.lock_state();
        st.status[me] = Status::Done;
        st.done_count += 1;
        if st.trace_sink.is_some() {
            let mut local = self.local_mut();
            if let Some(sink) = st.trace_sink.as_mut() {
                sink.append(&mut local.trace);
            }
        }
        if st.done_count == size {
            shared.monitor_cv.notify_all();
        } else if self.opts().deadlock_detection && st.poison.is_none() {
            if let Some(report) = check_deadlock(&st) {
                // Never unwind out of drop; just poison and wake peers.
                poison_with(shared, &mut st, RunError::Deadlock { report });
            }
        }
    }
}

/// `(tag, seq, clock, data)` of a send being enqueued.
pub(crate) type EnvelopeParts = (u32, u64, crate::trace::Clock, Vec<u8>);
