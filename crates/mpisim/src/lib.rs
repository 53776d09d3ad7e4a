//! # pvr-mpisim — a small message-passing runtime
//!
//! The paper's renderer is an MPI program. Rust MPI bindings being
//! immature (and no cluster being available), this crate provides the
//! message-passing substrate the pipeline runs on: `n` simulated ranks,
//! point-to-point send/recv with tag matching, barriers, and the
//! handful of collectives the volume renderer needs. The semantics
//! follow MPI where it matters (non-overtaking delivery per
//! (source, tag) pair, blocking receives, collective completion).
//!
//! Ranks are **resumable tasks on a discrete-event core**: each rank's
//! program is an async function polled by a single-threaded scheduler
//! (`event` module), sends and timers are events on a virtual-time
//! queue, and blocking waits park the task until a message arrives.
//! No OS threads, no wall-clock sleeps — which is what lets one
//! machine run worlds at the paper's 32K-rank scale. Its oracles are a
//! recorded corpus of worlds checked against a thread-per-rank executor
//! (`tests/golden/mpisim_corpus.txt`) and the DPOR explorer (`pvr-mc`).
//!
//! Two layers:
//!
//! * [`World::run`] / [`World::run_opts`] — SPMD entry points: create
//!   one task per rank and hand each a [`Comm`].
//! * [`Comm`] — the per-rank communicator. Communication methods are
//!   `async`; rank programs are written as `|mut comm| async move { … }`.
//!
//! A traced run's [`trace::TraceLog`] is read by [`analysis`]: its span
//! profile (as a `pvr_obs::Profile`), its critical path and its
//! per-link message volume.
//!
//! ## Verification hooks
//!
//! Because this runtime exists to *validate* communication schedules,
//! it is instrumented for the DPOR explorer (`pvr-mc`) and the tests:
//!
//! * **Vector clocks.** Under [`RunOptions::trace`] every rank
//!   maintains a vector clock: sends carry a snapshot, receives and
//!   barriers join it, and the run yields a [`trace::TraceLog`] whose
//!   clocks tell which sends a wildcard (`recv_any`) match could have
//!   consumed instead (the explorer's backtrack points). An
//!   untraced run has no clocks at all — every clock in the world (the
//!   ranks', the envelopes', the barrier's two) is an empty vector that
//!   is never written, cloned or allocated, so a send, a receive and a
//!   barrier cost nothing that grows with the world (an `O(n)` copy per
//!   event would dominate at 32K ranks; `tests/barrier_alloc.rs` pins
//!   the barrier at zero bytes).
//! * **Non-overtaking assertions.** Each message carries a per
//!   (source, destination, tag) sequence number; delivery asserts the
//!   numbers arrive in order, so an overtaking bug in the runtime (or
//!   a future transport swap) fails loudly instead of silently
//!   reordering fragments.
//! * **Deadlock detection.** The scheduler observes every blocked/done
//!   transition. When all tasks are parked or done, no timer is
//!   pending, and no queued message can wake anyone, the run is
//!   declared deadlocked: the wait-for cycle is named in the error
//!   report, instead of the process hanging forever. A wall-clock
//!   guard ([`RunOptions::timeout`], default 120 s, env
//!   `PVR_MPISIM_TIMEOUT_SECS`, `0` disables) additionally converts
//!   runaway runs into [`RunError::Stalled`]. The guard can only free
//!   ranks blocked in communication; a rank spinning in user compute
//!   cannot be preempted (the report is still printed to stderr).
//! * **Match policies.** The wildcard-match order of `recv_any` is
//!   pluggable ([`MatchPolicy`]): deterministic lowest-source-first
//!   (default), arrival order, seeded perturbation (to explore
//!   alternative interleavings), or replay of a recorded order (to
//!   reproduce or deliberately reorder a previous run).
//!
//! ## Virtual time
//!
//! [`Comm::now`] reads the world's virtual clock and [`Comm::sleep`]
//! parks the task until the clock reaches a deadline. Virtual time
//! advances only when every runnable task has parked and the earliest
//! timer fires, so a simulated 5-second fault delay costs zero wall
//! time. Timed receives ([`Comm::recv_any_timeout`]) expire on the
//! virtual clock; [`Comm::time`] folds a task's measured compute time
//! into the virtual timeline for stage attribution.

pub mod analysis;
pub mod trace;

mod event;
mod mailbox;

pub mod fault {
    //! Fault-injection hook for the transport.
    //!
    //! An injector installed via [`crate::RunOptions::with_injector`]
    //! is consulted on **every send** before the
    //! message enters the destination queue. It may pass the message
    //! through, silently drop it, delay it (the sender stalls before
    //! enqueueing, modelling link latency), or mutate the payload in
    //! place. Dropped sends consume no sequence number, so the
    //! non-overtaking order of the messages that *are* delivered is
    //! unchanged — a retransmission protocol layered on top (see
    //! `pvr-faults`) observes exactly the semantics of a lossy link.

    /// What the injector decided for one send.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SendFate {
        /// Deliver unchanged.
        Deliver,
        /// Discard silently; the receiver never sees it.
        Drop,
        /// Stall the sender this long, then deliver. On the event core
        /// the stall is virtual-time only (zero wall cost).
        Delay(std::time::Duration),
        /// The injector mutated the payload; deliver the mutated bytes.
        Corrupt,
    }

    /// Decides the fate of each send. Implementations must be
    /// deterministic functions of their own state and the arguments if
    /// run-to-run reproducibility is wanted (the `pvr-faults` planner
    /// keys decisions off a seed plus the message identity).
    pub trait FaultInjector: Send + Sync {
        /// `seq` is the per-(src, dst, tag) sequence number this send
        /// *would* get if delivered. `data` may be mutated when the
        /// returned fate is [`SendFate::Corrupt`].
        fn on_send(
            &self,
            src: usize,
            dst: usize,
            tag: u32,
            seq: u64,
            data: &mut Vec<u8>,
        ) -> SendFate;
    }
}

use std::cell::RefCell;
use std::collections::HashMap;
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::{Arc, Once};
use std::task::Poll;
use std::time::Duration;

use mailbox::PendingSet;
use trace::{Clock, MarkKind, ReplayLog, TraceEvent, TraceLog};

/// A tagged message envelope: 48 bytes, a world's ranks fit in `u32`
/// (`run_world` asserts it). A traced send's vector clock waits in
/// [`State::send_clocks`] instead, so an untraced envelope carries no
/// clock field at all.
#[derive(Debug)]
pub(crate) struct Envelope {
    src: u32,
    tag: u32,
    /// Per-(src, dst, tag) sequence number, asserted on delivery.
    seq: u64,
    /// Global arrival stamp (order the runtime accepted the send).
    arrival: u64,
    data: Vec<u8>,
}

impl Envelope {
    fn src(&self) -> usize {
        self.src as usize
    }
}

/// What a rank is doing, as seen by the deadlock detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    Running,
    RecvFrom {
        src: usize,
        tag: u32,
        /// Waiting with a deadline: the rank wakes by itself, so a
        /// timed wait never contributes to a deadlock.
        timed: bool,
    },
    RecvAny {
        tag: u32,
        timed: bool,
    },
    /// Waiting at the barrier of generation `gen`.
    Barrier {
        gen: u64,
    },
    Done,
}

/// Why a world failed instead of completing.
#[derive(Debug, Clone)]
pub enum RunError {
    /// All ranks were blocked or done with no message able to wake
    /// anyone; the report names the wait-for cycle.
    Deadlock { report: String },
    /// The watchdog timeout expired before the world completed (a
    /// timer livelock never goes quiescent, so it ends here).
    Stalled { report: String },
}

impl RunError {
    pub fn report(&self) -> &str {
        match self {
            RunError::Deadlock { report } | RunError::Stalled { report } => report,
        }
    }

    pub fn is_deadlock(&self) -> bool {
        matches!(self, RunError::Deadlock { .. })
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { report } => write!(f, "deadlock: {report}"),
            RunError::Stalled { report } => write!(f, "stalled (watchdog timeout): {report}"),
        }
    }
}

impl std::error::Error for RunError {}

/// How `recv_any` chooses among multiple pending candidates.
#[derive(Clone)]
pub enum MatchPolicy {
    /// Deterministic: lowest source rank first (the default; what the
    /// pipeline's correctness is validated against).
    MinSource,
    /// The candidate whose message the runtime accepted first.
    Arrival,
    /// Seeded pseudo-random choice among the pending candidates —
    /// explores alternative wildcard interleavings while staying
    /// reproducible for a given seed.
    Perturb(u64),
    /// Force each wildcard receive to match the source a recorded run
    /// matched (see [`trace::ReplayLog`]). Panics if the log runs out,
    /// i.e. the execution diverged structurally from the recording.
    Replay(Arc<ReplayLog>),
    /// Force a *prefix* of each rank's wildcard receives to match the
    /// log's sources, then fall back to deterministic `MinSource` for
    /// the rest (and for ranks the log does not cover), so a guided run
    /// is a pure function of its log. Under a log that covers every
    /// wildcard it is `Replay` without the exhaustion check. The DPOR
    /// explorer (`pvr-mc`) enumerates interleavings by re-running a
    /// program under systematically varied guided prefixes.
    Guided(Arc<ReplayLog>),
}

/// One resolved wildcard match, reported to the
/// [`RunOptions::on_choice`] callback: which rank's which wildcard
/// receive, the tag, the sources with a matching message pending at
/// match time (`candidates`, ascending, always containing `chosen`),
/// and whether a `Replay`/`Guided` policy forced the choice. The DPOR
/// explorer uses this stream for its branching statistics; anything
/// heavier (happens-before, backtrack sets) is derived from the trace.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    pub rank: usize,
    /// The rank-local wildcard ordinal (same numbering as
    /// [`trace::ReplayLog`]).
    pub index: u64,
    pub tag: u32,
    pub candidates: Vec<usize>,
    pub chosen: usize,
    pub forced: bool,
}

/// Callback invoked on every resolved wildcard receive (see
/// [`ChoicePoint`]). Runs on the receiving rank's task.
pub type ChoiceHook = Arc<dyn Fn(&ChoicePoint) + Send + Sync>;

impl std::fmt::Debug for MatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchPolicy::MinSource => write!(f, "MinSource"),
            MatchPolicy::Arrival => write!(f, "Arrival"),
            MatchPolicy::Perturb(seed) => write!(f, "Perturb({seed})"),
            MatchPolicy::Replay(log) => {
                write!(f, "Replay({} recorded wildcard matches)", log.total_len())
            }
            MatchPolicy::Guided(log) => {
                write!(f, "Guided({} forced wildcard matches)", log.total_len())
            }
        }
    }
}

/// Knobs for [`World::run_opts`]. [`World::run`] uses the default:
/// `MinSource` matching, watchdog timeout from
/// `PVR_MPISIM_TIMEOUT_SECS` (default 120 s, `0` disables), no trace.
#[derive(Clone)]
pub struct RunOptions {
    pub match_policy: MatchPolicy,
    pub timeout: Option<Duration>,
    pub trace: bool,
    /// Invoked on every resolved wildcard receive (any policy); see
    /// [`ChoicePoint`].
    pub on_choice: Option<ChoiceHook>,
    /// Fault injector consulted on every send.
    pub injector: Option<Arc<dyn fault::FaultInjector>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            match_policy: MatchPolicy::MinSource,
            timeout: default_timeout(),
            trace: false,
            on_choice: None,
            injector: None,
        }
    }
}

impl RunOptions {
    pub fn policy(mut self, p: MatchPolicy) -> Self {
        self.match_policy = p;
        self
    }

    /// Install a fault injector.
    pub fn with_injector(mut self, inj: Arc<dyn fault::FaultInjector>) -> Self {
        self.injector = Some(inj);
        self
    }

    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Install a wildcard choice-point callback (see [`ChoicePoint`]).
    pub fn on_choice(mut self, hook: ChoiceHook) -> Self {
        self.on_choice = Some(hook);
        self
    }

    pub fn with_timeout(mut self, t: Option<Duration>) -> Self {
        self.timeout = t;
        self
    }
}

/// The watchdog timeout: `PVR_MPISIM_TIMEOUT_SECS` if set (`0`
/// disables), else 120 s. A value that is not a whole number of seconds
/// also gets 120 s, and one stderr line per process naming it.
pub fn default_timeout() -> Option<Duration> {
    let var = std::env::var("PVR_MPISIM_TIMEOUT_SECS").ok();
    parse_timeout(var.as_deref()).unwrap_or_else(|bad| {
        static WARNED: Once = Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "pvr-mpisim: PVR_MPISIM_TIMEOUT_SECS={bad:?} is not a whole number \
                 of seconds; using 120 s"
            )
        });
        Some(Duration::from_secs(120))
    })
}

/// The watchdog timeout a `PVR_MPISIM_TIMEOUT_SECS` value asks for, or
/// the value back if it is malformed.
fn parse_timeout(var: Option<&str>) -> Result<Option<Duration>, &str> {
    let Some(s) = var else {
        return Ok(Some(Duration::from_secs(120)));
    };
    match s.trim().parse::<u64>() {
        Ok(0) => Ok(None),
        Ok(secs) => Ok(Some(Duration::from_secs(secs))),
        Err(_) => Err(s),
    }
}

/// Scheduler counters of a run (always present in
/// [`RunOutput::sim`]); `bench_sim` turns these into the trajectory
/// point.
#[derive(Debug, Clone, Copy)]
pub struct SimStats {
    /// Task polls performed.
    pub polls: u64,
    /// Messages accepted into destination queues.
    pub messages: u64,
    /// Virtual-time timers fired.
    pub timer_fires: u64,
    /// Final virtual clock value.
    pub virtual_time: Duration,
    /// Peak resident rank tasks (all tasks are created up front).
    pub peak_resident: usize,
    /// Bytes of one rank task: the boxed future each resident rank
    /// holds for the whole run.
    pub task_bytes: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
}

/// A successful world: per-rank results plus the trace, if recorded,
/// plus the scheduler counters.
#[derive(Debug)]
pub struct RunOutput<T> {
    pub results: Vec<T>,
    pub trace: Option<TraceLog>,
    pub sim: Option<SimStats>,
}

/// Global state of a rank group: mailboxes, blocked/done status
/// (the deadlock detector's input), barrier bookkeeping, and the trace
/// sink. The event core owns it single-threaded behind a `RefCell`.
pub(crate) struct State {
    /// Sent-but-unmatched messages, per destination.
    pub(crate) mailboxes: Vec<PendingSet>,
    pub(crate) status: Vec<Status>,
    pub(crate) barrier_gen: u64,
    pub(crate) barrier_count: usize,
    /// Elementwise max of the clocks of ranks arrived at the current
    /// barrier generation: `n` words in a traced run, empty — and never
    /// touched — in an untraced one.
    pub(crate) barrier_clock: Clock,
    /// Merged clock of the last completed barrier generation, which its
    /// participants join on their way out (nobody can complete the next
    /// generation before all of them have). Traced runs only, like
    /// `barrier_clock`; the two buffers swap at each release.
    pub(crate) release_clock: Clock,
    pub(crate) poison: Option<RunError>,
    pub(crate) arrival: u64,
    pub(crate) done_count: usize,
    pub(crate) trace_sink: Option<Vec<TraceEvent>>,
    /// The sender's vector clock of every traced message not yet
    /// delivered, by arrival stamp. Empty in an untraced world.
    pub(crate) send_clocks: HashMap<u64, Clock>,
}

impl State {
    pub(crate) fn new(n: usize, trace: bool) -> State {
        State {
            mailboxes: (0..n).map(|_| PendingSet::default()).collect(),
            status: vec![Status::Running; n],
            barrier_gen: 0,
            barrier_count: 0,
            barrier_clock: new_clock(n, trace),
            release_clock: new_clock(n, trace),
            poison: None,
            arrival: 0,
            done_count: 0,
            trace_sink: if trace { Some(Vec::new()) } else { None },
            send_clocks: HashMap::new(),
        }
    }

    /// A rank whose clock is `clock` arrives at the barrier: returns the
    /// generation it waits for and whether it was the last one in — in
    /// which case the generation has advanced, `release_clock` holds the
    /// merged clock, and the caller wakes everyone.
    pub(crate) fn barrier_arrive(&mut self, clock: &Clock) -> (u64, bool) {
        let gen = self.barrier_gen;
        join_clock(&mut self.barrier_clock, clock);
        self.barrier_count += 1;
        let last = self.barrier_count == self.status.len();
        if last {
            self.barrier_count = 0;
            self.barrier_gen += 1;
            std::mem::swap(&mut self.release_clock, &mut self.barrier_clock);
            self.barrier_clock.fill(0);
        }
        (gen, last)
    }
}

/// A zeroed `n`-rank clock in a traced run; the empty clock otherwise.
fn new_clock(n: usize, trace: bool) -> Clock {
    if trace {
        vec![0; n]
    } else {
        Clock::new()
    }
}

/// Elementwise max of `from` into `into` (a no-op on untraced runs'
/// empty clocks).
pub(crate) fn join_clock(into: &mut Clock, from: &Clock) {
    for (c, s) in into.iter_mut().zip(from) {
        *c = (*c).max(*s);
    }
}

/// Per-rank mutable bookkeeping, interior-mutable because `send` and
/// `barrier` take `&self`.
struct RankLocal {
    /// Empty when the run is untraced (clock upkeep is `O(n)` per
    /// event and only the trace observes it).
    clock: Clock,
    /// Next sequence number per (destination, tag).
    send_seq: SeqMap,
    /// Next expected sequence number per (source, tag).
    expect_seq: SeqMap,
    /// Wildcard receives completed so far (the replay index).
    wildcards: u64,
    trace: Vec<TraceEvent>,
}

/// Sequence counters per `(peer, tag)`: 12-byte entries, a `u32` peer
/// and tag and the stream's next `u32` sequence number (a stream of
/// 2^32 messages panics; the 32K-rank frame sends 360 804 messages in
/// all). A rank sends and receives every message through one of these,
/// so a lookup is a multiply-rotate hash ([`SeqHasher`]), not a SipHash
/// or a tree walk; nothing iterates them, so their order is never
/// observed.
///
/// Measured keys per rank (send / expect map, median and max): 9 and
/// 522 / 10 and 1 033 on the 2048-rank ledger frame, 6 and 2 061 / 4
/// and 2 051 at 32K ranks. The 2048-rank frame sends 39 346 messages;
/// a standalone loop of that many send/expect lookup pairs takes
/// 2.7–6.5 ms longer with std's SipHash (2–5 % of the frame, 2-vCPU
/// x86-64 VM), and 10 alternating ledger pairs put its `frame_s` 9.8 %
/// higher in the median, inside the runs' spread.
type SeqMap = HashMap<(u32, u32), u32, BuildHasherDefault<SeqHasher>>;

/// The next number of a sequence counter, which moves one past it.
fn next_seq(counter: &mut u32) -> u64 {
    let seq = *counter;
    *counter = seq
        .checked_add(1)
        .expect("fewer than 2^32 messages a stream");
    seq.into()
}

/// The hash of [`SeqMap`]'s keys: each `u32` is rotated in and
/// multiplied by an odd constant.
#[derive(Default)]
struct SeqHasher(u64);

impl SeqHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SeqHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

enum Want {
    From(usize),
    Any,
}

/// How long a receive may block.
enum Until {
    /// Forever: classic blocking receive, visible to the deadlock
    /// detector.
    Forever,
    /// Up to this long of virtual time; the wait is invisible to the
    /// deadlock detector (a timer wakes the rank by itself).
    Timeout(Duration),
}

/// The per-rank communicator handle.
pub struct Comm {
    rank: usize,
    size: usize,
    /// The world's event core (`Rc`: the handle never crosses threads).
    core: Rc<RefCell<event::EventCore>>,
    opts: Arc<RunOptions>,
    local: RefCell<RankLocal>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        core: Rc<RefCell<event::EventCore>>,
        opts: Arc<RunOptions>,
    ) -> Comm {
        let clock = new_clock(size, opts.trace);
        Comm {
            rank,
            size,
            core,
            opts,
            local: RefCell::new(RankLocal {
                clock,
                send_seq: SeqMap::default(),
                expect_seq: SeqMap::default(),
                wildcards: 0,
                trace: Vec::new(),
            }),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Buffered send (always completes without waiting for the
    /// receiver; queues are unbounded).
    pub async fn send(&self, to: usize, tag: u32, data: Vec<u8>) {
        assert!(to < self.size, "send to rank {to} of {}", self.size);
        let data = {
            let mut data = data;
            if let Some(inj) = &self.opts.injector {
                // The would-be seq: read without consuming, so a dropped
                // send leaves the delivered stream's numbering intact.
                let would_be_seq = {
                    let local = self.local.borrow();
                    local
                        .send_seq
                        .get(&(to as u32, tag))
                        .copied()
                        .unwrap_or(0)
                        .into()
                };
                let fate = inj.on_send(self.rank, to, tag, would_be_seq, &mut data);
                let kind = match fate {
                    fault::SendFate::Deliver => None,
                    fault::SendFate::Drop => Some(trace::FaultKind::Drop),
                    fault::SendFate::Delay(_) => Some(trace::FaultKind::Delay),
                    fault::SendFate::Corrupt => Some(trace::FaultKind::Corrupt),
                };
                if let Some(kind) = kind {
                    if self.opts.trace {
                        self.local.borrow_mut().trace.push(TraceEvent::Fault {
                            from: self.rank,
                            to,
                            tag,
                            seq: would_be_seq,
                            kind,
                        });
                    }
                }
                match fate {
                    fault::SendFate::Drop => return,
                    // The sender stalls before enqueueing, in virtual
                    // time (zero wall cost).
                    fault::SendFate::Delay(d) => self.sleep(d).await,
                    fault::SendFate::Deliver | fault::SendFate::Corrupt => {}
                }
            }
            data
        };
        let (seq, clock) = {
            let mut local = self.local.borrow_mut();
            let me = self.rank;
            let seq = next_seq(local.send_seq.entry((to as u32, tag)).or_insert(0));
            let clock = self.opts.trace.then(|| {
                local.clock[me] += 1;
                let clock = local.clock.clone();
                local.trace.push(TraceEvent::Send {
                    from: me,
                    to,
                    tag,
                    seq,
                    bytes: data.len() as u64,
                    clock: clock.clone(),
                });
                clock
            });
            (seq, clock)
        };
        let mut c = self.core.borrow_mut();
        c.count_message();
        c.st.arrival += 1;
        let arrival = c.st.arrival;
        if let Some(clock) = clock {
            c.st.send_clocks.insert(arrival, clock);
        }
        c.st.mailboxes[to].push(Envelope {
            src: self.rank as u32,
            tag,
            seq,
            arrival,
            data,
        });
        c.wake(to);
    }

    /// Blocking receive of a message with `tag` from `src`.
    pub async fn recv_from(&mut self, src: usize, tag: u32) -> Vec<u8> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let env = self.wait_match(Want::From(src), tag).await;
        self.deliver(env, None)
    }

    /// Blocking receive of a message with `tag` from any source;
    /// returns `(src, data)`.
    ///
    /// When several sources have a matching message pending, the choice
    /// is governed by the world's [`MatchPolicy`]. The default
    /// (`MinSource`) picks the lowest source rank — deterministic given
    /// the same pending set, and what this workspace's protocols are
    /// validated against. Note this is *not* arrival order; use
    /// `MatchPolicy::Arrival` for that, `Perturb` to explore other
    /// interleavings, or `Replay` to pin the order of a recorded run.
    pub async fn recv_any(&mut self, tag: u32) -> (usize, Vec<u8>) {
        let widx = self.local.borrow().wildcards;
        let forced = match &self.opts.match_policy {
            MatchPolicy::Replay(log) => Some(log.choice(self.rank, widx).unwrap_or_else(|| {
                panic!(
                    "replay log exhausted at rank {} wildcard #{widx}: \
                     execution diverged from the recording",
                    self.rank
                )
            })),
            // A guided log pins only a prefix; past it the policy
            // degrades to the deterministic MinSource choice (handled
            // in `try_take`), so the run is a pure function of the log.
            MatchPolicy::Guided(log) => log.choice(self.rank, widx),
            _ => None,
        };
        if let Some(src) = forced {
            // A log is data (a JSON counterexample, say): a source
            // outside the world would otherwise wait forever and reach
            // the deadlock report as an out-of-range rank.
            assert!(
                src < self.size,
                "rank {} wildcard #{widx}: the log forces source {src}, \
                 outside the {}-rank world",
                self.rank,
                self.size
            );
        }
        let want = forced.map_or(Want::Any, Want::From);
        let env = self.wait_match(want, tag).await;
        // Contract: the wildcard index advances only once a match is
        // in hand (see `recv_any_timeout`), and exactly once per
        // wildcard receive, so replay logs and guided schedules index
        // the same receives on every run.
        self.local.borrow_mut().wildcards = widx + 1;
        self.report_choice(widx, tag, &env, forced.is_some());
        let src = env.src();
        let data = self.deliver(env, Some(widx));
        (src, data)
    }

    /// Invoke the choice-point hook for a resolved wildcard match.
    /// `env` has already been taken from the mailbox, so the candidate
    /// set is the still-pending matching sources plus the chosen one.
    fn report_choice(&self, widx: u64, tag: u32, env: &Envelope, forced: bool) {
        let Some(hook) = &self.opts.on_choice else {
            return;
        };
        let mut candidates: Vec<usize> = {
            let core = self.core.borrow();
            core.st.mailboxes[self.rank].sources(tag).collect()
        };
        candidates.push(env.src());
        candidates.sort_unstable();
        candidates.dedup();
        hook(&ChoicePoint {
            rank: self.rank,
            index: widx,
            tag,
            candidates,
            chosen: env.src(),
            forced,
        });
    }

    /// Receive with `tag` from any source, giving up after `timeout`.
    /// Returns `None` on expiry. The wait is invisible to the deadlock
    /// detector — the rank wakes by itself — so a lost message becomes a
    /// timeout at the caller instead of a detector report. The wildcard
    /// replay index only advances on success.
    pub async fn recv_any_timeout(
        &mut self,
        tag: u32,
        timeout: Duration,
    ) -> Option<(usize, Vec<u8>)> {
        // Contract (audited against `Replay`): the wildcard index is
        // read and advanced only *after* `wait_match_until` has
        // produced an envelope — the `?` above it returns first on
        // expiry — so a timed-out receive consumes no wildcard
        // ordinal. A replay log recorded from a run where this receive
        // matched therefore stays aligned: the next successful
        // wildcard (timed or not) gets the ordinal the recording gave
        // it, rather than one shifted past the end of the log (the
        // "replay log exhausted at rank R wildcard #N" panic).
        let env = self
            .wait_match_until(Want::Any, tag, Until::Timeout(timeout))
            .await?;
        let widx = self.local.borrow().wildcards;
        self.local.borrow_mut().wildcards = widx + 1;
        self.report_choice(widx, tag, &env, false);
        let src = env.src();
        let data = self.deliver(env, Some(widx));
        Some((src, data))
    }

    /// Non-blocking poll: take a pending message with `tag` from any
    /// source, or return `None` immediately.
    pub fn try_recv_any(&mut self, tag: u32) -> Option<(usize, Vec<u8>)> {
        // Same index contract as `recv_any_timeout`: an empty poll
        // consumes no wildcard ordinal.
        let env = self.try_take(&mut self.core.borrow_mut().st, &Want::Any, tag)?;
        let widx = self.local.borrow().wildcards;
        self.local.borrow_mut().wildcards = widx + 1;
        self.report_choice(widx, tag, &env, false);
        let src = env.src();
        let data = self.deliver(env, Some(widx));
        Some((src, data))
    }

    /// Park until a message matching `want`/`tag` is available, then
    /// take it. Registers the blocked status so the deadlock detector
    /// can see it.
    async fn wait_match(&mut self, want: Want, tag: u32) -> Envelope {
        self.wait_match_until(want, tag, Until::Forever)
            .await
            .expect("Until::Forever waits until a match")
    }

    /// The general wait, forever or until a deadline: a future that
    /// re-checks the mailbox on every wake (message arrival, barrier
    /// release, timer) and parks with its blocked status registered for
    /// the quiescence check. Returns `None` only for the timed variant.
    async fn wait_match_until(&mut self, want: Want, tag: u32, until: Until) -> Option<Envelope> {
        let me = self.rank;
        let core = Rc::clone(&self.core);
        let deadline = match until {
            Until::Forever => None,
            Until::Timeout(d) => Some(
                core.borrow()
                    .now_ns
                    .saturating_add(d.as_nanos().min(u64::MAX as u128) as u64),
            ),
        };
        let timed = deadline.is_some();
        let mut timer_set = false;
        let comm = self;
        std::future::poll_fn(move |_cx| {
            let mut c = core.borrow_mut();
            if let Some(env) = comm.try_take(&mut c.st, &want, tag) {
                c.st.status[me] = Status::Running;
                return Poll::Ready(Some(env));
            }
            if let Some(d) = deadline {
                if c.now_ns >= d {
                    c.st.status[me] = Status::Running;
                    return Poll::Ready(None);
                }
                if !timer_set {
                    c.add_timer(d, me);
                    timer_set = true;
                }
            }
            c.st.status[me] = match want {
                Want::From(src) => Status::RecvFrom { src, tag, timed },
                Want::Any => Status::RecvAny { tag, timed },
            };
            Poll::Pending
        })
        .await
    }

    /// Take a matching envelope from my mailbox in `st`, honouring the
    /// match policy for wildcard receives.
    fn try_take(&self, st: &mut State, want: &Want, tag: u32) -> Option<Envelope> {
        let pending = &mut st.mailboxes[self.rank];
        match want {
            Want::From(src) => pending.pop(*src, tag),
            Want::Any => {
                let src = match &self.opts.match_policy {
                    // Blocking recv_any resolves Replay to Want::From
                    // before waiting (and Guided likewise, inside its
                    // forced prefix); the timed/poll receives do not
                    // consult the replay log (a run under recovery makes
                    // data-dependent receive counts, so a recorded order
                    // cannot be replayed against them) and fall back to
                    // the deterministic min-source choice. A Guided
                    // wildcard past its forced prefix lands here too:
                    // min-source keeps the continuation deterministic.
                    MatchPolicy::MinSource | MatchPolicy::Replay(_) | MatchPolicy::Guided(_) => {
                        pending.first_src(tag)?
                    }
                    MatchPolicy::Arrival => pending.fronts(tag).min_by_key(|e| e.arrival)?.src(),
                    MatchPolicy::Perturb(seed) => {
                        let candidates: Vec<usize> = pending.sources(tag).collect();
                        if candidates.is_empty() {
                            return None;
                        }
                        let widx = self.local.borrow().wildcards;
                        let h = splitmix64(
                            seed ^ (self.rank as u64).wrapping_mul(0x9e37_79b9)
                                ^ widx.wrapping_mul(0x85eb_ca6b),
                        );
                        candidates[(h % candidates.len() as u64) as usize]
                    }
                };
                pending.pop(src, tag)
            }
        }
    }

    /// Account a matched envelope: assert non-overtaking order, join
    /// vector clocks, record the trace event. Returns the payload.
    fn deliver(&mut self, env: Envelope, wildcard: Option<u64>) -> Vec<u8> {
        let me = self.rank;
        let mut local = self.local.borrow_mut();
        let expect = local.expect_seq.entry((env.src, env.tag)).or_insert(0);
        assert_eq!(
            env.seq,
            u64::from(*expect),
            "non-overtaking violated: rank {me} matched seq {} from (src {}, tag {}) \
             but expected seq {expect}",
            env.seq,
            env.src,
            env.tag
        );
        next_seq(expect);
        if self.opts.trace {
            let send_clock = (self.core.borrow_mut().st.send_clocks)
                .remove(&env.arrival)
                .expect("a traced send files its clock");
            join_clock(&mut local.clock, &send_clock);
            local.clock[me] += 1;
            let recv_clock = local.clock.clone();
            local.trace.push(TraceEvent::Recv {
                rank: me,
                src: env.src(),
                tag: env.tag,
                seq: env.seq,
                bytes: env.data.len() as u64,
                wildcard,
                send_clock,
                recv_clock,
            });
        }
        env.data
    }

    /// Synchronize all ranks. In a traced run also a vector-clock join
    /// point: every participant leaves with the elementwise max of all
    /// clocks. An untraced barrier touches no clock and no heap.
    pub async fn barrier(&self) {
        let me = self.rank;
        if self.opts.trace {
            self.local.borrow_mut().clock[me] += 1;
        }
        // The last arriver advances the generation and wakes everyone;
        // earlier arrivers park until the generation moves. Everyone
        // joins the release clock on the way out.
        let core = &self.core;
        let (gen, last) = {
            let mut c = core.borrow_mut();
            let (gen, last) = c.st.barrier_arrive(&self.local.borrow().clock);
            if last {
                for r in (0..self.size).filter(|&r| r != me) {
                    c.wake(r);
                }
            } else {
                c.st.status[me] = Status::Barrier { gen };
            }
            (gen, last)
        };
        if !last {
            std::future::poll_fn(|_cx| {
                let mut c = core.borrow_mut();
                if c.st.barrier_gen > gen {
                    c.st.status[me] = Status::Running;
                    Poll::Ready(())
                } else {
                    c.st.status[me] = Status::Barrier { gen };
                    Poll::Pending
                }
            })
            .await;
        }
        join_clock(
            &mut self.local.borrow_mut().clock,
            &core.borrow().st.release_clock,
        );
        if self.opts.trace {
            self.local.borrow_mut().trace.push(TraceEvent::Barrier {
                rank: me,
                generation: gen,
            });
        }
    }

    /// Gather byte buffers from all ranks to `root`; returns `Some(all)`
    /// at the root (indexed by rank), `None` elsewhere.
    pub async fn gather(&mut self, root: usize, data: Vec<u8>, tag: u32) -> Option<Vec<Vec<u8>>> {
        if self.rank == root {
            let mut all: Vec<Vec<u8>> = vec![Vec::new(); self.size];
            all[root] = data;
            for _ in 0..self.size - 1 {
                let (src, d) = self.recv_any(tag).await;
                all[src] = d;
            }
            Some(all)
        } else {
            self.send(root, tag, data).await;
            None
        }
    }

    /// Broadcast from `root` (tree-less reference implementation).
    pub async fn bcast(&mut self, root: usize, data: Vec<u8>, tag: u32) -> Vec<u8> {
        if self.rank == root {
            for r in 0..self.size {
                if r != root {
                    self.send(r, tag, data.clone()).await;
                }
            }
            data
        } else {
            self.recv_from(root, tag).await
        }
    }

    // ---- virtual time ----

    /// Elapsed virtual time since the world started.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.core.borrow().now_ns)
    }

    /// Park this rank for `d` of virtual time: a timer, zero wall cost.
    pub async fn sleep(&self, d: Duration) {
        let me = self.rank;
        let deadline = self
            .core
            .borrow()
            .now_ns
            .saturating_add(d.as_nanos().min(u64::MAX as u128) as u64);
        let mut timer_set = false;
        std::future::poll_fn(move |_cx| {
            let mut c = self.core.borrow_mut();
            if c.now_ns >= deadline {
                return Poll::Ready(());
            }
            if !timer_set {
                c.add_timer(deadline, me);
                timer_set = true;
            }
            Poll::Pending
        })
        .await
    }

    /// A per-rank timestamp (seconds) for stage attribution: this
    /// rank's accumulated compute (poll) time plus the virtual clock.
    /// Differences of `time()` bracket both real compute and simulated
    /// waits.
    pub fn time(&self) -> f64 {
        let c = self.core.borrow();
        let mut busy = c.busy[self.rank];
        if let Some((r, t0)) = c.poll_epoch {
            if r == self.rank {
                busy += t0.elapsed();
            }
        }
        (busy + Duration::from_nanos(c.now_ns)).as_secs_f64()
    }

    // ---- span marks (observability) ----
    //
    // The layers above annotate the trace with what the communication
    // was *for*: pipeline stages, per-access I/O windows, compositing
    // rounds, link-layer retransmits. Marks only exist in traced runs;
    // with tracing off every method below returns immediately without
    // touching the heap, so instrumented code costs nothing in
    // production runs (asserted by `pvr-obs`' no-op tests).

    /// Record a span mark. Bumps the rank's clock component so the mark
    /// gets a unique, strictly increasing logical timestamp.
    fn mark(&self, label: &'static str, kind: MarkKind, value: u64) {
        if !self.opts.trace {
            return;
        }
        let me = self.rank;
        let mut local = self.local.borrow_mut();
        local.clock[me] += 1;
        let clock = local.clock.clone();
        local.trace.push(TraceEvent::Mark {
            rank: me,
            label,
            kind,
            value,
            clock,
        });
    }

    /// Open a span named `label` on this rank's timeline (traced runs
    /// only; free otherwise).
    pub fn span_begin(&self, label: &'static str) {
        self.mark(label, MarkKind::Begin, 0);
    }

    /// Open a span carrying an attribute value (bytes, block id, …).
    pub fn span_begin_v(&self, label: &'static str, value: u64) {
        self.mark(label, MarkKind::Begin, value);
    }

    /// Close the innermost open span named `label`.
    pub fn span_end(&self, label: &'static str) {
        self.mark(label, MarkKind::End, 0);
    }

    /// Record a zero-duration marker (fault, retransmit, recovery
    /// step).
    pub fn mark_instant(&self, label: &'static str, value: u64) {
        self.mark(label, MarkKind::Instant, value);
    }

    /// Whether this world is recording a trace (spans included).
    pub fn tracing(&self) -> bool {
        self.opts.trace
    }
}

impl Drop for Comm {
    /// Marks the rank done (also when unwinding from a panic) and
    /// flushes its trace. The core's quiescence check observes the Done
    /// status: a rank exiting while peers still wait on it is a
    /// deadlock.
    fn drop(&mut self) {
        let mut c = self.core.borrow_mut();
        c.st.status[self.rank] = Status::Done;
        c.st.done_count += 1;
        if let Some(sink) = c.st.trace_sink.as_mut() {
            sink.append(&mut self.local.borrow_mut().trace);
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Quiescence check: a deadlock holds iff every rank is blocked or
/// done, at least one is blocked, no blocked receiver has an
/// undelivered message, no waiter is timed (it wakes by itself), and
/// no barrier waiter's generation has already been released. Returns
/// the report naming the wait-for cycle (or, when the graph is acyclic
/// — e.g. waiting on a rank that already exited — a per-rank wait
/// listing). Run by the event core when the ready queue and timer
/// heap drain.
pub(crate) fn check_deadlock(st: &State) -> Option<String> {
    let n = st.status.len();
    let mut blocked = 0usize;
    for r in 0..n {
        match st.status[r] {
            Status::Running => return None,
            Status::RecvFrom { timed, tag, .. } | Status::RecvAny { timed, tag } => {
                if timed {
                    return None; // a timed wait wakes by itself
                }
                let mailbox = &st.mailboxes[r];
                if match st.status[r] {
                    Status::RecvFrom { src, .. } => mailbox.has(src, tag),
                    _ => mailbox.first_src(tag).is_some(),
                } {
                    return None; // a matching message will wake r
                }
                blocked += 1;
            }
            Status::Barrier { gen } => {
                if gen < st.barrier_gen {
                    return None; // released, just not woken yet
                }
                blocked += 1;
            }
            Status::Done => {}
        }
    }
    if blocked == 0 {
        return None;
    }

    // Wait-for edges, for the report.
    let waits_on = |r: usize| -> Vec<usize> {
        match st.status[r] {
            Status::RecvFrom { src, .. } => vec![src],
            Status::RecvAny { .. } => (0..n)
                .filter(|&x| x != r && st.status[x] != Status::Done)
                .collect(),
            Status::Barrier { .. } => (0..n)
                .filter(|&x| x != r && !matches!(st.status[x], Status::Barrier { .. }))
                .collect(),
            Status::Running | Status::Done => Vec::new(),
        }
    };
    let describe = |r: usize| -> String {
        match st.status[r] {
            Status::RecvFrom { src, tag, .. } => {
                format!("rank {r} (recv_from src={src} tag={tag})")
            }
            Status::RecvAny { tag, .. } => format!("rank {r} (recv_any tag={tag})"),
            Status::Barrier { .. } => format!("rank {r} (barrier)"),
            Status::Done => format!("rank {r} (done)"),
            Status::Running => format!("rank {r} (running)"),
        }
    };

    // Find a cycle by following first-choice edges from each blocked
    // rank; with every rank blocked or done this either hits a cycle or
    // dead-ends at a Done rank.
    let mut cycle_text = None;
    'outer: for start in 0..n {
        if matches!(st.status[start], Status::Done | Status::Running) {
            continue;
        }
        let mut path = vec![start];
        let mut seen = vec![false; n];
        seen[start] = true;
        let mut cur = start;
        loop {
            let nexts = waits_on(cur);
            let Some(&next) = nexts.first() else {
                continue 'outer;
            };
            if seen[next] {
                let from = path.iter().position(|&x| x == next).unwrap();
                let mut text: Vec<String> = path[from..].iter().map(|&r| describe(r)).collect();
                text.push(format!("rank {next}"));
                cycle_text = Some(format!("cycle: {}", text.join(" -> ")));
                break 'outer;
            }
            seen[next] = true;
            path.push(next);
            cur = next;
        }
    }

    let mut lines = vec![format!(
        "all {n} ranks blocked or done ({blocked} blocked), no message in flight"
    )];
    if let Some(c) = cycle_text {
        lines.push(c);
    }
    for r in 0..n {
        if st.status[r] != Status::Running {
            let targets = waits_on(r);
            if targets.is_empty() {
                lines.push(format!("  {}", describe(r)));
            } else if targets.len() <= 4 {
                lines.push(format!(
                    "  {} waits on {}",
                    describe(r),
                    targets
                        .iter()
                        .map(|t| format!("rank {t}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            } else {
                lines.push(format!(
                    "  {} waits on {} ranks",
                    describe(r),
                    targets.len()
                ));
            }
        }
    }
    Some(lines.join("\n"))
}

/// The stall report of the event core's wall guard, and of a quiescent
/// world that is not a deadlock.
pub(crate) fn stall_report(st: &State, timeout: Duration, n: usize) -> String {
    let blocked: Vec<String> = (0..n)
        .filter(|&r| st.status[r] != Status::Running)
        .map(|r| format!("rank {r}: {:?}", st.status[r]))
        .collect();
    format!(
        "world not finished after {timeout:?}; {} of {n} ranks done; {}",
        st.done_count,
        if blocked.is_empty() {
            "all ranks in user compute".to_string()
        } else {
            blocked.join("; ")
        }
    )
}

/// The SPMD runner.
pub struct World;

impl World {
    /// Run `f` on `n` ranks; returns each rank's result in rank order.
    /// Rank programs are async: `World::run(8, |mut comm| async move
    /// { … })`. Panics in any rank propagate; deadlocks and watchdog
    /// stalls panic with the diagnostic report (use [`World::run_opts`]
    /// to get them as `Err` values instead).
    pub fn run<T, F, Fut>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> Fut + Send + Sync,
        Fut: Future<Output = T>,
    {
        match Self::run_opts(n, RunOptions::default(), f) {
            Ok(out) => out.results,
            Err(e) => panic!("mpisim world failed: {e}"),
        }
    }

    /// Run `f` on `n` ranks with explicit [`RunOptions`]; returns the
    /// per-rank results (and the trace, if recording) or the
    /// [`RunError`] that poisoned the world.
    pub fn run_opts<T, F, Fut>(n: usize, opts: RunOptions, f: F) -> Result<RunOutput<T>, RunError>
    where
        T: Send,
        F: Fn(Comm) -> Fut + Send + Sync,
        Fut: Future<Output = T>,
    {
        assert!(n >= 1);
        event::run_world(n, opts, &f)
    }
}

#[cfg(test)]
mod tests;
