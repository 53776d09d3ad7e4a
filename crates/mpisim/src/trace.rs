//! Execution traces for the message-passing runtime.
//!
//! When [`RunOptions::trace`](crate::RunOptions) is set, every rank
//! records a vector-clocked event log: sends, receives (with the clock
//! the matched message carried, and — for wildcard receives — the
//! per-rank wildcard index), barrier crossings, and application
//! [`Mark`](TraceEvent::Mark)s (span begin/end and instant markers the
//! layers above emit via [`Comm::span_begin`](crate::Comm::span_begin)
//! and friends). The logs are flushed into a single [`TraceLog`] when
//! the world finishes.
//!
//! Three consumers exist:
//!
//! * `pvr-mc`'s DPOR explorer, which uses the vector clocks to find the
//!   sends a wildcard receive could have matched instead.
//! * [`ReplayLog`], which extracts the wildcard-match order so a run
//!   can be replayed deterministically (or deliberately perturbed, at
//!   a pair [`swappable_wildcards`] finds) via
//!   [`MatchPolicy::Replay`](crate::MatchPolicy).
//! * `pvr-obs`, which converts marks into a per-rank span timeline
//!   (using the clock-component sum as a deterministic logical
//!   timestamp) and aggregates the per-message byte counts into its
//!   link-volume matrix.

use std::sync::OnceLock;

/// A vector clock: one logical-time component per rank.
pub type Clock = Vec<u64>;

/// `a ≤ b` in vector-clock (happens-before) order.
pub fn clock_leq(a: &Clock, b: &Clock) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Neither `a ≤ b` nor `b ≤ a`: the events are concurrent.
pub fn clock_concurrent(a: &Clock, b: &Clock) -> bool {
    !clock_leq(a, b) && !clock_leq(b, a)
}

/// The component sum of a clock: a Lamport-style scalar timestamp.
/// Strictly increasing along each rank's program order (every event
/// bumps the rank's own component) and along every happens-before
/// edge, so sorting events by it is a topological order of the trace.
pub fn clock_sum(c: &Clock) -> u64 {
    c.iter().sum()
}

/// What a fault injector did to a send (see
/// [`crate::fault::FaultInjector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was silently discarded.
    Drop,
    /// Delivery was delayed (the sender stalled before enqueueing).
    Delay,
    /// The payload was mutated before delivery.
    Corrupt,
}

/// The role of a [`TraceEvent::Mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// Opens a span on the rank's timeline.
    Begin,
    /// Closes the innermost open span with the same label.
    End,
    /// A zero-duration marker (retransmit, timeout, recovery step).
    Instant,
}

/// One event in a rank's execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    Send {
        from: usize,
        to: usize,
        tag: u32,
        /// Per-(from, to, tag) sequence number (non-overtaking index).
        seq: u64,
        /// Payload size.
        bytes: u64,
        /// Sender's vector clock at the send.
        clock: Clock,
    },
    Recv {
        rank: usize,
        src: usize,
        tag: u32,
        seq: u64,
        /// Payload size.
        bytes: u64,
        /// `Some(i)` if this was the rank's `i`-th wildcard
        /// (`recv_any`) match; `None` for `recv_from`.
        wildcard: Option<u64>,
        /// Vector clock the matched message carried.
        send_clock: Clock,
        /// Receiver's vector clock after the join.
        recv_clock: Clock,
    },
    Barrier {
        rank: usize,
        /// Barrier generation the rank crossed.
        generation: u64,
    },
    /// An injected fault at a send (recorded by the sender). For a
    /// dropped send no matching `Send`/`Recv` event exists; for delayed
    /// or corrupted sends the `Send` event follows as usual.
    Fault {
        from: usize,
        to: usize,
        tag: u32,
        /// The (would-be) per-(from, to, tag) sequence number.
        seq: u64,
        kind: FaultKind,
    },
    /// An application-level span marker (see
    /// [`Comm::span_begin`](crate::Comm::span_begin)): the pipeline
    /// stages annotate the trace with what the communication was *for*.
    Mark {
        rank: usize,
        label: &'static str,
        kind: MarkKind,
        /// Free-form attribute (bytes, block id, round number, …).
        value: u64,
        /// The rank's vector clock at the mark.
        clock: Clock,
    },
}

impl TraceEvent {
    /// The rank whose program recorded this event (sender for sends
    /// and faults, receiver for receives).
    pub fn owner(&self) -> usize {
        match self {
            TraceEvent::Send { from, .. } | TraceEvent::Fault { from, .. } => *from,
            TraceEvent::Recv { rank, .. }
            | TraceEvent::Barrier { rank, .. }
            | TraceEvent::Mark { rank, .. } => *rank,
        }
    }

    /// The event's logical timestamp ([`clock_sum`] of the clock it
    /// carries), if it carries one. Barriers and faults record no
    /// clock.
    pub fn logical_ts(&self) -> Option<u64> {
        match self {
            TraceEvent::Send { clock, .. } | TraceEvent::Mark { clock, .. } => {
                Some(clock_sum(clock))
            }
            TraceEvent::Recv { recv_clock, .. } => Some(clock_sum(recv_clock)),
            TraceEvent::Barrier { .. } | TraceEvent::Fault { .. } => None,
        }
    }
}

/// Per-rank lookup tables over a [`TraceLog`], built once on first use.
#[derive(Debug, Default)]
struct TraceIndex {
    /// Per rank: indices of its `Recv` events, in program order.
    recvs: Vec<Vec<usize>>,
    /// Per rank: indices of all its events, in program order.
    by_rank: Vec<Vec<usize>>,
    fault_count: usize,
    wildcard_count: usize,
}

impl TraceIndex {
    fn build(n: usize, events: &[TraceEvent]) -> TraceIndex {
        let mut ix = TraceIndex {
            recvs: vec![Vec::new(); n],
            by_rank: vec![Vec::new(); n],
            ..TraceIndex::default()
        };
        for (i, e) in events.iter().enumerate() {
            let owner = e.owner();
            if let Some(per) = ix.by_rank.get_mut(owner) {
                per.push(i);
            }
            match e {
                TraceEvent::Recv { rank, wildcard, .. } => {
                    if let Some(per) = ix.recvs.get_mut(*rank) {
                        per.push(i);
                    }
                    if wildcard.is_some() {
                        ix.wildcard_count += 1;
                    }
                }
                TraceEvent::Fault { .. } => ix.fault_count += 1,
                _ => {}
            }
        }
        ix
    }
}

/// The merged event log of a finished world.
#[derive(Debug)]
pub struct TraceLog {
    /// World size the log was recorded at.
    pub n: usize,
    /// All ranks' events. Within one rank the events appear in program
    /// order; across ranks the order is the (arbitrary) flush order —
    /// use the vector clocks, not the vector order, for causality.
    pub events: Vec<TraceEvent>,
    /// Lazily-built lookup tables. Invalidated by nothing: the log is
    /// treated as immutable once any accessor has run.
    index: OnceLock<TraceIndex>,
}

impl Clone for TraceLog {
    fn clone(&self) -> Self {
        TraceLog::new(self.n, self.events.clone())
    }
}

impl TraceLog {
    pub fn new(n: usize, events: Vec<TraceEvent>) -> TraceLog {
        TraceLog {
            n,
            events,
            index: OnceLock::new(),
        }
    }

    fn index(&self) -> &TraceIndex {
        self.index
            .get_or_init(|| TraceIndex::build(self.n, &self.events))
    }

    /// The receive events of `rank`, in program order.
    pub fn recvs_for(&self, rank: usize) -> impl Iterator<Item = &TraceEvent> {
        let idx: &[usize] = self
            .index()
            .recvs
            .get(rank)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        idx.iter().map(move |&i| &self.events[i])
    }

    /// All events of `rank`, in program order.
    pub fn events_for(&self, rank: usize) -> impl Iterator<Item = &TraceEvent> {
        let idx: &[usize] = self
            .index()
            .by_rank
            .get(rank)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        idx.iter().map(move |&i| &self.events[i])
    }

    /// Total number of injected-fault events in the log.
    pub fn fault_count(&self) -> usize {
        self.index().fault_count
    }

    /// Total number of wildcard (`recv_any`) matches in the log.
    pub fn wildcard_count(&self) -> usize {
        self.index().wildcard_count
    }
}

/// The wildcard-match order of a recorded run: for each rank, which
/// source its `i`-th `recv_any` matched. Replaying under
/// [`MatchPolicy::Replay`](crate::MatchPolicy) forces the same order;
/// [`ReplayLog::swapped`] builds a deliberately perturbed order to
/// probe order-sensitivity, and [`ReplayLog::canonical`] builds the
/// scheduler-independent order profiling replays under.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    choices: Vec<Vec<usize>>,
}

impl ReplayLog {
    /// Build a log directly from per-rank choice vectors
    /// (`choices[rank][i]` = source the `i`-th wildcard of `rank` must
    /// match). This is how a serialized counterexample schedule (e.g.
    /// `pvr-mc`'s JSON) is turned back into a replayable policy.
    pub fn from_choices(choices: Vec<Vec<usize>>) -> Self {
        ReplayLog { choices }
    }

    /// The raw per-rank choice vectors, in wildcard-index order — the
    /// inverse of [`ReplayLog::from_choices`].
    pub fn per_rank(&self) -> &[Vec<usize>] {
        &self.choices
    }

    /// The per-rank choice vectors, by value.
    pub fn into_per_rank(self) -> Vec<Vec<usize>> {
        self.choices
    }

    /// Extract the wildcard-match order from a trace.
    pub fn from_trace(log: &TraceLog) -> Self {
        ReplayLog {
            choices: Self::per_rank_matches(log)
                .into_iter()
                .map(|v| v.into_iter().map(|(_, s)| s).collect())
                .collect(),
        }
    }

    /// The **canonical** wildcard-match order derived from a recorded
    /// run: within each maximal run of consecutive same-tag wildcard
    /// matches at a rank, sources are sorted ascending. Any two runs
    /// of the same program reach the same canonical order no matter how
    /// the scheduler interleaved the arrivals, so replaying under it
    /// makes the whole trace (clocks included) deterministic — this is
    /// what `pvr-obs` profiling replays use.
    ///
    /// Feasibility relies on the sends matched by one wildcard run
    /// being mutually independent (no sender needs the receiver to act
    /// on another's message first), which holds for this pipeline's
    /// fan-in protocols; an infeasible order would surface as a
    /// deadlock report, not a hang.
    pub fn canonical(log: &TraceLog) -> Self {
        let choices = Self::per_rank_matches(log)
            .into_iter()
            .map(|matches| {
                let mut out: Vec<usize> = Vec::with_capacity(matches.len());
                let mut i = 0;
                while i < matches.len() {
                    let tag = matches[i].0;
                    let mut j = i;
                    while j < matches.len() && matches[j].0 == tag {
                        j += 1;
                    }
                    let mut run: Vec<usize> = matches[i..j].iter().map(|&(_, s)| s).collect();
                    run.sort_unstable();
                    out.extend(run);
                    i = j;
                }
                out
            })
            .collect();
        ReplayLog { choices }
    }

    /// Per rank: `(tag, src)` of each wildcard match, in wildcard-index
    /// order.
    fn per_rank_matches(log: &TraceLog) -> Vec<Vec<(u32, usize)>> {
        let mut per_rank: Vec<Vec<(u64, u32, usize)>> = vec![Vec::new(); log.n];
        for e in &log.events {
            if let TraceEvent::Recv {
                rank,
                src,
                tag,
                wildcard: Some(i),
                ..
            } = e
            {
                per_rank[*rank].push((*i, *tag, *src));
            }
        }
        per_rank
            .into_iter()
            .map(|mut v| {
                v.sort_by_key(|&(i, ..)| i);
                v.into_iter().map(|(_, t, s)| (t, s)).collect()
            })
            .collect()
    }

    /// The source `rank`'s `idx`-th wildcard receive must match, if
    /// recorded.
    pub fn choice(&self, rank: usize, idx: u64) -> Option<usize> {
        self.choices.get(rank)?.get(idx as usize).copied()
    }

    /// Total recorded wildcard matches across all ranks.
    pub fn total_len(&self) -> usize {
        self.choices.iter().map(Vec::len).sum()
    }

    /// A copy with `rank`'s wildcard matches `i` and `i + 1` swapped —
    /// an injected out-of-order match. Returns `None` if the swap is
    /// out of range or would be a no-op (both entries the same source).
    pub fn swapped(&self, rank: usize, i: usize) -> Option<ReplayLog> {
        let seq = self.choices.get(rank)?;
        if i + 1 >= seq.len() || seq[i] == seq[i + 1] {
            return None;
        }
        let mut out = self.clone();
        out.choices[rank].swap(i, i + 1);
        Some(out)
    }
}

/// Adjacent wildcard matches that can be *feasibly* swapped in a
/// replay: consecutive wildcard indices at one receiver, same tag,
/// different sources, concurrent send clocks. Swapping a causally
/// ordered pair would force an order no execution can produce (the
/// later send may not exist until the earlier message is consumed), so
/// only these pairs are fit for [`ReplayLog::swapped`].
///
/// Returns `(receiver, first wildcard index)` pairs.
pub fn swappable_wildcards(log: &TraceLog) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for receiver in 0..log.n {
        let mut matches: Vec<(u64, u32, usize, &Clock)> = Vec::new();
        for e in log.recvs_for(receiver) {
            if let TraceEvent::Recv {
                src,
                tag,
                wildcard: Some(w),
                send_clock,
                ..
            } = e
            {
                matches.push((*w, *tag, *src, send_clock));
            }
        }
        matches.sort_by_key(|&(w, ..)| w);
        for win in matches.windows(2) {
            let (w0, t0, s0, c0) = win[0];
            let (w1, t1, s1, c1) = win[1];
            if w1 == w0 + 1 && t0 == t1 && s0 != s1 && clock_concurrent(c0, c1) {
                out.push((receiver, w0 as usize));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_order_relations() {
        let a = vec![1, 2, 0];
        let b = vec![1, 3, 0];
        let c = vec![0, 0, 5];
        assert!(clock_leq(&a, &b));
        assert!(!clock_leq(&b, &a));
        assert!(clock_concurrent(&a, &c));
        assert!(!clock_concurrent(&a, &b));
        assert!(clock_leq(&a, &a));
        assert_eq!(clock_sum(&a), 3);
    }

    fn wc_recv(rank: usize, src: usize, tag: u32, seq: u64, wildcard: Option<u64>) -> TraceEvent {
        TraceEvent::Recv {
            rank,
            src,
            tag,
            seq,
            bytes: 0,
            wildcard,
            send_clock: vec![],
            recv_clock: vec![],
        }
    }

    #[test]
    fn replay_log_orders_by_wildcard_index() {
        let log = TraceLog::new(
            2,
            vec![
                wc_recv(1, 7, 0, 0, Some(1)),
                wc_recv(1, 3, 0, 0, Some(0)),
                wc_recv(1, 9, 0, 1, None),
            ],
        );
        let replay = ReplayLog::from_trace(&log);
        assert_eq!(replay.choice(1, 0), Some(3));
        assert_eq!(replay.choice(1, 1), Some(7));
        assert_eq!(replay.choice(1, 2), None);
        assert_eq!(replay.choice(0, 0), None);
    }

    #[test]
    fn swapped_perturbs_exactly_one_pair() {
        let log = ReplayLog {
            choices: vec![vec![], vec![3, 7, 3]],
        };
        let s = log.swapped(1, 0).unwrap();
        assert_eq!(s.choice(1, 0), Some(7));
        assert_eq!(s.choice(1, 1), Some(3));
        assert_eq!(s.choice(1, 2), Some(3));
        // Swapping equal entries is refused.
        assert!(ReplayLog {
            choices: vec![vec![5, 5]]
        }
        .swapped(0, 0)
        .is_none());
        assert!(log.swapped(1, 2).is_none());
    }

    #[test]
    fn only_concurrent_adjacent_matches_are_swappable() {
        let recv = |src, tag, w, send_clock: Clock| TraceEvent::Recv {
            rank: 0,
            src,
            tag,
            seq: 0,
            bytes: 0,
            wildcard: Some(w),
            send_clock,
            recv_clock: vec![],
        };
        let log = TraceLog::new(
            4,
            vec![
                // #0/#1: concurrent sends from 1 and 2 — swappable.
                recv(1, 5, 0, vec![0, 1, 0, 0]),
                recv(2, 5, 1, vec![0, 0, 1, 0]),
                // #1/#2: 3's send happens after 2's — not swappable.
                recv(3, 5, 2, vec![0, 0, 1, 1]),
                // #2/#3: concurrent, but the tags differ.
                recv(1, 6, 3, vec![0, 2, 0, 0]),
            ],
        );
        assert_eq!(swappable_wildcards(&log), vec![(0, 0)]);
    }

    #[test]
    fn canonical_sorts_within_same_tag_runs_only() {
        // Rank 0 matched tags: 5 from {4, 2, 3}, then tag 6 from {9, 1}.
        let log = TraceLog::new(
            1,
            vec![
                wc_recv(0, 4, 5, 0, Some(0)),
                wc_recv(0, 2, 5, 0, Some(1)),
                wc_recv(0, 3, 5, 0, Some(2)),
                wc_recv(0, 9, 6, 0, Some(3)),
                wc_recv(0, 1, 6, 0, Some(4)),
            ],
        );
        let canon = ReplayLog::canonical(&log);
        let got: Vec<usize> = (0..5).map(|i| canon.choice(0, i).unwrap()).collect();
        // Tag-5 run sorted, tag-6 run sorted, runs not merged.
        assert_eq!(got, vec![2, 3, 4, 1, 9]);
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let a = TraceLog::new(
            1,
            vec![wc_recv(0, 4, 5, 0, Some(0)), wc_recv(0, 2, 5, 0, Some(1))],
        );
        let b = TraceLog::new(
            1,
            vec![wc_recv(0, 2, 5, 0, Some(0)), wc_recv(0, 4, 5, 0, Some(1))],
        );
        assert_eq!(
            ReplayLog::canonical(&a).choices,
            ReplayLog::canonical(&b).choices
        );
    }

    #[test]
    fn index_accessors_match_full_scans() {
        let events = vec![
            TraceEvent::Send {
                from: 0,
                to: 1,
                tag: 2,
                seq: 0,
                bytes: 10,
                clock: vec![1, 0],
            },
            wc_recv(1, 0, 2, 0, Some(0)),
            TraceEvent::Fault {
                from: 1,
                to: 0,
                tag: 9,
                seq: 0,
                kind: FaultKind::Drop,
            },
            TraceEvent::Fault {
                from: 1,
                to: 0,
                tag: 9,
                seq: 1,
                kind: FaultKind::Drop,
            },
            TraceEvent::Mark {
                rank: 0,
                label: "io",
                kind: MarkKind::Begin,
                value: 0,
                clock: vec![2, 0],
            },
        ];
        let log = TraceLog::new(2, events);
        assert_eq!(log.recvs_for(1).count(), 1);
        assert_eq!(log.recvs_for(0).count(), 0);
        assert_eq!(log.events_for(0).count(), 2); // Send + Mark
        assert_eq!(log.events_for(1).count(), 3); // Recv + 2 Faults
        assert_eq!(log.fault_count(), 2);
        assert_eq!(log.wildcard_count(), 1);
        // Out-of-range ranks yield empty iterators, not panics.
        assert_eq!(log.recvs_for(7).count(), 0);
    }

    #[test]
    fn owner_and_logical_ts() {
        let send = TraceEvent::Send {
            from: 3,
            to: 0,
            tag: 1,
            seq: 0,
            bytes: 4,
            clock: vec![2, 0, 0, 5],
        };
        assert_eq!(send.owner(), 3);
        assert_eq!(send.logical_ts(), Some(7));
        let barrier = TraceEvent::Barrier {
            rank: 2,
            generation: 0,
        };
        assert_eq!(barrier.owner(), 2);
        assert_eq!(barrier.logical_ts(), None);
    }
}
