//! Analysis passes over a traced run's [`TraceLog`].
//!
//! * [`profile_from_trace`] — convert a traced run into a per-rank
//!   span [`Profile`], using the vector-clock component sum as a
//!   deterministic logical timestamp (strictly increasing per rank and
//!   along every happens-before edge).
//! * [`critical_path`] — walk the send/recv happens-before graph
//!   backwards from the last event, always following the predecessor
//!   the event actually waited for; the resulting chain is the run's
//!   critical path, segmented per rank.
//! * [`link_matrix`] — per-(source, destination) message and byte
//!   volume, which makes an m = n direct-send flood (the paper's C1)
//!   directly visible.
//!
//! The Profile-only passes (`imbalance`, `span_overlap`) stay in
//! `pvr_obs::analysis`.

use std::collections::HashMap;

use pvr_obs::span::{Args, EventKind, Profile, SpanEvent, TrackId};

use crate::trace::{FaultKind, MarkKind, TraceEvent, TraceLog};

/// Convert a traced run into a span profile: marks become begin/end/
/// instant events, injected faults become instant events, and every
/// timestamp is the event's logical clock sum. One track per rank.
pub fn profile_from_trace(log: &TraceLog) -> Profile {
    let tracks = (0..log.n)
        .map(|r| (r as TrackId, format!("rank {r}")))
        .collect();
    let mut events = Vec::new();
    for rank in 0..log.n {
        // Faults carry no clock; anchor them at the rank's last
        // logical timestamp (program order makes this deterministic).
        let mut last_ts = 0u64;
        for e in log.events_for(rank) {
            if let Some(ts) = e.logical_ts() {
                last_ts = ts;
            }
            match e {
                TraceEvent::Mark {
                    label, kind, value, ..
                } => {
                    events.push(SpanEvent {
                        track: rank as TrackId,
                        name: label,
                        kind: match kind {
                            MarkKind::Begin => EventKind::Begin,
                            MarkKind::End => EventKind::End,
                            MarkKind::Instant => EventKind::Instant,
                        },
                        ts: last_ts,
                        args: Args::one("value", *value),
                    });
                }
                TraceEvent::Fault { tag, seq, kind, .. } => {
                    let name = match kind {
                        FaultKind::Drop => "fault.drop",
                        FaultKind::Delay => "fault.delay",
                        FaultKind::Corrupt => "fault.corrupt",
                    };
                    events.push(SpanEvent {
                        track: rank as TrackId,
                        name,
                        kind: EventKind::Instant,
                        ts: last_ts,
                        args: Args::two("tag", *tag as u64, "seq", *seq),
                    });
                }
                _ => {}
            }
        }
    }
    Profile::from_parts(tracks, events)
}

/// One maximal single-rank stretch of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpSegment {
    pub rank: usize,
    /// Logical time the path enters this rank.
    pub start: u64,
    /// Logical time the path leaves this rank (or ends).
    pub end: u64,
    /// Number of trace events the segment covers.
    pub events: usize,
}

/// The critical path of a traced run.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Logical timestamp of the last event — the run's logical
    /// makespan.
    pub makespan: u64,
    /// Rank-segments in time order (start → end).
    pub segments: Vec<CpSegment>,
    /// Logical ticks of the path spent on each rank.
    pub per_rank: Vec<u64>,
}

impl CriticalPath {
    /// `rank,start,end,events` CSV, one row per segment.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("rank,start,end,events\n");
        for s in &self.segments {
            out.push_str(&format!("{},{},{},{}\n", s.rank, s.start, s.end, s.events));
        }
        out
    }

    /// The rank carrying the largest share of the path, with its
    /// ticks.
    pub fn dominant_rank(&self) -> Option<(usize, u64)> {
        self.per_rank
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(r, t)| (t, std::cmp::Reverse(r)))
    }
}

/// Extract the critical path through the happens-before graph.
///
/// Every event's binding constraint is the predecessor with the
/// largest logical timestamp — the last dependency to become ready:
/// its program-order predecessor on the same rank, or (for a receive)
/// the matched send. Starting from the event with the globally largest
/// timestamp and repeatedly following the binding constraint yields
/// the chain whose completion determined the makespan.
pub fn critical_path(log: &TraceLog) -> CriticalPath {
    // Per rank: (ts, position-in-rank-list) for each clocked event.
    let per_rank: Vec<Vec<(u64, &TraceEvent)>> = (0..log.n)
        .map(|r| {
            log.events_for(r)
                .filter_map(|e| e.logical_ts().map(|ts| (ts, e)))
                .collect()
        })
        .collect();
    // Matched-send lookup: (from, to, tag, seq) -> (rank, pos).
    let mut send_at: HashMap<(usize, usize, u32, u64), (usize, usize)> = HashMap::new();
    for (rank, list) in per_rank.iter().enumerate() {
        for (pos, (_, e)) in list.iter().enumerate() {
            if let TraceEvent::Send {
                from, to, tag, seq, ..
            } = e
            {
                send_at.insert((*from, *to, *tag, *seq), (rank, pos));
            }
        }
    }

    // End node: globally largest ts; lowest rank on ties.
    let mut cur: Option<(usize, usize)> = None; // (rank, pos)
    let mut best_ts = 0u64;
    for (rank, list) in per_rank.iter().enumerate() {
        if let Some(pos) = list.len().checked_sub(1) {
            let ts = list[pos].0;
            if cur.is_none() || ts > best_ts {
                best_ts = ts;
                cur = Some((rank, pos));
            }
        }
    }
    let Some(mut cur) = cur else {
        return CriticalPath {
            per_rank: vec![0; log.n],
            ..CriticalPath::default()
        };
    };

    // Walk backwards, collecting (rank, ts) in reverse time order.
    let mut chain: Vec<(usize, u64)> = Vec::new();
    loop {
        let (rank, pos) = cur;
        let (ts, e) = per_rank[rank][pos];
        chain.push((rank, ts));
        let prog = pos.checked_sub(1).map(|p| (rank, p));
        let msg = match e {
            TraceEvent::Recv {
                rank: r,
                src,
                tag,
                seq,
                ..
            } => send_at.get(&(*src, *r, *tag, *seq)).copied(),
            _ => None,
        };
        // The binding constraint: the later of the two predecessors.
        cur = match (prog, msg) {
            (None, None) => break,
            (Some(p), None) => p,
            (None, Some(m)) => m,
            (Some(p), Some(m)) => {
                let (pt, _) = per_rank[p.0][p.1];
                let (mt, _) = per_rank[m.0][m.1];
                if mt > pt {
                    m
                } else {
                    p
                }
            }
        };
    }
    chain.reverse();

    // Collapse into per-rank segments and attribute ticks: each chain
    // edge's duration belongs to the rank of its *later* event (that
    // is where the time was spent); the first event's own timestamp
    // belongs to its rank.
    let mut per_rank_ticks = vec![0u64; log.n];
    let mut segments: Vec<CpSegment> = Vec::new();
    let mut prev_ts = 0u64;
    for &(rank, ts) in &chain {
        per_rank_ticks[rank] += ts - prev_ts;
        match segments.last_mut() {
            Some(seg) if seg.rank == rank => {
                seg.end = ts;
                seg.events += 1;
            }
            _ => segments.push(CpSegment {
                rank,
                start: prev_ts,
                end: ts,
                events: 1,
            }),
        }
        prev_ts = ts;
    }
    CriticalPath {
        makespan: best_ts,
        segments,
        per_rank: per_rank_ticks,
    }
}

/// Per-(source, destination) traffic totals of a traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMatrix {
    pub n: usize,
    /// Row-major `n × n`: messages sent from row to column.
    pub msgs: Vec<u64>,
    /// Row-major `n × n`: bytes sent from row to column.
    pub bytes: Vec<u64>,
}

impl LinkMatrix {
    pub fn msgs_at(&self, from: usize, to: usize) -> u64 {
        self.msgs[from * self.n + to]
    }

    pub fn bytes_at(&self, from: usize, to: usize) -> u64 {
        self.bytes[from * self.n + to]
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages received per rank (the fan-in the paper's C1 analysis
    /// cares about).
    pub fn in_degree(&self, to: usize) -> u64 {
        (0..self.n).map(|from| self.msgs_at(from, to)).sum()
    }

    /// `src,dst,msgs,bytes` CSV of the non-empty links, row-major
    /// order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("src,dst,msgs,bytes\n");
        for from in 0..self.n {
            for to in 0..self.n {
                let m = self.msgs_at(from, to);
                if m > 0 {
                    out.push_str(&format!("{from},{to},{m},{}\n", self.bytes_at(from, to)));
                }
            }
        }
        out
    }
}

/// Aggregate the trace's `Send` events into a [`LinkMatrix`].
pub fn link_matrix(log: &TraceLog) -> LinkMatrix {
    let n = log.n;
    let mut out = LinkMatrix {
        n,
        msgs: vec![0; n * n],
        bytes: vec![0; n * n],
    };
    for e in &log.events {
        if let TraceEvent::Send {
            from, to, bytes, ..
        } = e
        {
            out.msgs[from * n + to] += 1;
            out.bytes[from * n + to] += bytes;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, World};

    fn traced_chain() -> TraceLog {
        // 0 --(work)--> sends to 1; 1 relays to 2. The critical path
        // must run 0 -> 1 -> 2.
        World::run_opts(3, RunOptions::default().traced(), |mut comm| async move {
            match comm.rank() {
                0 => {
                    comm.span_begin("produce");
                    comm.span_end("produce");
                    comm.send(1, 1, vec![0; 64]).await;
                }
                1 => {
                    let d = comm.recv_from(0, 1).await;
                    comm.send(2, 1, d).await;
                }
                _ => {
                    let _ = comm.recv_from(1, 1).await;
                }
            }
        })
        .unwrap()
        .trace
        .unwrap()
    }

    #[test]
    fn critical_path_follows_the_relay() {
        let log = traced_chain();
        let cp = critical_path(&log);
        assert!(cp.makespan > 0);
        let ranks: Vec<usize> = cp.segments.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![0, 1, 2], "path must thread the relay");
        // Ticks are fully attributed.
        assert_eq!(cp.per_rank.iter().sum::<u64>(), cp.makespan);
        // Segment times are contiguous and ordered.
        for w in cp.segments.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn profile_from_trace_places_marks() {
        let log = traced_chain();
        let p = profile_from_trace(&log);
        assert_eq!(p.tracks.len(), 3);
        let durs = p.span_durations("produce");
        assert_eq!(durs.len(), 3);
        assert!(durs[0].1 > 0, "rank 0's produce span has extent");
        pvr_obs::perfetto::validate(&pvr_obs::perfetto::to_json(&p)).unwrap();
    }

    #[test]
    fn link_matrix_counts_bytes() {
        let log = traced_chain();
        let m = link_matrix(&log);
        assert_eq!(m.msgs_at(0, 1), 1);
        assert_eq!(m.bytes_at(0, 1), 64);
        assert_eq!(m.msgs_at(1, 2), 1);
        assert_eq!(m.bytes_at(1, 2), 64);
        assert_eq!(m.msgs_at(2, 0), 0);
        assert_eq!(m.total_msgs(), 2);
        assert_eq!(m.in_degree(2), 1);
        let csv = m.to_csv();
        assert!(csv.contains("0,1,1,64\n"));
        assert!(!csv.contains("2,0"));
    }

    #[test]
    fn critical_path_of_empty_log_is_empty() {
        let log = TraceLog::new(2, Vec::new());
        let cp = critical_path(&log);
        assert_eq!(cp.makespan, 0);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.per_rank, vec![0, 0]);
    }
}
