//! Message-race and ordering checks over recorded traces.
//!
//! Consumes the [`TraceLog`] a traced
//! `pvr-mpisim` world produces and answers two questions post-hoc:
//!
//! * **Where are the wildcard races?** Two sends matched by the same
//!   receiver's `recv_any` stream (same tag) race when their vector
//!   clocks are concurrent: no happens-before edge forces either order,
//!   so a different interleaving could have delivered them swapped. A
//!   protocol whose result depends on such an order is broken; the
//!   race report tells you exactly which receives to scrutinize (and
//!   which orders the replay checker should perturb).
//! * **Was non-overtaking honoured?** Per (source, receiver, tag), the
//!   delivered sequence numbers must be `0, 1, 2, ...` — a redundant
//!   post-hoc check of the runtime's own delivery assertion, kept here
//!   so traces from *future* transports (or serialized traces) can be
//!   audited offline too.

use pvr_mpisim::trace::{clock_concurrent, Clock, TraceEvent, TraceLog};

/// Two wildcard matches at one receiver whose sends were concurrent:
/// the match order was a scheduler accident, not a protocol guarantee.
#[derive(Debug, Clone)]
pub struct RacePair {
    pub receiver: usize,
    pub tag: u32,
    /// (source, wildcard index) of the earlier match.
    pub first: (usize, u64),
    /// (source, wildcard index) of the later match.
    pub second: (usize, u64),
}

impl std::fmt::Display for RacePair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} tag {}: wildcard #{} (from {}) raced wildcard #{} (from {})",
            self.receiver, self.tag, self.first.1, self.first.0, self.second.1, self.second.0
        )
    }
}

/// Find all racing wildcard pairs in a trace.
///
/// For each receiver and tag, take the wildcard-matched sends in match
/// order; any pair from *different* sources whose send clocks are
/// concurrent is a race. Same-source pairs are never races: per-(src,
/// tag) non-overtaking pins their order.
pub fn wildcard_races(log: &TraceLog) -> Vec<RacePair> {
    let mut races = Vec::new();
    for receiver in 0..log.n {
        // (tag, wildcard idx, src, send clock), in match order.
        let mut matches: Vec<(u32, u64, usize, &Clock)> = Vec::new();
        for e in log.recvs_for(receiver) {
            if let TraceEvent::Recv {
                src,
                tag,
                wildcard: Some(w),
                send_clock,
                ..
            } = e
            {
                matches.push((*tag, *w, *src, send_clock));
            }
        }
        matches.sort_by_key(|(tag, w, _, _)| (*tag, *w));
        for i in 0..matches.len() {
            for j in i + 1..matches.len() {
                let (tag_i, wi, src_i, ci) = matches[i];
                let (tag_j, wj, src_j, cj) = matches[j];
                if tag_i != tag_j {
                    break; // sorted by tag; no further j shares tag_i
                }
                if src_i != src_j && clock_concurrent(ci, cj) {
                    races.push(RacePair {
                        receiver,
                        tag: tag_i,
                        first: (src_i, wi),
                        second: (src_j, wj),
                    });
                }
            }
        }
    }
    races
}

/// [`wildcard_races`] partitioned by provenance: races on links the
/// fault injector touched versus races with no injected explanation.
#[derive(Debug, Default)]
pub struct ClassifiedRaces {
    /// Races between sends on healthy links — scheduler accidents the
    /// protocol must tolerate (the genuine findings).
    pub genuine: Vec<RacePair>,
    /// Races where at least one send crossed a link with injected
    /// faults: the nondeterminism was *planted* by a `FaultPlan`
    /// (retransmissions racing originals, delayed frames arriving out
    /// of band), so it indicts the fault plan, not the protocol.
    pub injected: Vec<RacePair>,
}

/// Partition the trace's wildcard races into genuine scheduler races
/// and fault-injection artifacts.
///
/// A race is classified as injected when either of its sends traveled
/// a `(source, receiver, tag)` link that recorded a
/// [`TraceEvent::Fault`] — under a fault plan, a retransmitted or
/// delayed message legitimately races the surrounding traffic, and
/// flagging it as a protocol bug would make every faulted run fail the
/// race audit spuriously.
///
/// This is a *sampled* check: it reports the races of one observed
/// trace and says nothing about the orders never drawn. At small rank
/// counts prefer [`crate::explore_exhaustive`], which enumerates every
/// inequivalent match order and supersedes this verdict; keep
/// `classify_races` for paper-scale worlds where enumeration is
/// infeasible.
pub fn classify_races(log: &TraceLog) -> ClassifiedRaces {
    let faulted = log.faulted_links();
    let is_faulted =
        |src: usize, dst: usize, tag: u32| faulted.binary_search(&(src, dst, tag)).is_ok();
    let mut out = ClassifiedRaces::default();
    for race in wildcard_races(log) {
        if is_faulted(race.first.0, race.receiver, race.tag)
            || is_faulted(race.second.0, race.receiver, race.tag)
        {
            out.injected.push(race);
        } else {
            out.genuine.push(race);
        }
    }
    out
}

/// Adjacent wildcard matches that can be *feasibly* swapped in a
/// replay: consecutive wildcard indices at one receiver, same tag,
/// different sources, concurrent send clocks. Swapping a causally
/// ordered pair would force an order no execution can produce (the
/// later send may not exist until the earlier message is consumed), so
/// the replay checker only injects swaps from this set.
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

/// Audit a trace for per-(source, receiver, tag) sequence gaps or
/// reorderings. Returns human-readable findings (empty = clean).
pub fn check_non_overtaking(log: &TraceLog) -> Vec<String> {
    use std::collections::HashMap;
    let mut next: HashMap<(usize, usize, u32), u64> = HashMap::new();
    let mut findings = Vec::new();
    // Per receiver, events are in program order; across receivers the
    // streams are independent, so a single pass per receiver suffices.
    for receiver in 0..log.n {
        for e in log.recvs_for(receiver) {
            if let TraceEvent::Recv {
                rank,
                src,
                tag,
                seq,
                ..
            } = e
            {
                let want = next.entry((*src, *rank, *tag)).or_insert(0);
                if seq != want {
                    findings.push(format!(
                        "rank {rank}: matched seq {seq} from (src {src}, tag {tag}), expected {want}"
                    ));
                }
                *want = seq + 1;
            }
        }
    }
    findings
}
