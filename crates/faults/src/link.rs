//! Reliable-delivery link layer over the lossy simulated transport.
//!
//! When a [`crate::FaultPlan`] makes links lossy, plain `send`/`recv`
//! no longer suffices: a dropped fragment would hang its receiver
//! forever (the PR 1 watchdog would eventually kill the world). This
//! module wraps payloads in a small frame —
//!
//! ```text
//! [magic u16 = 0xFA17][kind u8][pad u8][msg_id u64][attempt u32][crc u32][body...]
//! ```
//!
//! — and pairs an [`OutBox`] (positive acks, exponential-backoff
//! retransmission, bounded retries) with an [`InBox`] (checksum
//! verification, ack generation, duplicate suppression by
//! `(src, msg_id)`). The checksum (FNV-1a over `msg_id` and the body)
//! turns injected corruption into a detected drop, so every link fault
//! reduces to loss, and loss is handled by retransmission or — once the
//! retry budget is spent — by giving up and counting a timeout, which
//! the compositor surfaces as reduced tile completeness.
//!
//! Retransmitted frames carry the same `msg_id` and body, so a run that
//! recovers from transient loss produces bit-identical data to the
//! fault-free run; only the `attempt` field (not covered by the crc)
//! differs on the wire.
//!
//! **Pass-through.** A frame that runs without a fault plan sends the
//! same messages through the same two types, built without a
//! [`LinkPolicy`] / ack tag: nothing on such a link can be lost, so it
//! skips everything above. [`OutBox::send`] puts the body on the wire
//! as it is (no frame header, no checksum) and retains nothing;
//! [`OutBox::poll`] and [`OutBox::drain`] return without receiving or
//! arming a timer, and [`OutBox::pending`] stays 0; [`InBox::accept`]
//! hands the received bytes back untouched — no ack is sent and no
//! `(src, msg_id)` is remembered. The choice is made once, in the
//! constructor; callers run one code path over either kind of link.

use std::collections::HashSet;
use std::time::Duration;

use pvr_mpisim::Comm;

use crate::recovery::RecoveryCounters;

pub const MAGIC: u16 = 0xFA17;
pub const KIND_DATA: u8 = 0;
pub const KIND_ACK: u8 = 1;
pub const HEADER_LEN: usize = 20;

fn fnv32(msg_id: u64, body: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in msg_id.to_le_bytes().iter().chain(body.iter()) {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Encode a frame. `body` is empty for acks.
pub fn encode_frame(kind: u8, msg_id: u64, attempt: u32, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(HEADER_LEN + body.len());
    f.extend_from_slice(&MAGIC.to_le_bytes());
    f.push(kind);
    f.push(0);
    f.extend_from_slice(&msg_id.to_le_bytes());
    f.extend_from_slice(&attempt.to_le_bytes());
    f.extend_from_slice(&fnv32(msg_id, body).to_le_bytes());
    f.extend_from_slice(body);
    f
}

/// Decode and verify a frame: `(kind, msg_id, attempt, body)`, or
/// `None` for anything malformed (bad length, magic, or checksum).
pub fn decode_frame(frame: &[u8]) -> Option<(u8, u64, u32, &[u8])> {
    if frame.len() < HEADER_LEN {
        return None;
    }
    if u16::from_le_bytes([frame[0], frame[1]]) != MAGIC {
        return None;
    }
    let kind = frame[2];
    let msg_id = u64::from_le_bytes(frame[4..12].try_into().unwrap());
    let attempt = u32::from_le_bytes(frame[12..16].try_into().unwrap());
    let crc = u32::from_le_bytes(frame[16..20].try_into().unwrap());
    let body = &frame[HEADER_LEN..];
    if fnv32(msg_id, body) != crc {
        return None;
    }
    Some((kind, msg_id, attempt, body))
}

/// Peek a frame header without verifying the checksum: `(kind, msg_id,
/// attempt)`. The fault injector uses this to key per-message actions.
pub fn peek_frame(frame: &[u8]) -> Option<(u8, u64, u32)> {
    if frame.len() < HEADER_LEN || u16::from_le_bytes([frame[0], frame[1]]) != MAGIC {
        return None;
    }
    Some((
        frame[2],
        u64::from_le_bytes(frame[4..12].try_into().unwrap()),
        u32::from_le_bytes(frame[12..16].try_into().unwrap()),
    ))
}

/// Link-layer retransmission knobs (the link slice of
/// [`crate::RecoveryPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPolicy {
    pub ack_timeout: Duration,
    pub backoff: f64,
    pub max_retries: u32,
    pub poll: Duration,
}

struct Pending {
    to: usize,
    tag: u32,
    msg_id: u64,
    attempt: u32,
    body: Vec<u8>,
    wait: Duration,
    /// Virtual-time deadline (against `Comm::now`) for the next
    /// retransmission.
    next_retry: Duration,
}

/// Sender half: frames payloads, retransmits unacked frames with
/// exponential backoff, gives up after `max_retries`.
pub struct OutBox {
    /// `None` makes this a pass-through sender (module docs).
    policy: Option<LinkPolicy>,
    /// Tag acks for this outbox arrive on.
    ack_tag: u32,
    next_id: u64,
    outstanding: Vec<Pending>,
    pub counters: RecoveryCounters,
}

impl OutBox {
    /// `rank` salts the message-id space so ids are globally unique
    /// (receivers dedupe on `(src, msg_id)`, so per-sender uniqueness is
    /// what actually matters; the salt just makes traces readable).
    /// Without a `policy` the sender is a pass-through.
    pub fn new(rank: usize, ack_tag: u32, policy: Option<LinkPolicy>) -> Self {
        OutBox {
            policy,
            ack_tag,
            next_id: (rank as u64) << 40,
            outstanding: Vec::new(),
            counters: RecoveryCounters::default(),
        }
    }

    /// Frame and send `body` to `to` on `tag`, keeping it for
    /// retransmission until acked.
    pub async fn send(&mut self, comm: &Comm, to: usize, tag: u32, body: Vec<u8>) {
        let Some(policy) = self.policy else {
            return comm.send(to, tag, body).await;
        };
        let msg_id = self.next_id;
        self.next_id += 1;
        comm.send(to, tag, encode_frame(KIND_DATA, msg_id, 0, &body))
            .await;
        self.outstanding.push(Pending {
            to,
            tag,
            msg_id,
            attempt: 0,
            body,
            wait: policy.ack_timeout,
            next_retry: comm.now() + policy.ack_timeout,
        });
    }

    /// Messages still awaiting an ack.
    pub fn pending(&self) -> usize {
        self.outstanding.len()
    }

    /// Drain arrived acks and retransmit overdue frames. Call this
    /// inside every receive loop so sends make progress while the rank
    /// is busy receiving.
    pub async fn poll(&mut self, comm: &mut Comm) {
        let Some(policy) = self.policy else {
            return;
        };
        while let Some((src, frame)) = comm.try_recv_any(self.ack_tag) {
            let Some((kind, msg_id, _, _)) = decode_frame(&frame) else {
                self.counters.corrupt_dropped += 1;
                continue;
            };
            if kind == KIND_ACK {
                self.outstanding
                    .retain(|p| !(p.msg_id == msg_id && p.to == src));
            }
        }
        let now = comm.now();
        let mut i = 0;
        while i < self.outstanding.len() {
            if now < self.outstanding[i].next_retry {
                i += 1;
                continue;
            }
            if self.outstanding[i].attempt >= policy.max_retries {
                self.counters.timeouts += 1;
                comm.mark_instant("link.timeout", self.outstanding[i].msg_id);
                self.outstanding.swap_remove(i);
                continue;
            }
            let p = &mut self.outstanding[i];
            p.attempt += 1;
            p.wait = Duration::from_secs_f64(p.wait.as_secs_f64() * policy.backoff.max(1.0));
            p.next_retry = now + p.wait;
            self.counters.retries += 1;
            comm.mark_instant("link.retransmit", p.msg_id);
            let frame = encode_frame(KIND_DATA, p.msg_id, p.attempt, &p.body);
            let (to, tag) = (p.to, p.tag);
            comm.send(to, tag, frame).await;
            i += 1;
        }
    }

    /// Keep polling until every message is acked or abandoned, or the
    /// deadline passes; anything still unacked then counts as a
    /// timeout. Returns the number of messages confirmed delivered is
    /// not knowable (acks can be lost), so callers read the counters.
    pub async fn drain(&mut self, comm: &mut Comm, deadline: Duration) {
        let Some(policy) = self.policy else {
            return;
        };
        loop {
            self.poll(comm).await;
            if self.outstanding.is_empty() {
                return;
            }
            let now = comm.now();
            if now >= deadline {
                self.counters.timeouts += self.outstanding.len() as u64;
                for p in &self.outstanding {
                    comm.mark_instant("link.timeout", p.msg_id);
                }
                self.outstanding.clear();
                return;
            }
            // Sleep-free wait: block on the ack tag itself so a late ack
            // wakes us immediately.
            let step = policy.poll.min(deadline - now);
            if let Some((src, frame)) = comm.recv_any_timeout(self.ack_tag, step).await {
                if let Some((kind, msg_id, _, _)) = decode_frame(&frame) {
                    if kind == KIND_ACK {
                        self.outstanding
                            .retain(|p| !(p.msg_id == msg_id && p.to == src));
                    }
                } else {
                    self.counters.corrupt_dropped += 1;
                }
            }
        }
    }
}

/// Receiver half: verifies, acks, and dedupes incoming frames.
pub struct InBox {
    /// Tag the acks go out on; `None` makes this a pass-through
    /// receiver (module docs).
    ack_tag: Option<u32>,
    seen: HashSet<(usize, u64)>,
    pub counters: RecoveryCounters,
}

impl InBox {
    pub fn new(ack_tag: Option<u32>) -> Self {
        InBox {
            ack_tag,
            seen: HashSet::new(),
            counters: RecoveryCounters::default(),
        }
    }

    /// Process one raw frame received from `src`. Returns the body for
    /// a fresh, intact data frame; `None` for corrupt frames (no ack —
    /// the sender must retransmit) and duplicates (acked again, since
    /// the previous ack may have been lost).
    pub async fn accept(&mut self, comm: &Comm, src: usize, mut frame: Vec<u8>) -> Option<Vec<u8>> {
        let Some(ack_tag) = self.ack_tag else {
            return Some(frame);
        };
        let Some((kind, msg_id, attempt, _)) = decode_frame(&frame) else {
            self.counters.corrupt_dropped += 1;
            comm.mark_instant("link.corrupt", src as u64);
            return None;
        };
        if kind != KIND_DATA {
            return None;
        }
        comm.send(src, ack_tag, encode_frame(KIND_ACK, msg_id, attempt, &[]))
            .await;
        if self.seen.insert((src, msg_id)) {
            // The body, shifted down over the header in place.
            frame.drain(..HEADER_LEN);
            Some(frame)
        } else {
            self.counters.duplicate_dropped += 1;
            None
        }
    }
}

/// Both halves of one link on `rank`: acked under `policy`, acks on
/// `ack_tag`; a pass-through pair without one.
pub fn pair(rank: usize, ack_tag: u32, policy: Option<LinkPolicy>) -> (OutBox, InBox) {
    (
        OutBox::new(rank, ack_tag, policy),
        InBox::new(policy.map(|_| ack_tag)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_mpisim::fault::{FaultInjector, SendFate};
    use pvr_mpisim::{RunOptions, World};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const DATA: u32 = 7;
    const ACK: u32 = 8;

    fn policy() -> LinkPolicy {
        LinkPolicy {
            ack_timeout: Duration::from_millis(5),
            backoff: 1.5,
            max_retries: 6,
            poll: Duration::from_millis(1),
        }
    }

    #[test]
    fn frame_round_trip_and_rejection() {
        let body = vec![1u8, 2, 3, 4];
        let f = encode_frame(KIND_DATA, 99, 2, &body);
        assert_eq!(f.len(), HEADER_LEN + 4);
        assert_eq!(decode_frame(&f), Some((KIND_DATA, 99, 2, &body[..])));
        assert_eq!(peek_frame(&f), Some((KIND_DATA, 99, 2)));
        // Any flipped payload byte is rejected; a flipped attempt is not
        // (attempts legitimately differ across retransmissions).
        let mut bad = f.clone();
        *bad.last_mut().unwrap() ^= 0xff;
        assert_eq!(decode_frame(&bad), None);
        let mut retx = f.clone();
        retx[12] = 9;
        assert!(decode_frame(&retx).is_some());
        assert_eq!(decode_frame(&[0u8; 5]), None);
    }

    /// Drops the first `k` delivery attempts of every data message on
    /// the 0→1 link, keyed by the frame's attempt field.
    struct DropAttempts {
        k: u32,
        drops: AtomicU64,
    }

    impl FaultInjector for DropAttempts {
        fn on_send(
            &self,
            src: usize,
            dst: usize,
            tag: u32,
            _seq: u64,
            data: &mut Vec<u8>,
        ) -> SendFate {
            if src == 0 && dst == 1 && tag == DATA {
                if let Some((KIND_DATA, _, attempt)) = peek_frame(data) {
                    if attempt < self.k {
                        self.drops.fetch_add(1, Ordering::Relaxed);
                        return SendFate::Drop;
                    }
                }
            }
            SendFate::Deliver
        }
    }

    #[test]
    fn retransmission_recovers_transient_loss_exactly_once() {
        let inj = Arc::new(DropAttempts {
            k: 2,
            drops: AtomicU64::new(0),
        });
        let opts = RunOptions::default().with_injector(inj.clone());
        let out = World::run_opts(2, opts, |mut comm| async move {
            if comm.rank() == 0 {
                let mut ob = OutBox::new(0, ACK, Some(policy()));
                for i in 0..4u8 {
                    ob.send(&comm, 1, DATA, vec![i, i, i]).await;
                }
                let deadline = comm.now() + Duration::from_secs(5);
                ob.drain(&mut comm, deadline).await;
                assert_eq!(ob.counters.timeouts, 0, "all messages must get through");
                assert!(ob.counters.retries >= 8, "each message needed 2 retries");
                (ob.counters, Vec::new())
            } else {
                let mut ib = InBox::new(Some(ACK));
                let mut got = Vec::new();
                let deadline = comm.now() + Duration::from_secs(5);
                while got.len() < 4 && comm.now() < deadline {
                    if let Some((src, frame)) =
                        comm.recv_any_timeout(DATA, Duration::from_millis(2)).await
                    {
                        if let Some(body) = ib.accept(&comm, src, frame).await {
                            got.push(body);
                        }
                    }
                }
                // Absorb stray retransmissions so late frames don't
                // linger (harmless either way — the world is ending).
                while let Some((src, frame)) = comm.try_recv_any(DATA) {
                    ib.accept(&comm, src, frame).await;
                }
                (ib.counters, got)
            }
        })
        .unwrap();
        let (_, got) = &out.results[1];
        assert_eq!(
            got.as_slice(),
            &[vec![0, 0, 0], vec![1, 1, 1], vec![2, 2, 2], vec![3, 3, 3]],
            "payloads delivered intact, in order, exactly once"
        );
        assert!(inj.drops.load(Ordering::Relaxed) >= 8);
    }

    /// Drops every data attempt: permanent link loss.
    struct DropAll;
    impl FaultInjector for DropAll {
        fn on_send(&self, _s: usize, _d: usize, tag: u32, _q: u64, _b: &mut Vec<u8>) -> SendFate {
            if tag == DATA {
                SendFate::Drop
            } else {
                SendFate::Deliver
            }
        }
    }

    #[test]
    fn permanent_loss_terminates_with_timeouts_not_hangs() {
        let opts = RunOptions::default().with_injector(Arc::new(DropAll));
        let out = World::run_opts(2, opts, |mut comm| async move {
            if comm.rank() == 0 {
                let mut ob = OutBox::new(0, ACK, Some(policy()));
                ob.send(&comm, 1, DATA, vec![42]).await;
                let deadline = comm.now() + Duration::from_millis(400);
                ob.drain(&mut comm, deadline).await;
                ob.counters
            } else {
                let mut ib = InBox::new(Some(ACK));
                let mut counters = RecoveryCounters::default();
                while let Some((src, frame)) =
                    comm.recv_any_timeout(DATA, Duration::from_millis(60)).await
                {
                    ib.accept(&comm, src, frame).await;
                }
                counters.merge(&ib.counters);
                counters
            }
        })
        .unwrap();
        assert_eq!(out.results[0].timeouts, 1, "sender gave up on the message");
        assert!(out.results[0].retries > 0);
    }

    /// Corrupts the first attempt of each message (checksum-detectable).
    struct CorruptFirst {
        hits: AtomicU64,
    }
    impl FaultInjector for CorruptFirst {
        fn on_send(
            &self,
            src: usize,
            _d: usize,
            tag: u32,
            _q: u64,
            data: &mut Vec<u8>,
        ) -> SendFate {
            if src == 0 && tag == DATA {
                if let Some((KIND_DATA, _, 0)) = peek_frame(data) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    *data.last_mut().unwrap() ^= 0xff;
                    return SendFate::Corrupt;
                }
            }
            SendFate::Deliver
        }
    }

    #[test]
    fn corruption_is_detected_and_healed_by_retransmission() {
        let inj = Arc::new(CorruptFirst {
            hits: AtomicU64::new(0),
        });
        let opts = RunOptions::default().with_injector(inj.clone());
        let out = World::run_opts(2, opts, |mut comm| async move {
            if comm.rank() == 0 {
                let mut ob = OutBox::new(0, ACK, Some(policy()));
                ob.send(&comm, 1, DATA, vec![7; 32]).await;
                let deadline = comm.now() + Duration::from_secs(5);
                ob.drain(&mut comm, deadline).await;
                assert_eq!(ob.counters.timeouts, 0);
                (ob.counters, None)
            } else {
                let mut ib = InBox::new(Some(ACK));
                let deadline = comm.now() + Duration::from_secs(5);
                let mut body = None;
                while body.is_none() && comm.now() < deadline {
                    if let Some((src, frame)) =
                        comm.recv_any_timeout(DATA, Duration::from_millis(2)).await
                    {
                        body = ib.accept(&comm, src, frame).await;
                    }
                }
                while let Some((src, frame)) = comm.try_recv_any(DATA) {
                    ib.accept(&comm, src, frame).await;
                }
                (ib.counters, body)
            }
        })
        .unwrap();
        let (rx_counters, body) = &out.results[1];
        assert_eq!(
            body.as_deref(),
            Some(&[7u8; 32][..]),
            "healed payload intact"
        );
        assert!(rx_counters.corrupt_dropped >= 1, "corruption was detected");
        assert_eq!(inj.hits.load(Ordering::Relaxed), 1);
    }

    /// Counts every send on the ack tag and records what travels on the
    /// data tag.
    struct Wiretap {
        acks: AtomicU64,
        data: std::sync::Mutex<Vec<Vec<u8>>>,
    }
    impl FaultInjector for Wiretap {
        fn on_send(&self, _s: usize, _d: usize, tag: u32, _q: u64, b: &mut Vec<u8>) -> SendFate {
            if tag == ACK {
                self.acks.fetch_add(1, Ordering::Relaxed);
            } else if tag == DATA {
                self.data.lock().unwrap().push(b.clone());
            }
            SendFate::Deliver
        }
    }

    #[test]
    fn pass_through_pair_moves_the_body_and_nothing_else() {
        let tap = Arc::new(Wiretap {
            acks: AtomicU64::new(0),
            data: std::sync::Mutex::new(Vec::new()),
        });
        let opts = RunOptions::default().with_injector(tap.clone());
        let out = World::run_opts(2, opts, |mut comm| async move {
            let (mut ob, mut ib) = pair(comm.rank(), ACK, None);
            if comm.rank() == 0 {
                ob.send(&comm, 1, DATA, vec![9, 8, 7]).await;
                assert_eq!(ob.pending(), 0, "nothing is retained");
                // Neither may receive: a blocking wait on the ack tag
                // would be reported as a deadlock, a timed one would
                // fire a timer.
                ob.poll(&mut comm).await;
                ob.drain(&mut comm, Duration::MAX).await;
                assert_eq!(ob.counters, RecoveryCounters::default());
                None
            } else {
                let (src, frame) = comm.recv_any(DATA).await;
                let body = ib.accept(&comm, src, frame).await;
                assert_eq!(ib.counters, RecoveryCounters::default());
                body
            }
        })
        .unwrap();
        assert_eq!(out.results[1].as_deref(), Some(&[9u8, 8, 7][..]));
        assert_eq!(*tap.data.lock().unwrap(), vec![vec![9u8, 8, 7]]);
        assert_eq!(tap.acks.load(Ordering::Relaxed), 0, "no ack is ever sent");
        assert_eq!(out.sim.expect("event core").timer_fires, 0);
    }
}
#[cfg(test)]
mod sizes {
    use super::*;
    #[test]
    fn print_sizes() {
        fn sz<F: std::future::Future>(_: &F) -> usize {
            std::mem::size_of::<F>()
        }
        let out = pvr_mpisim::World::run_opts(
            1,
            pvr_mpisim::RunOptions::default(),
            |mut comm| async move {
                let (mut ob, mut ib) = pair(0, 1, None);
                let a = sz(&ib.accept(&comm, 0, Vec::new()));
                let s = sz(&ob.send(&comm, 0, 1, Vec::new()));
                let c = sz(&comm.send(0, 1, Vec::new()));
                let r = sz(&comm.recv_any(1));
                let rt = sz(&comm.recv_any_timeout(1, Duration::ZERO));
                let p = sz(&ob.poll(&mut comm));
                let d = sz(&ob.drain(&mut comm, Duration::ZERO));
                (a, s, c, r, rt, p, d)
            },
        )
        .unwrap();
        eprintln!(
            "accept, ob.send, comm.send, recv_any, recv_any_timeout, poll, drain = {:?}",
            out.results[0]
        );
    }
}
