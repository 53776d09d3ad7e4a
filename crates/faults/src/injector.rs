//! The bridge from a declarative [`FaultPlan`] to the simulator's
//! transport hook: a [`PlanInjector`] implements
//! [`pvr_mpisim::fault::FaultInjector`] and enforces the plan's link
//! rules on every send.
//!
//! Framed messages (see [`crate::link`]) are keyed by their
//! `(msg_id, attempt)` header, so `DropFirst(k)` means "the first `k`
//! delivery attempts of each message" — exactly the transient fault a
//! retransmitting sender recovers from on attempt `k`. Unframed
//! messages fall back to a per-link send counter, so `DropFirst(k)`
//! degrades to "the first `k` sends on this link".

use std::collections::HashMap;
use std::sync::Mutex;

use pvr_mpisim::fault::{FaultInjector, SendFate};

use crate::link::peek_frame;
use crate::plan::{FaultPlan, LinkAction};

pub struct PlanInjector {
    plan: FaultPlan,
    /// Per-(src, dst, tag) send counter for the unframed fallback.
    sends: Mutex<HashMap<(usize, usize, u32), u64>>,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PlanInjector {
    pub fn new(plan: FaultPlan) -> Self {
        PlanInjector {
            plan,
            sends: Mutex::new(HashMap::new()),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Seeded Bernoulli draw for `DropProb`, a pure function of the
    /// message coordinates — reproducible across runs of the same plan.
    fn coin(&self, p: f64, src: usize, dst: usize, tag: u32, msg_id: u64, attempt: u64) -> bool {
        let h = mix(self
            .plan
            .seed
            .wrapping_add(mix((src as u64) << 32 | dst as u64))
            .wrapping_add(mix(u64::from(tag) << 40 ^ msg_id))
            .wrapping_add(mix(attempt.wrapping_add(0x9e37_79b9))));
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl FaultInjector for PlanInjector {
    fn on_send(&self, src: usize, dst: usize, tag: u32, _seq: u64, data: &mut Vec<u8>) -> SendFate {
        let Some(action) = self.plan.link_fault(src, dst, tag) else {
            return SendFate::Deliver;
        };
        // Message coordinates: frame header when present, else a
        // per-link running count (each send is its own "message", its
        // index doubling as the attempt number).
        let (msg_id, attempt) = match peek_frame(data) {
            Some((_, id, att)) => (id, u64::from(att)),
            None => {
                let mut m = self.sends.lock().unwrap();
                let c = m.entry((src, dst, tag)).or_insert(0);
                let n = *c;
                *c += 1;
                (n, n)
            }
        };
        match action {
            LinkAction::DropFirst(k) => {
                if attempt < u64::from(k) {
                    SendFate::Drop
                } else {
                    SendFate::Deliver
                }
            }
            LinkAction::DropAll => SendFate::Drop,
            LinkAction::DropProb(p) => {
                if self.coin(p, src, dst, tag, msg_id, attempt) {
                    SendFate::Drop
                } else {
                    SendFate::Deliver
                }
            }
            LinkAction::CorruptFirst(k) => {
                if attempt >= u64::from(k) {
                    SendFate::Deliver
                } else if let Some(last) = data.last_mut() {
                    // The last byte is always checksum-covered for
                    // framed messages (body, or the crc itself), so the
                    // receiver detects this as loss.
                    *last ^= 0xff;
                    SendFate::Corrupt
                } else {
                    SendFate::Drop
                }
            }
            LinkAction::DelayMs(ms) => SendFate::Delay(std::time::Duration::from_millis(ms)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{encode_frame, KIND_DATA};
    use crate::plan::{LinkFault, Pat};

    fn plan_with(action: LinkAction) -> FaultPlan {
        FaultPlan {
            seed: 7,
            links: vec![LinkFault {
                src: Pat::Is(0),
                dst: Pat::Is(1),
                tag: Some(2),
                action,
            }],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn framed_drop_first_keys_on_attempt() {
        let inj = PlanInjector::new(plan_with(LinkAction::DropFirst(2)));
        for (attempt, want_drop) in [(0u32, true), (1, true), (2, false), (3, false)] {
            let mut f = encode_frame(KIND_DATA, 5, attempt, b"xy");
            let fate = inj.on_send(0, 1, 2, 0, &mut f);
            assert_eq!(
                matches!(fate, SendFate::Drop),
                want_drop,
                "attempt {attempt}"
            );
        }
        // Unmatched link and tag deliver untouched.
        let mut f = encode_frame(KIND_DATA, 5, 0, b"xy");
        assert!(matches!(inj.on_send(1, 0, 2, 0, &mut f), SendFate::Deliver));
        assert!(matches!(inj.on_send(0, 1, 9, 0, &mut f), SendFate::Deliver));
    }

    #[test]
    fn unframed_drop_first_counts_sends_per_link() {
        let inj = PlanInjector::new(plan_with(LinkAction::DropFirst(2)));
        let fates: Vec<bool> = (0..4)
            .map(|_| {
                let mut raw = vec![1u8, 2, 3];
                matches!(inj.on_send(0, 1, 2, 0, &mut raw), SendFate::Drop)
            })
            .collect();
        assert_eq!(fates, vec![true, true, false, false]);
        // A different link has its own counter.
        let mut raw = vec![9u8];
        assert!(matches!(
            inj.on_send(0, 1, 9, 0, &mut raw),
            SendFate::Deliver
        ));
    }

    #[test]
    fn corrupt_first_flips_a_checksummed_byte() {
        let inj = PlanInjector::new(plan_with(LinkAction::CorruptFirst(1)));
        let orig = encode_frame(KIND_DATA, 3, 0, b"payload");
        let mut f = orig.clone();
        assert!(matches!(inj.on_send(0, 1, 2, 0, &mut f), SendFate::Corrupt));
        assert_ne!(f, orig);
        assert_eq!(crate::link::decode_frame(&f), None, "corruption detectable");
        // Attempt 1 passes clean.
        let mut f1 = encode_frame(KIND_DATA, 3, 1, b"payload");
        let before = f1.clone();
        assert!(matches!(
            inj.on_send(0, 1, 2, 0, &mut f1),
            SendFate::Deliver
        ));
        assert_eq!(f1, before);
        // Empty payload degrades to a drop.
        let mut empty = Vec::new();
        assert!(matches!(
            inj.on_send(0, 1, 2, 0, &mut empty),
            SendFate::Drop
        ));
    }

    #[test]
    fn drop_prob_is_deterministic_in_message_coordinates() {
        let inj = PlanInjector::new(plan_with(LinkAction::DropProb(0.5)));
        let fate_of = |msg_id: u64, attempt: u32| {
            let mut f = encode_frame(KIND_DATA, msg_id, attempt, b"z");
            matches!(inj.on_send(0, 1, 2, 0, &mut f), SendFate::Drop)
        };
        let sample: Vec<bool> = (0..64).map(|i| fate_of(i, 0)).collect();
        let again: Vec<bool> = (0..64).map(|i| fate_of(i, 0)).collect();
        assert_eq!(sample, again, "same coordinates, same fate");
        let drops = sample.iter().filter(|d| **d).count();
        assert!(
            drops > 8 && drops < 56,
            "p=0.5 should be roughly balanced: {drops}/64"
        );
        // Different seed, different pattern.
        let mut other_plan = plan_with(LinkAction::DropProb(0.5));
        other_plan.seed = 8;
        let inj2 = PlanInjector::new(other_plan);
        let sample2: Vec<bool> = (0..64)
            .map(|i| {
                let mut f = encode_frame(KIND_DATA, i, 0, b"z");
                matches!(inj2.on_send(0, 1, 2, 0, &mut f), SendFate::Drop)
            })
            .collect();
        assert_ne!(sample, sample2);
    }

    #[test]
    fn delay_and_drop_all() {
        let inj = PlanInjector::new(plan_with(LinkAction::DelayMs(3)));
        let mut f = vec![0u8];
        assert!(matches!(
            inj.on_send(0, 1, 2, 0, &mut f),
            SendFate::Delay(d) if d == std::time::Duration::from_millis(3)
        ));
        let inj = PlanInjector::new(plan_with(LinkAction::DropAll));
        for _ in 0..5 {
            assert!(matches!(inj.on_send(0, 1, 2, 0, &mut f), SendFate::Drop));
        }
    }
}
