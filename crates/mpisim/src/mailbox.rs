//! The per-rank mailbox: messages sent to a rank and not yet matched.
//!
//! A send files its envelope straight into the destination's
//! [`PendingSet`] (there is no separate arrival queue to drain), and a
//! receive matches out of it. Envelopes live in a slab whose vacant
//! slots are chained and reused, so a message is moved once on the way
//! in and once on the way out, and a mailbox allocates only when it
//! grows past its high-water mark. A slot is 56 bytes: the 48-byte
//! envelope (`u32` source and tag, sequence number, arrival stamp,
//! payload; a traced send's clock waits beside the world, not in the
//! slot) and the next slot's index. The ordered index holds one small
//! entry per `(tag, src)` stream with something pending — the stream's
//! first and last slot, its messages linked through the slots in send
//! order (non-overtaking order). The first stream of a tag is the
//! min-source match and the sources of a tag are a range walk, so a
//! wildcard match over `k` pending sources is `O(log k)`: the difference
//! between `O(k)` and `O(k²)` for a 32K-rank gather.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::Envelope;

/// "No slot": the end of a stream or of the vacant chain.
const NIL: u32 = u32::MAX;

/// One slab entry: a pending envelope and the next slot of its stream,
/// or a vacant slot and the next vacant one.
struct Slot {
    env: Option<Envelope>,
    next: u32,
}

/// First and last slot of one `(tag, src)` stream.
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// Messages delivered to one rank but not yet matched.
pub(crate) struct PendingSet {
    slots: Vec<Slot>,
    /// First vacant slot.
    vacant: u32,
    /// The streams with a message pending, ordered by `(tag, src)`.
    streams: BTreeMap<(u32, u32), Fifo>,
}

impl Default for PendingSet {
    fn default() -> Self {
        PendingSet {
            slots: Vec::new(),
            vacant: NIL,
            streams: BTreeMap::new(),
        }
    }
}

impl PendingSet {
    /// File `env` behind the pending messages of its stream.
    pub(crate) fn push(&mut self, env: Envelope) {
        let key = (env.tag, env.src);
        let slot = Slot {
            env: Some(env),
            next: NIL,
        };
        let at = if self.vacant == NIL {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending messages")
        } else {
            let at = self.vacant;
            self.vacant = std::mem::replace(&mut self.slots[at as usize], slot).next;
            at
        };
        match self.streams.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Fifo { head: at, tail: at });
            }
            Entry::Occupied(mut e) => {
                let fifo = e.get_mut();
                self.slots[fifo.tail as usize].next = at;
                fifo.tail = at;
            }
        }
    }

    /// The oldest pending message from `src` with `tag`.
    pub(crate) fn pop(&mut self, src: usize, tag: u32) -> Option<Envelope> {
        let Entry::Occupied(mut e) = self.streams.entry((tag, src as u32)) else {
            return None;
        };
        let fifo = *e.get();
        let slot = &mut self.slots[fifo.head as usize];
        let env = slot.env.take();
        if fifo.head == fifo.tail {
            e.remove();
        } else {
            e.get_mut().head = slot.next;
        }
        slot.next = self.vacant;
        self.vacant = fifo.head;
        env
    }

    /// The streams of `tag`, ascending by source.
    fn streams_of(&self, tag: u32) -> impl Iterator<Item = (usize, Fifo)> + '_ {
        let range = self.streams.range((tag, 0)..=(tag, u32::MAX));
        range.map(|(&(_, src), &fifo)| (src as usize, fifo))
    }

    /// Lowest source with a pending message of `tag`.
    pub(crate) fn first_src(&self, tag: u32) -> Option<usize> {
        self.streams_of(tag).next().map(|(src, _)| src)
    }

    /// Whether a message from `src` with `tag` is pending.
    pub(crate) fn has(&self, src: usize, tag: u32) -> bool {
        self.streams.contains_key(&(tag, src as u32))
    }

    /// The oldest pending message of each source of `tag`, ascending by
    /// source.
    pub(crate) fn fronts(&self, tag: u32) -> impl Iterator<Item = &Envelope> + '_ {
        self.streams_of(tag).map(|(_, fifo)| {
            let slot = &self.slots[fifo.head as usize];
            slot.env
                .as_ref()
                .expect("a stream's head slot holds its oldest message")
        })
    }

    /// All sources with a pending message of `tag`, ascending.
    pub(crate) fn sources(&self, tag: u32) -> impl Iterator<Item = usize> + '_ {
        self.streams_of(tag).map(|(src, _)| src)
    }
}
