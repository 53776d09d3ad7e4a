//! Storage-side fault model and recovery accounting.
//!
//! The paper's I/O study ran against a GPFS installation the authors
//! called "unstable during this time" (Section V): servers dropped out.
//! This module models exactly that for the [`StripedStore`] layout the
//! executing read path audits against:
//!
//! * [`ServerFaults`] — which servers are down.
//! * [`window_fault_audit`] — the per-window verdict the executing
//!   path (the fault-tolerant scatter of `pvr-core`'s message-passing
//!   executor) derives its behaviour from: a stripe piece on a down
//!   primary burns [`MAX_RETRIES`] retries, then, if failover is on and
//!   the replica ([`replica_of`]) is alive, is read from the replica;
//!   otherwise its bytes are unrecoverable.

use pvr_formats::extent::{coalesce, Extent};

use crate::server::StripedStore;

/// The replica of stripe data on server `s` lives on
/// `(s + REPLICA_OFFSET) % servers` (PVFS-style declustered copy).
pub const REPLICA_OFFSET: usize = 1;

/// Retries a reader spends against a down primary before failing over
/// (or giving up).
pub const MAX_RETRIES: u32 = 4;

/// Per-server fault state for a [`StripedStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerFaults {
    /// Server is unreachable (requests time out).
    pub down: Vec<bool>,
}

impl ServerFaults {
    /// All `n` servers healthy.
    pub fn none(n: usize) -> Self {
        ServerFaults {
            down: vec![false; n],
        }
    }

    /// Any server down?
    pub fn any(&self) -> bool {
        self.down.contains(&true)
    }

    pub fn is_down(&self, server: usize) -> bool {
        self.down.get(server).copied().unwrap_or(false)
    }

    /// Mark one server down (extends the vector if needed).
    #[cfg(test)]
    fn set_down(&mut self, server: usize) {
        if server >= self.down.len() {
            self.down.resize(server + 1, false);
        }
        self.down[server] = true;
    }
}

/// The replica server of `server` on a store of `servers` servers.
pub fn replica_of(server: usize, servers: usize) -> usize {
    (server + REPLICA_OFFSET) % servers
}

/// Verdict for one collective-buffer window against a faulted store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowAudit {
    /// Byte ranges no retry or replica could serve (coalesced).
    pub unrecoverable: Vec<Extent>,
    /// Retry attempts spent against down primaries.
    pub retries: u64,
    /// Stripe pieces redirected to a replica.
    pub failovers: u64,
    /// Bytes read from replicas instead of primaries.
    pub failover_bytes: u64,
}

impl WindowAudit {
    pub fn unrecovered_bytes(&self) -> u64 {
        self.unrecoverable.iter().map(|e| e.len).sum()
    }
}

/// Audit one window read against the fault state: which stripe pieces
/// hit a down primary, which of those a replica rescues (only with
/// `failover`), and which bytes stay unrecoverable.
pub fn window_fault_audit(
    store: &StripedStore,
    faults: &ServerFaults,
    failover: bool,
    window: Extent,
) -> WindowAudit {
    let mut audit = WindowAudit::default();
    if window.is_empty() || !faults.any() {
        return audit;
    }
    let first = window.offset / store.stripe_unit;
    let last = (window.end() - 1) / store.stripe_unit;
    for stripe in first..=last {
        let srv = (stripe % store.servers as u64) as usize;
        if !faults.is_down(srv) {
            continue;
        }
        let s_lo = stripe * store.stripe_unit;
        let lo = window.offset.max(s_lo);
        let hi = window.end().min(s_lo + store.stripe_unit);
        let piece = Extent::new(lo, hi - lo);
        // The primary never answers: burn the retries...
        audit.retries += u64::from(MAX_RETRIES);
        // ...then fail over, if allowed and the replica is alive.
        if failover && !faults.is_down(replica_of(srv, store.servers)) {
            audit.failovers += 1;
            audit.failover_bytes += piece.len;
        } else {
            audit.unrecoverable.push(piece);
        }
    }
    coalesce(&mut audit.unrecoverable);
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(servers: usize, stripe: u64) -> StripedStore {
        StripedStore {
            servers,
            stripe_unit: stripe,
        }
    }

    #[test]
    fn healthy_store_loses_nothing() {
        let s = store(4, 1000);
        let audit = window_fault_audit(&s, &ServerFaults::none(4), true, Extent::new(0, 8000));
        assert_eq!(audit, WindowAudit::default());
    }

    #[test]
    fn down_server_fails_over_to_replica() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(0);
        // One full-stride window touches every server once.
        let audit = window_fault_audit(&s, &faults, true, Extent::new(0, 4000));
        assert_eq!(audit.unrecovered_bytes(), 0);
        assert_eq!((audit.failovers, audit.failover_bytes), (1, 1000));
        assert_eq!(audit.retries, u64::from(MAX_RETRIES));
    }

    #[test]
    fn down_replica_too_means_unrecoverable() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(1);
        faults.set_down(replica_of(1, 4));
        let audit = window_fault_audit(&s, &faults, true, Extent::new(0, 4000));
        assert_eq!(audit.unrecoverable, vec![Extent::new(1000, 1000)]);
        // Server 2's own stripe still failed over to 3.
        assert_eq!(audit.failover_bytes, 1000);
    }

    #[test]
    fn audit_is_deterministic_and_coalesced() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(0);
        // A window spanning two turns of the round-robin hits server 0
        // twice; the two lost pieces stay distinct ranges.
        let a = window_fault_audit(&s, &faults, false, Extent::new(0, 8000));
        let b = window_fault_audit(&s, &faults, false, Extent::new(0, 8000));
        assert_eq!(a, b);
        assert_eq!(a.unrecovered_bytes(), 2000);
        assert_eq!(a.unrecoverable.len(), 2);
    }
}
