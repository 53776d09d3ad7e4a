//! Storage-side fault model and recovery accounting.
//!
//! The paper's I/O study ran against a GPFS installation the authors
//! called "unstable during this time" (Section V): servers dropped out,
//! bandwidth sagged, request latencies spiked. This module makes those
//! failure modes first-class for the [`StripedStore`] simulation and the
//! real [`twophase`](crate::twophase) byte path:
//!
//! * [`ServerFaults`] — per-server state: down, degraded streaming
//!   bandwidth, elevated per-request overhead.
//! * [`IoRecovery`] — the client-side policy: per-request retries with
//!   exponential backoff, then stripe-replica failover (read the replica
//!   server when the primary stays down), with the extra traffic
//!   accounted rather than hidden.
//! * [`window_fault_audit`] — the per-window verdict the executing
//!   path (the fault-tolerant scatter of `pvr-core`'s message-passing
//!   executor) derives its behaviour from.
//!
//! Everything here advances a *virtual* clock (seconds in the returned
//! accounting); nothing sleeps.

use pvr_formats::extent::{coalesce, Extent};

use crate::server::StripedStore;

/// Per-server fault state for a [`StripedStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerFaults {
    /// Server is unreachable (requests time out).
    pub down: Vec<bool>,
    /// Multiplier on the server's streaming bandwidth (1.0 = healthy).
    pub bw_factor: Vec<f64>,
    /// Additional per-request overhead, seconds (0.0 = healthy).
    pub extra_overhead: Vec<f64>,
}

impl ServerFaults {
    /// All `n` servers healthy.
    pub fn none(n: usize) -> Self {
        ServerFaults {
            down: vec![false; n],
            bw_factor: vec![1.0; n],
            extra_overhead: vec![0.0; n],
        }
    }

    /// Any server down or degraded?
    pub fn any(&self) -> bool {
        self.down.iter().any(|&d| d)
            || self.bw_factor.iter().any(|&f| f < 1.0)
            || self.extra_overhead.iter().any(|&o| o > 0.0)
    }

    pub fn is_down(&self, server: usize) -> bool {
        self.down.get(server).copied().unwrap_or(false)
    }

    /// Mark one server down (extends the vectors if needed).
    #[cfg(test)]
    fn set_down(&mut self, server: usize) {
        if server >= self.down.len() {
            let n = server + 1;
            self.down.resize(n, false);
            self.bw_factor.resize(n, 1.0);
            self.extra_overhead.resize(n, 0.0);
        }
        self.down[server] = true;
    }
}

/// Client-side I/O recovery policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRecovery {
    /// Read the stripe replica when the primary server stays down.
    pub failover: bool,
    /// The replica of stripe data on server `s` lives on
    /// `(s + replica_offset) % servers` (PVFS-style declustered copy).
    pub replica_offset: usize,
    /// Retries against the primary before giving up / failing over.
    pub max_retries: u32,
    /// First retry delay, seconds; doubles per attempt.
    pub backoff_s: f64,
}

impl Default for IoRecovery {
    fn default() -> Self {
        IoRecovery {
            failover: true,
            replica_offset: 1,
            max_retries: 4,
            backoff_s: 1e-3,
        }
    }
}

impl IoRecovery {
    /// No retries, no failover: a down server's bytes are simply lost.
    pub fn none() -> Self {
        IoRecovery {
            failover: false,
            replica_offset: 1,
            max_retries: 0,
            backoff_s: 0.0,
        }
    }

    /// Total serial backoff delay of a full (failed) retry ladder.
    pub fn ladder_delay(&self) -> f64 {
        // backoff * (1 + 2 + 4 + ...) over max_retries attempts.
        self.backoff_s * ((1u64 << self.max_retries.min(62)) - 1) as f64
    }
}

/// The replica server of `server` under `rec`.
pub fn replica_of(store: &StripedStore, server: usize, rec: &IoRecovery) -> usize {
    (server + rec.replica_offset) % store.servers
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
    /// Serial retry/backoff delay charged to the reading client,
    /// seconds (virtual).
    pub delay_s: f64,
}

impl WindowAudit {
    pub fn merge(&mut self, other: &WindowAudit) {
        self.unrecoverable
            .extend(other.unrecoverable.iter().copied());
        coalesce(&mut self.unrecoverable);
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.failover_bytes += other.failover_bytes;
        self.delay_s += other.delay_s;
    }

    pub fn unrecovered_bytes(&self) -> u64 {
        self.unrecoverable.iter().map(|e| e.len).sum()
    }
}

/// Audit one window read against the fault state: which stripe pieces
/// hit a down primary, which of those a replica rescues, and which
/// bytes stay unrecoverable. Both the priced store and the executing
/// two-phase path consult this, so their verdicts agree by
/// construction.
pub fn window_fault_audit(
    store: &StripedStore,
    faults: &ServerFaults,
    rec: &IoRecovery,
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
        // The primary never answers: burn the retry ladder...
        audit.retries += u64::from(rec.max_retries);
        audit.delay_s += rec.ladder_delay();
        // ...then fail over, if allowed and the replica is alive.
        let replica = replica_of(store, srv, rec);
        if rec.failover && !faults.is_down(replica) {
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
        let audit = window_fault_audit(
            &s,
            &ServerFaults::none(4),
            &IoRecovery::default(),
            Extent::new(0, 8000),
        );
        assert_eq!(audit, WindowAudit::default());
    }

    #[test]
    fn down_server_fails_over_to_replica() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(0);
        let rec = IoRecovery::default();
        // One full-stride window touches every server once.
        let audit = window_fault_audit(&s, &faults, &rec, Extent::new(0, 4000));
        assert_eq!(audit.unrecovered_bytes(), 0);
        assert_eq!((audit.failovers, audit.failover_bytes), (1, 1000));
        assert_eq!(audit.retries, u64::from(rec.max_retries));
        assert_eq!(audit.delay_s, rec.ladder_delay());
    }

    #[test]
    fn down_replica_too_means_unrecoverable() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(1);
        faults.set_down(2); // replica of 1 at offset 1
        let audit = window_fault_audit(&s, &faults, &IoRecovery::default(), Extent::new(0, 4000));
        assert_eq!(audit.unrecoverable, vec![Extent::new(1000, 1000)]);
        // Server 2's own stripe still failed over to 3.
        assert_eq!(audit.failover_bytes, 1000);
    }

    #[test]
    fn audit_is_deterministic_and_coalesced() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(0);
        let rec = IoRecovery::none();
        // A window spanning two turns of the round-robin hits server 0
        // twice; the two lost pieces stay distinct ranges.
        let a = window_fault_audit(&s, &faults, &rec, Extent::new(0, 8000));
        let b = window_fault_audit(&s, &faults, &rec, Extent::new(0, 8000));
        assert_eq!(a, b);
        assert_eq!(a.unrecovered_bytes(), 2000);
        assert_eq!(a.unrecoverable.len(), 2);
    }

    #[test]
    fn ladder_delay_is_exponential() {
        let rec = IoRecovery {
            max_retries: 3,
            backoff_s: 1.0,
            ..IoRecovery::default()
        };
        assert!((rec.ladder_delay() - 7.0).abs() < 1e-12); // 1 + 2 + 4
        assert_eq!(IoRecovery::none().ladder_delay(), 0.0);
    }
}
