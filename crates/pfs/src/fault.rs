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
//! * [`window_fault_audit`] — the shared per-window verdict both the
//!   priced path ([`StripedStore::service_faulty`]) and the executing
//!   path (the fault-tolerant scatter of `pvr-core`'s message-passing
//!   executor) derive their behaviour from, so the model and the byte
//!   path cannot drift apart.
//!
//! Everything here advances a *virtual* clock (seconds in the returned
//! accounting); nothing sleeps.

use pvr_formats::extent::{coalesce, Extent};

use crate::server::{StoreReport, StripedStore};

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
    pub fn set_down(&mut self, server: usize) {
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

/// [`StoreReport`] of a degraded service run, plus the recovery
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyStoreReport {
    /// The per-server load report with failover traffic in place (a
    /// replica's bytes count against the replica server).
    pub base: StoreReport,
    pub retries: u64,
    pub failover_requests: u64,
    pub failover_bytes: u64,
    /// Bytes neither retries nor replicas could serve.
    pub unserved_bytes: u64,
    /// Serial retry/backoff delay included in the makespan, seconds.
    pub retry_delay_s: f64,
}

impl StripedStore {
    /// Service an access list against a faulted store under a recovery
    /// policy. Down primaries cost the retry ladder, then their pieces
    /// either move to the replica server (whose degraded bandwidth and
    /// overhead then price them) or go unserved. Degraded servers
    /// (`bw_factor`, `extra_overhead`) serve their load slower.
    pub fn service_faulty(
        &self,
        accesses: &[Extent],
        faults: &ServerFaults,
        rec: &IoRecovery,
    ) -> FaultyStoreReport {
        let mut server_bytes = vec![0u64; self.servers];
        let mut server_requests = vec![0usize; self.servers];
        let mut retries = 0u64;
        let mut failover_requests = 0u64;
        let mut failover_bytes = 0u64;
        let mut unserved_bytes = 0u64;
        let mut retry_delay_s = 0.0f64;

        for &e in accesses {
            if e.is_empty() {
                continue;
            }
            let audit = window_fault_audit(self, faults, rec, e);
            retries += audit.retries;
            retry_delay_s += audit.delay_s;
            failover_requests += audit.failovers;
            failover_bytes += audit.failover_bytes;
            unserved_bytes += audit.unrecovered_bytes();

            // Distribute the access stripe-by-stripe to the server that
            // actually serves each piece (primary, replica, or nobody).
            let first = e.offset / self.stripe_unit;
            let last = (e.end() - 1) / self.stripe_unit;
            let mut touched = vec![false; self.servers];
            for stripe in first..=last {
                let primary = (stripe % self.servers as u64) as usize;
                let s_lo = stripe * self.stripe_unit;
                let lo = e.offset.max(s_lo);
                let hi = e.end().min(s_lo + self.stripe_unit);
                let srv = if !faults.is_down(primary) {
                    primary
                } else {
                    let replica = replica_of(self, primary, rec);
                    if rec.failover && !faults.is_down(replica) {
                        replica
                    } else {
                        continue; // unserved; already accounted
                    }
                };
                server_bytes[srv] += hi - lo;
                if !touched[srv] {
                    touched[srv] = true;
                    server_requests[srv] += 1;
                }
            }
        }

        let total_bytes: u64 = server_bytes.iter().sum();
        let makespan = server_bytes
            .iter()
            .zip(&server_requests)
            .enumerate()
            .map(|(s, (&b, &r))| {
                let bw = self.server_bw * faults.bw_factor.get(s).copied().unwrap_or(1.0).max(1e-6);
                let ov =
                    self.request_overhead + faults.extra_overhead.get(s).copied().unwrap_or(0.0);
                b as f64 / bw + r as f64 * ov
            })
            .fold(0.0f64, f64::max)
            + retry_delay_s;
        FaultyStoreReport {
            base: StoreReport {
                makespan,
                server_bytes,
                server_requests,
                total_bytes,
            },
            retries,
            failover_requests,
            failover_bytes,
            unserved_bytes,
            retry_delay_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(servers: usize, stripe: u64) -> StripedStore {
        StripedStore {
            servers,
            stripe_unit: stripe,
            server_bw: 100.0e6,
            request_overhead: 1e-3,
        }
    }

    #[test]
    fn healthy_store_matches_plain_service() {
        let s = store(4, 1000);
        let accesses: Vec<Extent> = (0..6).map(|i| Extent::new(i * 1500, 900)).collect();
        let plain = s.service(&accesses);
        let ft = s.service_faulty(&accesses, &ServerFaults::none(4), &IoRecovery::default());
        assert_eq!(ft.base, plain);
        assert_eq!(ft.retries, 0);
        assert_eq!(ft.unserved_bytes, 0);
    }

    #[test]
    fn down_server_fails_over_to_replica() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(0);
        let rec = IoRecovery::default();
        // One full-stride access touches every server once.
        let ft = s.service_faulty(&[Extent::new(0, 4000)], &faults, &rec);
        assert_eq!(ft.unserved_bytes, 0);
        assert_eq!(ft.failover_bytes, 1000);
        assert!(ft.retries >= u64::from(rec.max_retries));
        // Server 0's stripe landed on server 1 (its replica).
        assert_eq!(ft.base.server_bytes[0], 0);
        assert_eq!(ft.base.server_bytes[1], 2000);
        assert!(ft.base.makespan > s.service(&[Extent::new(0, 4000)]).makespan);
    }

    #[test]
    fn no_failover_loses_the_down_servers_bytes() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(2);
        let ft = s.service_faulty(&[Extent::new(0, 8000)], &faults, &IoRecovery::none());
        assert_eq!(ft.unserved_bytes, 2000);
        assert_eq!(ft.failover_bytes, 0);
        assert_eq!(ft.base.total_bytes, 6000);
    }

    #[test]
    fn down_replica_too_means_unrecoverable() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.set_down(1);
        faults.set_down(2); // replica of 1 at offset 1
        let rec = IoRecovery::default();
        let ft = s.service_faulty(&[Extent::new(0, 4000)], &faults, &rec);
        assert_eq!(ft.unserved_bytes, 1000);
        // Server 2's own stripe still failed over to 3.
        assert_eq!(ft.failover_bytes, 1000);
    }

    #[test]
    fn degraded_bandwidth_slows_the_makespan() {
        let s = store(4, 1000);
        let mut faults = ServerFaults::none(4);
        faults.bw_factor[3] = 0.1;
        faults.extra_overhead[3] = 5e-3;
        let healthy = s.service(&[Extent::new(0, 8000)]).makespan;
        let ft = s.service_faulty(&[Extent::new(0, 8000)], &faults, &IoRecovery::default());
        assert!(ft.base.makespan > healthy * 2.0);
        assert_eq!(ft.unserved_bytes, 0);
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
