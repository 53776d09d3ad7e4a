//! Recovery policy knobs and the counters that report what recovery did.

use std::time::Duration;

use crate::link::LinkPolicy;

/// Tunable recovery behaviour for a fault-tolerant frame.
///
/// Everything is a deadline or a bounded retry: no unbounded wait exists
/// anywhere in the recovery path, which is how a run under an arbitrary
/// [`crate::FaultPlan`] is guaranteed to terminate (with a degraded
/// frame in the worst case) rather than trip the simulator watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Receive-poll granularity inside deadline loops.
    pub poll: Duration,
    /// How long a framed sender waits for an ack before retransmitting.
    pub ack_timeout: Duration,
    /// Multiplier applied to `ack_timeout` after each retransmission.
    pub backoff: f64,
    /// Retransmissions per message before the sender gives up.
    pub max_retries: u32,
    /// Wall-clock budget for each pipeline stage (I/O scatter, fragment
    /// exchange, tile gather). When it expires the receiver proceeds
    /// with whatever arrived.
    pub stage_deadline: Duration,
    /// Post-stage grace period for draining outstanding acks.
    pub drain: Duration,
    /// Storage: read a stripe from its replica when the primary is down.
    pub io_failover: bool,
    /// Storage: replica placement offset (stripe `s` also lives on
    /// server `(primary + offset) % servers`).
    pub io_replica_offset: usize,
    /// Storage: retries against a down primary before failing over.
    pub io_max_retries: u32,
    /// Storage: base of the exponential retry backoff, seconds (virtual
    /// time — priced, never slept).
    pub io_backoff_s: f64,
    /// How long a receiver waits on a missing peer before treating it
    /// as failed and starting recovery (orphan-block adoption, scatter
    /// self-heal, tile rebuild). Must sit well below `stage_deadline`
    /// so adoption has time to finish, and above the largest straggle
    /// recovery should wait out rather than hedge against.
    pub suspicion: Duration,
    /// Per-frame recovery budget, estimated (virtual) seconds. Every
    /// recovery render charges its modeled cost against this ledger;
    /// `None` means unbounded (always heal at full quality). Virtual
    /// metering keeps the degradation ladder deterministic and
    /// replayable — the same plan and budget always pick the same rung.
    pub frame_budget: Option<f64>,
    /// Step multiplier of the coarse-heal rung: a coarse re-render
    /// costs `1/coarse_step_factor` of the full render and carries an
    /// explicit error bound instead of bit-identity.
    pub coarse_step_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            poll: Duration::from_millis(2),
            ack_timeout: Duration::from_millis(25),
            backoff: 2.0,
            max_retries: 8,
            stage_deadline: Duration::from_secs(5),
            drain: Duration::from_millis(250),
            io_failover: true,
            io_replica_offset: 1,
            io_max_retries: 4,
            io_backoff_s: 1e-3,
            suspicion: Duration::from_secs(1),
            frame_budget: None,
            coarse_step_factor: 4.0,
        }
    }
}

impl RecoveryPolicy {
    /// A tighter policy for small test worlds: sub-second stage
    /// deadlines so permanent-fault tests finish quickly, but retry
    /// budgets still generous enough that transient faults always
    /// recover.
    pub fn fast_test() -> Self {
        RecoveryPolicy {
            poll: Duration::from_millis(1),
            ack_timeout: Duration::from_millis(10),
            backoff: 1.5,
            max_retries: 6,
            stage_deadline: Duration::from_millis(800),
            drain: Duration::from_millis(60),
            suspicion: Duration::from_millis(120),
            ..RecoveryPolicy::default()
        }
    }

    /// The link-layer slice of this policy.
    pub fn link_policy(&self) -> LinkPolicy {
        LinkPolicy {
            ack_timeout: self.ack_timeout,
            backoff: self.backoff,
            max_retries: self.max_retries,
            poll: self.poll,
        }
    }

    /// The storage-layer slice of this policy.
    pub fn io_recovery(&self) -> pvr_pfs::IoRecovery {
        pvr_pfs::IoRecovery {
            failover: self.io_failover,
            replica_offset: self.io_replica_offset,
            max_retries: self.io_max_retries,
            backoff_s: self.io_backoff_s,
        }
    }
}

/// What recovery actually did during a frame. Additive across ranks and
/// stages via [`RecoveryCounters::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCounters {
    /// Message retransmissions (link layer).
    pub retries: u64,
    /// Messages abandoned after exhausting their retry budget.
    pub timeouts: u64,
    /// Frames dropped by the receiver for bad magic/checksum.
    pub corrupt_dropped: u64,
    /// Duplicate deliveries suppressed by the receiver.
    pub duplicate_dropped: u64,
    /// Storage requests served from a replica.
    pub io_failovers: u64,
    /// Storage retries against faulted servers (priced, virtual).
    pub io_retries: u64,
    /// Final-image tiles that missed their deadline entirely.
    pub degraded_tiles: u64,
    /// Ranks that crashed during the frame.
    pub crashed_ranks: u64,
    /// Orphaned blocks re-read and re-rendered by a surviving rank.
    pub adopted_blocks: u64,
    /// Final-image tiles rebuilt at the root after their compositor
    /// died.
    pub adopted_tiles: u64,
    /// Speculative duplicate renders requested against suspected
    /// stragglers (first-wins dedup discards the loser).
    pub hedged_renders: u64,
    /// Late fragments accepted into an already-open tile.
    pub late_fragments: u64,
    /// Bytes a rank re-read from storage to heal its own lost scatter
    /// pieces.
    pub selfheal_bytes: u64,
    /// Bytes adopters re-read from storage on behalf of dead ranks.
    pub recovery_bytes: u64,
    /// Blocks healed at the coarse (approximate) rung of the
    /// degradation ladder.
    pub approx_blocks: u64,
}

impl RecoveryCounters {
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.corrupt_dropped += other.corrupt_dropped;
        self.duplicate_dropped += other.duplicate_dropped;
        self.io_failovers += other.io_failovers;
        self.io_retries += other.io_retries;
        self.degraded_tiles += other.degraded_tiles;
        self.crashed_ranks += other.crashed_ranks;
        self.adopted_blocks += other.adopted_blocks;
        self.adopted_tiles += other.adopted_tiles;
        self.hedged_renders += other.hedged_renders;
        self.late_fragments += other.late_fragments;
        self.selfheal_bytes += other.selfheal_bytes;
        self.recovery_bytes += other.recovery_bytes;
        self.approx_blocks += other.approx_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_additive() {
        let mut a = RecoveryCounters {
            retries: 2,
            timeouts: 1,
            ..RecoveryCounters::default()
        };
        let b = RecoveryCounters {
            retries: 3,
            io_failovers: 4,
            crashed_ranks: 1,
            adopted_blocks: 2,
            hedged_renders: 1,
            selfheal_bytes: 64,
            ..RecoveryCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.retries, 5);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.io_failovers, 4);
        assert_eq!(a.crashed_ranks, 1);
        assert_eq!(a.adopted_blocks, 2);
        assert_eq!(a.hedged_renders, 1);
        assert_eq!(a.selfheal_bytes, 64);
    }

    #[test]
    fn policy_slices_are_consistent() {
        let p = RecoveryPolicy::default();
        let lp = p.link_policy();
        assert_eq!(lp.ack_timeout, p.ack_timeout);
        assert_eq!(lp.max_retries, p.max_retries);
        let io = p.io_recovery();
        assert!(io.failover);
        assert_eq!(io.replica_offset, 1);
        // fast_test keeps retry budgets able to beat small DropFirst counts.
        assert!(RecoveryPolicy::fast_test().max_retries >= 4);
        // Suspicion must leave the recovery path room before the stage
        // deadline expires, on both policies.
        for p in [RecoveryPolicy::default(), RecoveryPolicy::fast_test()] {
            assert!(p.suspicion * 2 < p.stage_deadline);
            assert!(p.coarse_step_factor > 1.0);
            assert!(p.frame_budget.is_none());
        }
    }
}
