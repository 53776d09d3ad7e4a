//! Exhaustive interleaving exploration — the sound upgrade of the
//! sampled checks.
//!
//! [`wildcard_races`] and
//! [`classify_races`](crate::race::classify_races) *detect* that one
//! observed trace had scheduler-dependent matches;
//! [`probe_order_independence`](crate::replay::probe_order_independence)
//! *samples* a handful of alternative orders. Neither can conclude
//! "no order breaks this program". This module can, at small n: it
//! drives `pvr-mc`'s DPOR explorer over every inequivalent
//! wildcard-match interleaving and checks each one for result
//! bit-identity, deadlock-freedom, and message conservation.
//!
//! `explore_exhaustive` supersedes `classify_races` wherever the rank
//! count is small enough to enumerate (the `verify_mc` sweep covers
//! n ≤ 8); the sampled probes remain the tool for paper-scale worlds,
//! now with a calibrated meaning — they sample the space this module
//! exhausts.

use std::sync::Arc;

use pvr_mc::{explore, McOptions, McReport};
use pvr_mpisim::{Comm, MatchPolicy, RunOptions, World};

use crate::race::{wildcard_races, RacePair};

/// An exhaustive verdict: the DPOR report plus the baseline trace's
/// observed races, so callers see *which* wildcard streams made the
/// space worth exploring.
#[derive(Debug)]
pub struct ExhaustiveReport<T> {
    pub mc: McReport<T>,
    /// Races observed in the baseline (min-source) trace. Empty races
    /// with `mc.stats.traces == 1` means the program was
    /// order-deterministic to begin with.
    pub baseline_races: Vec<RacePair>,
}

impl<T> ExhaustiveReport<T> {
    /// True iff every inequivalent interleaving was explored and none
    /// violated any invariant.
    pub fn verified(&self) -> bool {
        self.mc.verified()
    }
}

/// Exhaustively verify `program` on `n` ranks: explore all
/// inequivalent wildcard-match interleavings (see [`pvr_mc::explore`])
/// and collect the baseline trace's wildcard races for context.
pub fn explore_exhaustive<T, F, Fut>(n: usize, program: F, opts: &McOptions) -> ExhaustiveReport<T>
where
    T: Send + PartialEq + Clone,
    F: Fn(Comm) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = T>,
{
    // One plain traced run for the race census (cheap next to the
    // exploration itself).
    let baseline_races = World::run_opts(
        n,
        RunOptions::default()
            .policy(MatchPolicy::Guided(Arc::new(Default::default())))
            .traced(),
        &program,
    )
    .ok()
    .and_then(|out| out.trace)
    .map(|t| wildcard_races(&t))
    .unwrap_or_default();

    ExhaustiveReport {
        mc: explore(n, program, opts),
        baseline_races,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhausts_a_racy_fan_in_and_reports_its_races() {
        // Three concurrent senders into rank 0; order-independent
        // result. The sampled probes would call this "racy but looks
        // fine"; exhaustion proves it.
        let program = |mut comm: Comm| async move {
            if comm.rank() == 0 {
                let mut v: Vec<usize> = Vec::with_capacity(3);
                for _ in 0..3 {
                    v.push(comm.recv_any(7).await.0);
                }
                v.sort_unstable();
                v
            } else {
                comm.send(0, 7, vec![comm.rank() as u8]).await;
                Vec::new()
            }
        };
        let report = explore_exhaustive(4, program, &McOptions::default());
        assert!(report.verified(), "violations: {:?}", report.mc.violations);
        assert_eq!(report.mc.stats.traces, 6);
        assert!(
            !report.baseline_races.is_empty(),
            "three concurrent senders must race in the baseline trace"
        );
    }

    #[test]
    fn deterministic_programs_have_one_trace_and_no_races() {
        let program = |mut comm: Comm| async move {
            match comm.rank() {
                0 => comm.recv_from(1, 3).await[0],
                _ => {
                    comm.send(0, 3, vec![9]).await;
                    0u8
                }
            }
        };
        let report = explore_exhaustive(2, program, &McOptions::default());
        assert!(report.verified());
        assert_eq!(report.mc.stats.traces, 1);
        assert!(report.baseline_races.is_empty());
    }
}
