//! Recovery orchestration policy: who adopts an orphaned block, what a
//! heal is allowed to cost, and how a fault frame's deadlines scale
//! with the frame.
//!
//! Three pieces, all deterministic and replayable from `(seed, plan,
//! config)`:
//!
//! * **Survivor assignment** ([`adopter_of`]) — when a rank is declared
//!   dead, its block is reassigned to the least-loaded surviving
//!   candidate, load measured by the calibrated
//!   [`PerfModel`] render estimate of each
//!   rank's own block, ties broken by a seeded hash. Every requester
//!   computes the same assignment from the same inputs.
//! * **Degradation ladder** ([`RecoveryBudget`]) — every recovery
//!   render charges its *modeled* cost against a per-frame budget:
//!   full-stride re-render while the budget covers it, coarse-stride
//!   (cost divided by the policy's `coarse_step_factor`, an explicit
//!   error bound recorded in `FrameTiming`) when only that fits, and an
//!   explicit skip — degrade with completeness — when nothing fits.
//!   Metering estimated rather than wall seconds keeps the rung choice
//!   independent of scheduler noise: the same plan and budget always
//!   produce the same image.
//! * **Derived deadlines** ([`effective_policy`]) — receive deadlines
//!   and the failure-suspicion threshold scale with the perf model's
//!   predicted stage times instead of hard-coded constants, with the
//!   caller's [`RecoveryPolicy`] as a floor.

use std::time::Duration;

use pvr_faults::RecoveryPolicy;
use pvr_formats::Subvolume;
use pvr_render::image::PixelRect;

use crate::config::FrameConfig;
use crate::perfmodel::PerfModel;
use crate::slo::{HEADROOM, NOMINAL_IO_BW};

/// Which rung of the degradation ladder a heal runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealDecision {
    /// Full-stride re-render: bit-identical to the lost original.
    Full,
    /// Coarse-stride re-render: approximate content, explicit error
    /// bound.
    Coarse,
    /// No budget left: leave the hole to the completeness accounting.
    Skip,
}

/// The per-frame recovery ledger. Charges are the perf model's
/// *estimated* seconds, neither wall nor virtual time, so rung
/// decisions replay exactly.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryBudget {
    /// Remaining estimated seconds; `None` = unbounded.
    remaining: Option<f64>,
    /// Estimated seconds spent on heals so far.
    pub spent: f64,
}

impl RecoveryBudget {
    /// A ledger of `total` estimated seconds (`None` = unbounded): a
    /// frame runs with its policy's [`RecoveryPolicy::frame_budget`].
    pub fn new(total: Option<f64>) -> RecoveryBudget {
        RecoveryBudget {
            remaining: total,
            spent: 0.0,
        }
    }

    pub fn remaining(&self) -> Option<f64> {
        self.remaining
    }

    /// Decide the rung for one heal estimated at `est_full` seconds and
    /// charge the ledger: the full cost, the coarse cost
    /// (`est_full / coarse_step_factor`), or nothing on a skip.
    pub fn charge(&mut self, est_full: f64, coarse_step_factor: f64) -> HealDecision {
        let Some(rem) = self.remaining else {
            self.spent += est_full;
            return HealDecision::Full;
        };
        if rem >= est_full {
            self.remaining = Some(rem - est_full);
            self.spent += est_full;
            HealDecision::Full
        } else {
            let est_coarse = est_full / coarse_step_factor.max(1.0);
            if rem >= est_coarse {
                self.remaining = Some(rem - est_coarse);
                self.spent += est_coarse;
                HealDecision::Coarse
            } else {
                HealDecision::Skip
            }
        }
    }
}

/// Estimated seconds to re-render each block: the calibrated perf
/// model's render pricing applied to the block's own screen footprint
/// and depth. Both the ladder's charges and the survivor assignment's
/// loads; read it through [`crate::scheduler::FrameShared::heal_costs`].
pub(crate) fn heal_costs(
    cfg: &FrameConfig,
    footprints: &[PixelRect],
    owned: &[Subvolume],
) -> Vec<f64> {
    let model = PerfModel::default();
    footprints
        .iter()
        .zip(owned)
        .map(|(fp, owned)| {
            let samples = model.sample_coeff * fp.num_pixels() as f64 * owned.shape[2] as f64
                / cfg.step.max(1e-9);
            samples * model.render_imbalance / model.render_rate
        })
        .collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Deterministic, load-aware survivor assignment: the candidate (not
/// suspected, not the orphan itself) with the smallest estimated load,
/// ties broken by a seeded hash of `(seed, block, candidate)`.
pub fn adopter_of(
    block: usize,
    suspects: &[usize],
    candidates: &[usize],
    seed: u64,
    loads: &[f64],
) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .filter(|r| *r != block && !suspects.contains(r))
        .min_by(|a, b| {
            let la = loads.get(*a).copied().unwrap_or(0.0);
            let lb = loads.get(*b).copied().unwrap_or(0.0);
            la.total_cmp(&lb).then_with(|| {
                splitmix64(seed ^ ((block as u64) << 32) ^ *a as u64)
                    .cmp(&splitmix64(seed ^ ((block as u64) << 32) ^ *b as u64))
            })
        })
}

/// Derive the frame's receive deadlines from the calibrated perf model
/// instead of fixed constants. The base policy acts as a floor (small
/// test frames keep their sub-second deadlines). The suspicion
/// threshold scales with the same prediction but is clamped to stay
/// well inside the stage deadline, so adoption always has room to run
/// before the stage gives up.
pub fn effective_policy(cfg: &FrameConfig, base: &RecoveryPolicy) -> RecoveryPolicy {
    let mut policy = *base;
    let (render_s, _) = PerfModel::default().simulate_render(cfg);
    let io_s = cfg.variable_bytes() as f64 / NOMINAL_IO_BW;
    let predicted = render_s.max(io_s) * HEADROOM;
    if predicted > base.stage_deadline.as_secs_f64() {
        policy.stage_deadline = Duration::from_secs_f64(predicted);
    }
    // Suspicion: floor at the base value, scale with the render
    // prediction (a peer slower than several times the predicted stage
    // is presumed dead), cap at a quarter of the stage deadline.
    let derived = (render_s * HEADROOM).max(base.suspicion.as_secs_f64());
    let cap = policy.stage_deadline.as_secs_f64() / 4.0;
    policy.suspicion = Duration::from_secs_f64(derived.min(cap).max(1e-3));
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FrameShared;

    #[test]
    fn ladder_steps_full_coarse_skip_deterministically() {
        let factor = 4.0;
        // Unbounded: always full.
        let mut b = RecoveryBudget::new(None);
        assert_eq!(b.charge(10.0, factor), HealDecision::Full);
        // Bounded: full while it fits, then coarse, then skip.
        let mut b = RecoveryBudget::new(Some(1.3));
        assert_eq!(b.charge(1.0, factor), HealDecision::Full);
        assert_eq!(b.charge(1.0, factor), HealDecision::Coarse); // 0.3 >= 0.25
        assert_eq!(b.charge(1.0, factor), HealDecision::Skip); // 0.05 < 0.25
        assert!((b.spent - 1.25).abs() < 1e-12);
        // Replay: identical charges give identical rungs.
        let mut b2 = RecoveryBudget::new(Some(1.3));
        assert_eq!(b2.charge(1.0, factor), HealDecision::Full);
        assert_eq!(b2.charge(1.0, factor), HealDecision::Coarse);
    }

    #[test]
    fn adopter_assignment_is_deterministic_load_aware_and_avoids_suspects() {
        let cfg = FrameConfig::small(16, 24, 8);
        let mut loads = FrameShared::new(&cfg).heal_costs().to_vec();
        assert_eq!(loads.len(), 8);
        assert!(loads.iter().all(|l| *l > 0.0));

        let candidates: Vec<usize> = (0..8).collect();
        let a = adopter_of(5, &[5], &candidates, 42, &loads).unwrap();
        assert_ne!(a, 5);
        // Same inputs, same answer.
        assert_eq!(adopter_of(5, &[5], &candidates, 42, &loads), Some(a));
        // The chosen adopter never sits in the suspect set.
        let b = adopter_of(5, &[5, a], &candidates, 42, &loads).unwrap();
        assert_ne!(b, a);
        // Load-aware: pile work onto the winner and it stops winning.
        loads[b] += 1e6;
        let c = adopter_of(5, &[5, a], &candidates, 42, &loads).unwrap();
        assert_ne!(c, b);
        // No survivors -> no adopter.
        assert_eq!(adopter_of(1, &[0, 1], &[0, 1], 7, &loads), None);
    }

    #[test]
    fn block_costs_sum_close_to_frame_render_estimate() {
        let cfg = FrameConfig::small(32, 48, 8);
        let model = PerfModel::default();
        let total: f64 = FrameShared::new(&cfg).heal_costs().iter().sum();
        let (frame_s, _) = model.simulate_render(&cfg);
        // Per-block footprints overlap and over-cover edges, so the sum
        // brackets the whole-frame estimate loosely.
        let whole = frame_s * cfg.nprocs as f64 / model.render_imbalance * model.render_imbalance;
        assert!(
            total > 0.1 * whole && total < 10.0 * whole,
            "{total} vs {whole}"
        );
    }

    #[test]
    fn derived_deadlines_floor_small_frames_and_scale_paper_frames() {
        let base = RecoveryPolicy::fast_test();
        // Laptop frame: predictions are microseconds, the floor wins.
        let small = FrameConfig::small(16, 24, 8);
        let p = effective_policy(&small, &base);
        assert_eq!(p.stage_deadline, base.stage_deadline);
        assert!(p.suspicion >= base.suspicion);
        assert!(p.suspicion * 2 < p.stage_deadline);
        // Paper frame: the model predicts seconds of render and tens of
        // seconds of staging I/O; the derived deadline grows past the
        // floor.
        let paper = FrameConfig::paper_1120(512);
        let p = effective_policy(&paper, &base);
        assert!(p.stage_deadline > base.stage_deadline);
        assert!(p.suspicion <= p.stage_deadline / 4 + Duration::from_millis(1));
        // The recovery budget is the policy's, untouched.
        let budgeted = RecoveryPolicy {
            frame_budget: Some(0.1),
            ..base
        };
        assert_eq!(effective_policy(&paper, &budgeted).frame_budget, Some(0.1));
    }
}
