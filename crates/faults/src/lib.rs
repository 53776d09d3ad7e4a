//! # pvr-faults — deterministic fault injection and recovery
//!
//! The paper's end-to-end runs occupied thousands of Blue Gene/P nodes
//! for hours; at that scale slow or silent components are routine, not
//! exceptional. This crate gives the simulated pipeline the same
//! operational reality, deterministically:
//!
//! * **[`FaultPlan`]** (`plan`) — a seeded, JSON-serializable
//!   declaration of everything that goes wrong in a run: per-rank
//!   crash/straggle faults keyed to a pipeline stage, per-link message
//!   drop/delay/corruption rules, per-storage-server outages and
//!   degradations. Every behaviour derives from `(seed, plan)` alone,
//!   so a failing configuration replays bit-for-bit.
//! * **[`PlanInjector`]** (`injector`) — lowers the plan's link rules
//!   onto the simulator's transport hook
//!   ([`pvr_mpisim::fault::FaultInjector`]).
//! * **[`link`]** — a reliable-delivery layer (checksummed frames,
//!   positive acks, exponential-backoff retransmission, duplicate
//!   suppression) that turns the lossy transport back into an
//!   exactly-once one while the retry budget lasts, and into an
//!   accounted loss after that.
//! * **[`RecoveryPolicy`] / [`RecoveryCounters`]** (`recovery`) — the
//!   deadline/retry knobs of a fault-tolerant frame and the additive
//!   record of what recovery did.
//!
//! The storage-side counterparts (`ServerFaults`, `IoRecovery`, stripe
//! failover) live in `pvr_pfs::fault`; the
//! image-side counterpart (per-tile `CompletenessMap`) lives in
//! `pvr_compositing::completeness`. This crate is the control plane
//! that ties them to one plan, and `pvr_core::drive_frame` with
//! `Driver::faults` is the pipeline that consumes all three.

pub mod injector;
pub mod link;
pub mod plan;
pub mod recovery;

pub use injector::PlanInjector;
pub use link::{InBox, LinkPolicy, OutBox};
pub use plan::{
    FaultPlan, LinkAction, LinkFault, Pat, RankAction, RankFault, ServerAction, ServerFault, Stage,
};
pub use recovery::{RecoveryCounters, RecoveryPolicy};
