//! # pvr-obs — observability for the parallel-volume-rendering pipeline
//!
//! The paper's core contribution is *measurement*: per-stage frame
//! decomposition, per-process render-time distributions, and I/O
//! access signatures. This crate is the single instrument the
//! workspace reports through:
//!
//! * [`span::Tracer`] — cheap begin/end spans on per-rank tracks. The
//!   disabled tracer is a no-op that performs **zero allocations per
//!   event** (asserted by `tests/noop_alloc.rs`); the enabled tracer
//!   timestamps with wall-clock microseconds ([`span::Tracer::wall`])
//!   or caller-supplied simulated/logical time
//!   ([`span::Tracer::manual`]).
//! * [`metrics::Registry`] — named counters, gauges, and fixed-bucket
//!   histograms with deterministic snapshot ordering, so CI can
//!   golden-test a run's numbers byte-for-byte.
//! * Exporters: [`perfetto::to_json`] (Chrome/Perfetto `trace_event`
//!   JSON — open in <https://ui.perfetto.dev>), [`gantt::render`]
//!   (plain-text per-rank timeline), [`csvout::pivot_csv`] (the shared
//!   CSV table the figure binaries emit).
//! * Analysis of a [`span::Profile`]: [`analysis::imbalance`] (the
//!   paper's Fig. 6 max/mean statistic) and [`analysis::span_overlap`]
//!   (how much I/O a prefetch hid under compute). The passes that read
//!   a message trace — its critical path, per-link volume and span
//!   profile — live beside the trace, in `pvr_mpisim::analysis`.
//! * [`flight::FlightRecorder`] — the always-on bounded ring of recent
//!   events, dumped to a replayable JSON artifact on anomaly; same
//!   zero-alloc-when-disabled discipline as the tracer.
//! * [`bench::Trajectory`] — the unified `BENCH_*.json` schema every
//!   bench bin writes and the `perf_gate` bin compares under
//!   per-metric tolerance gates.
//! * [`json`] — the workspace's one JSON reader ([`json::parse`]) and
//!   the escaper and number rule every JSON writer shares.
//!
//! These are mechanisms. The policy that reads and records through them
//! — the frame's SLO budgets, verdict and attribution — lives with the
//! frame, in `pvr_core::slo`.
//!
//! Inside `mpisim` worlds, spans ride the existing vector-clocked
//! trace (`Comm::span_begin` / `span_end` / `mark_instant`), and
//! `pvr_mpisim::analysis::profile_from_trace` converts that log into a
//! [`span::Profile`] with deterministic logical timestamps. In the
//! real (rayon) pipeline, a wall-clock [`span::Tracer`] is threaded
//! through instead. This crate depends on no other crate of the
//! workspace, so every layer can report through it.
//!
//! **Naming.** Every metric, span, flight event, and comm mark uses
//! lower-case `<subsystem>.<event>` (`render.skip`, `rank.crash`,
//! `frame.slo`, …) — subsystem first so text dumps sort into related
//! runs, no units in the name. DESIGN.md §15.3 is the normative list.

pub mod analysis;
pub mod bench;
pub mod csvout;
pub mod flight;
pub mod gantt;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod span;

pub use analysis::{imbalance, span_overlap, Overlap};
pub use bench::{GateCheck, Trajectory};
pub use flight::{FlightDump, FlightRecorder};
pub use metrics::{Registry, Snapshot};
pub use span::{Args, Profile, Tracer};
