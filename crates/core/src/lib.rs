//! # pvr-core — the end-to-end parallel volume rendering pipeline
//!
//! This crate is the paper's *application*: the three sequential stages
//! — collective I/O, local ray-casting, direct-send compositing — glued
//! together, instrumented, and runnable two ways:
//!
//! * [`pipeline`] — **real execution** at laptop scale: `n` logical
//!   ranks (threads) read a real file through the two-phase collective
//!   engine, render their blocks, and composite. There is also a pure
//!   message-passing variant on `pvr-mpisim` that exchanges real pixel
//!   fragments rank-to-rank. Wall-clock timings and images come out.
//!   Both are configurations of the one frame API,
//!   [`scheduler::drive_frame`] with a [`Driver`] (executor × tracer ×
//!   flight recorder, plus a fault plan on the message-passing
//!   executor); [`anim`] runs it over time steps, and [`slo`] judges
//!   every frame against its budgets. A frame's read is planned once,
//!   by the pipeline's file plan (layout, hints, aggregators, scatter
//!   plan, I/O statistics), and both executors read and report through
//!   it; an animation plans once for all its time steps.
//! * [`perfmodel`] — **simulated execution** at paper scale (64 … 32K
//!   cores, 1120³ … 4480³ grids): the identical schedules (I/O access
//!   plans, direct-send message lists) are generated and priced on the
//!   BG/P machine model. This regenerates Figures 3–7 and Table II.
//!
//! [`config`] defines frame configurations (grid, image, process count,
//! I/O mode, compositor policy); [`timing`] defines the per-stage
//! timing reports both executors share.

pub mod anim;
pub mod config;
pub mod perfmodel;
pub mod pipeline;
pub mod recovery;
pub mod roles;
pub mod scheduler;
pub mod slo;
pub mod timing;

pub use anim::{
    run_animation, write_animation, AnimExecutor, AnimFaults, AnimFrame, AnimOptions, AnimResult,
};
pub use config::{CompositorPolicy, FrameConfig, IoMode};
pub use perfmodel::{simulate_frame, PerfModel, Placement, SimFrameResult};
pub use pipeline::{
    run_frame, run_frame_mpi, run_frame_mpi_profiled, run_frame_traced, write_dataset, FrameError,
    FrameResult, ProfiledFrame,
};
pub use recovery::{adopter_of, effective_policy, HealDecision, RecoveryBudget};
pub use roles::{bgp_io_nodes, compositor_rank, laptop_aggregators};
pub use scheduler::{drive_frame, DriveOutput, Driver, FrameShared, FrameTags, EPOCH_STRIDE};
pub use slo::{stage_budgets, FrameSlo, Verdict};
pub use timing::FrameTiming;
