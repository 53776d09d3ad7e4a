//! `bench_sim` — the discrete-event scheduler benchmark.
//!
//! Three measurements at n = 256 simulated ranks on the single-threaded
//! discrete-event core:
//!
//! 1. **End-to-end frame** (read → render → direct-send composite →
//!    gather): must be bit-identical to the data-parallel executor's
//!    frame (`run_frame`) on the same config and file, with all 256
//!    rank tasks resident in one address space at once.
//! 2. **Pure exchange**: a direct-send-shaped message storm (every
//!    rank fans a fragment out to 64 compositors, compositors drain
//!    wildcard receives, barrier, repeat). Yields the event core's
//!    raw dispatch throughput in events/sec.
//! 3. **The CI sweep shape**: the same exchange with each round
//!    preceded by a simulated window read (the study measures I/O at
//!    ≥95% of the frame at scale) and with one rank's fragments dropped
//!    by a fault injector, so compositors finish the round through a
//!    timed receive — the `fault_sweep` workload in miniature. The
//!    reads and the timeout expiries must be charged to the virtual
//!    clock, not slept off in wall time.
//! 4. **The read plan** of the ledger's 2048-rank frame, built in file
//!    order from the block lattice (`ScatterPlan::from_lattice`, what a
//!    frame builds) and sorted from per-rank request lists
//!    (`ScatterPlan::build`, the general path; requests included). The
//!    two plans' runs must be equal.
//!
//! The frame also runs under the counting allocator of the
//! allocation-budget tests: `allocs_per_message` and `bytes_per_frame`
//! say what the host pays per message beyond its body, and
//! `peak_live_bytes_per_rank` and `task_bytes` (the boxed future of one
//! rank) what a simulated rank keeps resident.
//!
//! Writes `results/BENCH_sim.json`. Gates (hard failures, any mode):
//! a frame bit-identical to the data-parallel one, full task residency,
//! and reads and detection waits charged to the virtual clock.

#[path = "../../../../tests/support/alloc.rs"]
mod alloc;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pvr_bench::{check, write_trajectory, CsvOut};
use pvr_core::pipeline::{run_frame, run_frame_mpi_sim};
use pvr_core::{laptop_aggregators, write_dataset, CompositorPolicy, FrameConfig, FrameResult};
use pvr_mpisim::{Comm, RunOptions, SimStats, World};
use pvr_obs::bench::Trajectory;
use pvr_pfs::{RankRequest, ScatterPlan, StoredLattice};
use pvr_volume::BlockDecomposition;

const N: usize = 256;
/// Compositor count of the exchange — the paper's improved policy at
/// this scale (m = n/4).
const M: usize = 64;
/// Exchange rounds per timed run (amortizes world setup a little
/// without hiding it).
const ROUNDS: usize = 4;
/// Simulated window-read time per round in the I/O-shaped workload.
/// 20 ms for a few hundred KB window is ~10 MB/s effective — far
/// *kinder* than the paper's measured I/O share, which would make the
/// gap larger still.
const IO_MS: u64 = 20;
/// Timed-receive deadline for the faulted rounds — the recovery
/// sweeps' detection budget. Every compositor spends one expiry per
/// round waiting out the dropped rank's fragments.
const DETECT_MS: u64 = 100;
/// The rank whose fragments the injector drops in the sweep-shaped
/// workload.
const DROPPED: usize = N - 1;

type BoxFut<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

fn config() -> FrameConfig {
    let mut cfg = FrameConfig::small(32, 64, N);
    cfg.policy = CompositorPolicy::Improved;
    cfg
}

fn dataset() -> PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-bench-sim-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let p = d.join("sim.raw");
    write_dataset(&p, &config()).unwrap();
    p
}

/// One timed message-passing frame.
fn timed_frame(path: &Path) -> (FrameResult, SimStats, f64) {
    let opts = RunOptions::default().with_timeout(None);
    let t0 = Instant::now();
    let (frame, sim) =
        run_frame_mpi_sim(&config(), path, opts).unwrap_or_else(|e| panic!("frame failed: {e}"));
    let sim = sim.expect("the event core reports scheduler stats");
    (frame, sim, t0.elapsed().as_secs_f64())
}

/// Drops every fragment the `DROPPED` rank sends — the lost-rank
/// scenario the recovery sweeps detect through timed receives.
struct DropRank;

impl pvr_mpisim::fault::FaultInjector for DropRank {
    fn on_send(
        &self,
        src: usize,
        _dst: usize,
        _tag: u32,
        _seq: u64,
        _data: &mut Vec<u8>,
    ) -> pvr_mpisim::fault::SendFate {
        if src == DROPPED {
            pvr_mpisim::fault::SendFate::Drop
        } else {
            pvr_mpisim::fault::SendFate::Deliver
        }
    }
}

/// The direct-send exchange: an optional simulated window read, then
/// renderers fan out, compositors drain, everyone barriers, `ROUNDS`
/// times. In the faulted variant the compositors cannot know the
/// dropped rank is gone, so they finish each round by waiting out a
/// timed receive — the recovery sweeps' detection path. Every byte
/// received is summed so the work cannot be optimized away and the
/// sums can be checked.
fn exchange_program(
    io: Option<Duration>,
    faulted: bool,
) -> impl Fn(Comm) -> BoxFut<u64> + Send + Sync {
    move |mut comm: Comm| {
        Box::pin(async move {
            let me = comm.rank();
            let n = comm.size();
            let mut sum = 0u64;
            for round in 0..ROUNDS {
                if let Some(d) = io {
                    comm.sleep(d).await;
                }
                let tag = round as u32 + 1;
                for c in 0..M {
                    comm.send(c, tag, vec![me as u8; 64]).await;
                }
                if me < M {
                    if faulted {
                        let detect = Duration::from_millis(DETECT_MS);
                        while let Some((_, data)) = comm.recv_any_timeout(tag, detect).await {
                            sum += data.iter().map(|&b| b as u64).sum::<u64>();
                        }
                    } else {
                        for _ in 0..n {
                            let (_, data) = comm.recv_any(tag).await;
                            sum += data.iter().map(|&b| b as u64).sum::<u64>();
                        }
                    }
                }
                comm.barrier().await;
            }
            sum
        })
    }
}

/// Run the exchange; returns (wall seconds, stats).
fn timed_exchange(io: Option<Duration>, faulted: bool) -> (f64, SimStats) {
    let mut opts = RunOptions::default().with_timeout(None);
    if faulted {
        opts = opts.with_injector(std::sync::Arc::new(DropRank));
    }
    let t0 = Instant::now();
    let out = World::run_opts(N, opts, exchange_program(io, faulted))
        .unwrap_or_else(|e| panic!("exchange failed: {e}"));
    let wall = t0.elapsed().as_secs_f64();
    // Correctness of the payload sums, while we're here.
    let expect: u64 = (0..N)
        .filter(|&r| !(faulted && r == DROPPED))
        .map(|r| (r as u64) * 64 * ROUNDS as u64)
        .sum();
    for (c, &s) in out.results.iter().enumerate().take(M) {
        assert_eq!(s, expect, "compositor {c} sum diverged");
    }
    let sim = out.sim.expect("the event core reports scheduler stats");
    (wall, sim)
}

/// The fastest of `runs` timed exchanges.
fn best_of<T>(runs: usize, f: impl Fn() -> (f64, T)) -> (f64, T) {
    (0..runs)
        .map(|_| f())
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one run")
}

/// Seconds of the best of five builds of the `sim-2048` frame's read
/// plan: from the lattice, and sorted from the ranks' requests.
fn timed_plans() -> (f64, f64) {
    let mut cfg = FrameConfig::small(64, 128, 2048);
    cfg.policy = CompositorPolicy::Improved;
    let decomp = BlockDecomposition::new(cfg.grid, cfg.nprocs);
    let ghost = if cfg.shading { 2 } else { 1 };
    let (layout, var) = (cfg.io.layout(cfg.grid), cfg.file_variable());
    let (naggr, hints) = (laptop_aggregators(cfg.nprocs), cfg.io.hints(cfg.grid));
    let timed = |plan: &dyn Fn() -> ScatterPlan| {
        let t0 = Instant::now();
        let sp = plan();
        (t0.elapsed().as_secs_f64(), sp)
    };
    let (lattice_secs, lattice) = best_of(5, || {
        timed(&|| {
            let lattice = StoredLattice::new(decomp.stored_intervals(ghost));
            ScatterPlan::from_lattice(layout.as_ref(), var, &lattice, naggr, &hints)
        })
    });
    let (sorted_secs, sorted) = best_of(5, || {
        timed(&|| {
            let request = |sub: pvr_formats::Subvolume| {
                let mut runs = Vec::with_capacity(sub.shape[1] * sub.shape[2]);
                layout.placed_runs(var, &sub, &mut |r| runs.push(r));
                RankRequest {
                    runs,
                    out_elems: sub.num_elements(),
                }
            };
            let blocks = decomp.blocks();
            let requests: Vec<RankRequest> = blocks
                .iter()
                .map(|b| request(decomp.with_ghost(b, ghost)))
                .collect();
            ScatterPlan::build(&requests, naggr, &hints)
        })
    });
    assert_eq!(lattice.runs, sorted.runs, "the two read plans differ");
    (lattice_secs, sorted_secs)
}

fn main() {
    let path = dataset();
    let io = Duration::from_millis(IO_MS);

    // --- The frame, bit-compared with the data-parallel one. ---------
    let (((frame, frame_sim, frame_secs), frame_allocs, frame_bytes), frame_live) =
        alloc::peak_live(|| alloc::counting(|| timed_frame(&path)));
    let reference = run_frame(&config(), Some(&path));
    let identical = frame.image.max_abs_diff(&reference.image) == 0.0;

    // --- Raw dispatch throughput: pure exchange, best of 3. ----------
    let (ex_secs, ex_sim) = best_of(3, || timed_exchange(None, false));

    // Scheduler events: everything the core dispatched — task polls,
    // message deliveries, timer fires.
    let events = ex_sim.polls + ex_sim.messages + ex_sim.timer_fires;
    let events_per_sec = events as f64 / ex_secs.max(1e-9);

    // --- The CI sweep shape, best of 3. ------------------------------
    let (io_secs, io_sim) = best_of(3, || timed_exchange(Some(io), true));
    // The reads and the timeout expiries must have been charged to the
    // virtual clock: ROUNDS reads plus ROUNDS detection waits per
    // compositor, all overlapping across ranks.
    let expected_virtual = (io + Duration::from_millis(DETECT_MS)) * ROUNDS as u32;
    let virtual_ok = io_sim.virtual_time >= expected_virtual && io_sim.timer_fires >= N as u64;

    // --- The 2048-rank read plan, both ways, best of 5. ---------------
    let (plan_lattice_secs, plan_sorted_secs) = timed_plans();

    let mut csv = CsvOut::create("bench_sim", "workload,wall_secs,events,events_per_sec");
    csv.row(&format!("frame,{frame_secs:.6},,"));
    csv.row(&format!(
        "exchange,{ex_secs:.6},{events},{events_per_sec:.0}"
    ));
    csv.row(&format!("sweep_shape,{io_secs:.6},,"));
    csv.row(&format!("plan_lattice_2048,{plan_lattice_secs:.6},,"));
    csv.row(&format!("plan_sorted_2048,{plan_sorted_secs:.6},,"));

    // Deterministic counters gate exactly; wall-clock figures are
    // machine-dependent and ride as info.
    let mut traj = Trajectory::new("sim");
    traj.exact("n", N as f64)
        .exact("peak_resident_ranks", frame_sim.peak_resident as f64)
        .exact(
            "mpi_and_data_parallel_bit_identical",
            identical as u8 as f64,
        )
        .exact("exchange_messages", ex_sim.messages as f64)
        .exact("frame_messages", frame_sim.messages as f64)
        .exact("io_virtual_time_charged", virtual_ok as u8 as f64)
        .info("exchange_polls", ex_sim.polls as f64)
        .info("events_per_sec", events_per_sec)
        .info(
            "allocs_per_message",
            frame_allocs as f64 / frame_sim.messages as f64,
        )
        .info("bytes_per_frame", frame_bytes as f64)
        .info("peak_live_bytes_per_rank", (frame_live / N as u64) as f64)
        .info("task_bytes", frame_sim.task_bytes as f64)
        .info("wall_exchange_event_secs", ex_secs)
        .info("wall_sweep_shape_event_secs", io_secs)
        .info("wall_frame_event_secs", frame_secs)
        .info("wall_plan_lattice_2048_secs", plan_lattice_secs)
        .info("wall_plan_sorted_2048_secs", plan_sorted_secs);
    write_trajectory(&traj);

    // --- Gates. -------------------------------------------------------
    check(
        "message-passing and data-parallel frames are bit-identical",
        identical,
        "n=256 frame compared pixelwise",
    );
    check(
        "all rank tasks resident in one address space",
        frame_sim.peak_resident == N,
        &format!("peak {} of {N}", frame_sim.peak_resident),
    );
    check(
        "simulated reads and detection waits are charged to the virtual clock",
        virtual_ok,
        &format!(
            "{:?} virtual for {} timer fires",
            io_sim.virtual_time, io_sim.timer_fires
        ),
    );
    if !(identical && frame_sim.peak_resident == N && virtual_ok) {
        std::process::exit(1);
    }
}
