//! `bench_sim` — the discrete-event scheduler benchmark.
//!
//! Three measurements at n = 256 simulated ranks, comparing the
//! single-threaded discrete-event core against the original
//! thread-per-rank oracle (`Backend::Thread`, feature `thread-exec`):
//!
//! 1. **End-to-end frame** (read → render → direct-send composite →
//!    gather): the oracle check. Both backends must produce
//!    bit-identical images, and all 256 rank tasks must be resident in
//!    one address space at once.
//! 2. **Pure exchange**: a direct-send-shaped message storm (every
//!    rank fans a fragment out to 64 compositors, compositors drain
//!    wildcard receives, barrier, repeat). Yields the event core's
//!    raw dispatch throughput in events/sec.
//! 3. **The CI sweep shape**: the same exchange with each round
//!    preceded by a simulated window read (the study measures I/O at
//!    ≥95% of the frame at scale) and with one rank's fragments dropped
//!    by a fault injector, so compositors finish the round through a
//!    timed receive — the `fault_sweep` workload in miniature. The
//!    event core advances the virtual clock past the reads and the
//!    timeout expiries for free; the thread oracle must sleep them off
//!    in wall time (exactly what capped the old CI sweeps). The ≥5×
//!    wall-ratio gate applies here.
//!
//! The event-core frame also runs under the counting allocator of the
//! allocation-budget tests: `allocs_per_message` and `bytes_per_frame`
//! say what the host pays per message beyond its body.
//!
//! Writes `results/BENCH_sim.json`. Gates (hard failures, any mode):
//! bit-identical frames, full task residency, and event core ≥5×
//! faster than threads on the sweep-shaped workload.

#[path = "../../../../tests/support/alloc.rs"]
mod alloc;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pvr_bench::{check, write_trajectory, CsvOut};
use pvr_core::pipeline::run_frame_mpi_sim;
use pvr_core::{write_dataset, CompositorPolicy, FrameConfig, FrameResult};
use pvr_mpisim::{Backend, Comm, RunOptions, SimStats, World};
use pvr_obs::bench::Trajectory;

const N: usize = 256;
/// Compositor count of the exchange — the paper's improved policy at
/// this scale (m = n/4).
const M: usize = 64;
/// Exchange rounds per timed run (amortizes world setup a little
/// without hiding it; thread spawn cost is real executor cost).
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

/// One timed frame on the given backend. The thread oracle reports no
/// scheduler counters, so stats are `None` there.
fn timed_frame(path: &Path, backend: Backend) -> (FrameResult, Option<SimStats>, f64) {
    let opts = RunOptions::default()
        .with_backend(backend)
        .with_timeout(None);
    let t0 = Instant::now();
    let (frame, sim) = run_frame_mpi_sim(&config(), path, opts)
        .unwrap_or_else(|e| panic!("{backend:?} frame failed: {e}"));
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
/// backends can be compared.
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

/// Run the exchange on a backend; returns (wall seconds, stats).
fn timed_exchange(
    backend: Backend,
    io: Option<Duration>,
    faulted: bool,
) -> (f64, Option<SimStats>) {
    let mut opts = RunOptions::default()
        .with_backend(backend)
        .with_timeout(None);
    if faulted {
        opts = opts.with_injector(std::sync::Arc::new(DropRank));
    }
    let t0 = Instant::now();
    let out = World::run_opts(N, opts, exchange_program(io, faulted))
        .unwrap_or_else(|e| panic!("{backend:?} exchange failed: {e}"));
    let wall = t0.elapsed().as_secs_f64();
    // Cross-backend correctness of the payload sums, while we're here.
    let expect: u64 = (0..N)
        .filter(|&r| !(faulted && r == DROPPED))
        .map(|r| (r as u64) * 64 * ROUNDS as u64)
        .sum();
    for (c, &s) in out.results.iter().enumerate().take(M) {
        assert_eq!(s, expect, "compositor {c} sum diverged on {backend:?}");
    }
    (wall, out.sim)
}

fn best_of<F: FnMut() -> (f64, Option<SimStats>)>(
    runs: usize,
    mut f: F,
) -> (f64, Option<SimStats>) {
    let mut best = (f64::INFINITY, None);
    for _ in 0..runs {
        let (w, s) = f();
        if w < best.0 {
            best = (w, s);
        }
    }
    best
}

fn main() {
    let path = dataset();
    let io = Duration::from_millis(IO_MS);

    // --- The oracle check: one frame per backend, bit-compared. ------
    let ((event_frame, event_sim, frame_event_secs), frame_allocs, frame_bytes) =
        alloc::counting(|| timed_frame(&path, Backend::Event));
    let frame_sim = event_sim.expect("event backend reports scheduler stats");
    let (thread_frame, thread_sim, frame_thread_secs) = timed_frame(&path, Backend::Thread);
    assert!(thread_sim.is_none(), "thread oracle has no event counters");
    let identical = event_frame.image.max_abs_diff(&thread_frame.image) == 0.0;

    // --- Raw dispatch throughput: pure exchange, best of 3. ----------
    let (ex_event_secs, ex_sim) = best_of(3, || timed_exchange(Backend::Event, None, false));
    let ex_sim = ex_sim.expect("event backend reports scheduler stats");
    let (ex_thread_secs, _) = best_of(3, || timed_exchange(Backend::Thread, None, false));

    // Scheduler events: everything the core dispatched — task polls,
    // message deliveries, timer fires.
    let events = ex_sim.polls + ex_sim.messages + ex_sim.timer_fires;
    let events_per_sec = events as f64 / ex_event_secs.max(1e-9);

    // --- The gated ratio: the CI sweep shape, best of 3. -------------
    let (io_event_secs, io_sim) = best_of(3, || timed_exchange(Backend::Event, Some(io), true));
    let io_sim = io_sim.expect("event backend reports scheduler stats");
    let (io_thread_secs, _) = best_of(3, || timed_exchange(Backend::Thread, Some(io), true));
    let ratio = io_thread_secs / io_event_secs.max(1e-9);
    // The reads and the timeout expiries must have been charged to the
    // virtual clock: ROUNDS reads plus ROUNDS detection waits per
    // compositor, all overlapping across ranks.
    let expected_virtual = (io + Duration::from_millis(DETECT_MS)) * ROUNDS as u32;
    let virtual_ok = io_sim.virtual_time >= expected_virtual && io_sim.timer_fires >= N as u64;

    let mut csv = CsvOut::create(
        "bench_sim",
        "workload,backend,wall_secs,events,events_per_sec",
    );
    csv.row(&format!("frame,event,{frame_event_secs:.6},,"));
    csv.row(&format!("frame,thread,{frame_thread_secs:.6},,"));
    csv.row(&format!(
        "exchange,event,{ex_event_secs:.6},{events},{events_per_sec:.0}"
    ));
    csv.row(&format!("exchange,thread,{ex_thread_secs:.6},,"));
    csv.row(&format!("sweep_shape,event,{io_event_secs:.6},,"));
    csv.row(&format!("sweep_shape,thread,{io_thread_secs:.6},,"));

    // Deterministic counters gate exactly; wall-clock figures are
    // machine-dependent and ride as info (the ≥5× ratio is gated by
    // this bin itself, below, not by `perf_gate` across runs).
    let mut traj = Trajectory::new("sim");
    traj.exact("n", N as f64)
        .exact("peak_resident_ranks", frame_sim.peak_resident as f64)
        .exact("backends_bit_identical", identical as u8 as f64)
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
        .info("wall_exchange_event_secs", ex_event_secs)
        .info("wall_exchange_thread_secs", ex_thread_secs)
        .info("wall_sweep_shape_event_secs", io_event_secs)
        .info("wall_sweep_shape_thread_secs", io_thread_secs)
        .info("wall_frame_event_secs", frame_event_secs)
        .info("wall_frame_thread_secs", frame_thread_secs)
        .info("thread_wall_ratio", ratio);
    write_trajectory(&traj);

    // --- Gates. -------------------------------------------------------
    check(
        "event and thread backends render bit-identical frames",
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
    check(
        "event core is >= 5x faster than the thread oracle",
        ratio >= 5.0,
        &format!(
            "{ratio:.1}x ({io_event_secs:.4}s vs {io_thread_secs:.4}s, sweep-shaped workload)"
        ),
    );
    if !(identical && frame_sim.peak_resident == N && virtual_ok && ratio >= 5.0) {
        std::process::exit(1);
    }
}
