//! The untraced pass: time frames in blocks, with a fixed reference
//! kernel before and after each block, and read the process's CPU time
//! and peak memory from `/proc`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::stats::{self, Block, Metrics};
use crate::workload::Fixture;

/// Blocks a run's measuring time is cut into. Each block yields one
/// value of every metric; the run reports the quietest block's times and
/// the median block's ratio and peak, so a noisy stretch spoils some
/// blocks and not the run.
pub const BLOCKS: usize = 5;
/// Frames of the one block a `--quick` run times.
pub const QUICK_FRAMES: usize = 10;

/// `/proc/self/stat` counts CPU time in clock ticks; Linux fixes
/// `USER_HZ` at 100 on every architecture it supports.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may hold spaces; fields are counted after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|t| t.parse().ok())
            .expect("utime and stime are numbers")
    };
    (ticks() + ticks()) / TICKS_PER_S
}

/// Peak resident set size of this process in MB (`VmHWM`). Set-up ran
/// in another process, so the peak is the workload's own.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

/// Reset the peak to the current resident size, so that each block
/// reads its own peak. Where the kernel refuses, every block reads the
/// peak of the run so far, which is still the workload's.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// The fixed reference kernel, none of it the repository's code. Three
/// phases, because a shared machine slows in three ways: a dependent
/// walk over a 4 MiB table (cache and memory latency); fresh 4 MiB
/// buffers allocated, filled, summed and freed (page faults and memory
/// bandwidth, like a frame's volumes and fragments); and 32 independent
/// multiply-add chains (arithmetic ports, which a busy sibling
/// hyperthread takes away from a ray marcher). Returns wall seconds,
/// the median of three runs of about 10 ms.
pub fn reference_kernel_s() -> f64 {
    const LEN: usize = 1 << 20;
    const STEPS: usize = 1 << 20;
    const BUFFERS: usize = 8;
    const FLOP_ROUNDS: usize = 1 << 20;
    let table: Vec<u32> = (0..LEN as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) >> 12)
        .collect();
    let mut runs = [0.0; 3];
    for r in &mut runs {
        let t0 = Instant::now();
        let mut i = 1usize;
        for _ in 0..STEPS {
            i = (table[i] as usize + i) & (LEN - 1);
        }
        let mut sum = 0u64;
        for b in 0..BUFFERS {
            let buf = vec![b as u32 + 1; LEN];
            sum += std::hint::black_box(&buf)
                .iter()
                .map(|&x| x as u64)
                .sum::<u64>();
        }
        let mut lanes = [1.0f32; 32];
        for k in 0..FLOP_ROUNDS {
            let x = std::hint::black_box(k as f32 * 1e-7);
            for l in &mut lanes {
                *l = *l * 0.999_99 + x;
            }
        }
        std::hint::black_box((i, sum, lanes));
        *r = t0.elapsed().as_secs_f64();
    }
    stats::median(&runs)
}

/// Outcome of the untraced pass.
pub struct Measured {
    pub blocks: Vec<Block>,
    /// Frames attempted and frames that panicked or came out wrong.
    pub attempted: u64,
    pub failed: u64,
}

/// Time `fixture`'s operations for `seconds` (or one block of
/// [`QUICK_FRAMES`] frames when `quick`).
pub fn run(fixture: &Fixture, seconds: f64, quick: bool) -> Measured {
    let per_op = fixture.workload.frames_per_op() as u64;
    let nblocks = if quick { 1 } else { BLOCKS };
    let budget = seconds / nblocks as f64;
    let mut out = Measured {
        blocks: Vec::with_capacity(nblocks),
        attempted: 0,
        failed: 0,
    };
    let mut ref_before = reference_kernel_s();
    for _ in 0..nblocks {
        let mut block = Block::default();
        reset_peak_rss();
        let done = |b: &Block| {
            if quick {
                b.frames >= QUICK_FRAMES as u64
            } else {
                b.wall_s >= budget
            }
        };
        while !done(&block) {
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            // A panicking frame is a failed frame, not a failed run.
            let delivered = catch_unwind(AssertUnwindSafe(|| fixture.run_op()));
            let wall = t0.elapsed().as_secs_f64();
            block.cpu_s += process_cpu_s() - cpu0;
            block.wall_s += wall;
            block.frames += per_op;
            block.frame_s.push(wall / per_op as f64);
            out.attempted += per_op;
            out.failed += match delivered {
                Ok(d) => fixture.failed_frames(&d.identities()) as u64,
                Err(_) => per_op,
            };
        }
        block.peak_rss_mb = peak_rss_mb();
        let ref_after = reference_kernel_s();
        block.ref_s = 0.5 * (ref_before + ref_after);
        ref_before = ref_after;
        out.blocks.push(block);
    }
    out
}

/// The end-to-end metrics of a run (all but `setup_s`, which the caller
/// measured around set-up).
///
/// The tail percentile goes to stderr only: on a shared machine its
/// run-to-run spread (16–33 % here) is wider than any bound the contract
/// allows, so it is a diagnostic, not a gate.
pub fn end_to_end(m: &Measured, metrics: &mut Metrics) {
    let samples: Vec<f64> = m
        .blocks
        .iter()
        .flat_map(|b| b.frame_s.iter().copied())
        .collect();
    let frames: u64 = m.blocks.iter().map(|b| b.frames).sum();
    let q = stats::tail_fraction(samples.len());
    let at = |q: f64| stats::quantile(&samples, q);
    eprintln!(
        "  {} samples over {frames} frames; frame seconds p10 {:.5} p50 {:.5} p90 {:.5}; tail (p{:.0}, ten samples beyond) {:.5}",
        samples.len(),
        at(0.10),
        at(0.50),
        at(0.90),
        q * 100.0,
        at(q)
    );
    stats::put(metrics, "frame_s", stats::frame_s(&m.blocks), "s");
    stats::put(metrics, "frame_rel", stats::frame_rel(&m.blocks), "ratio");
    stats::put(
        metrics,
        "frames_per_s",
        stats::frames_per_s(&m.blocks),
        "1/s",
    );
    stats::put(
        metrics,
        "cpu_s_per_frame",
        stats::cpu_s_per_frame(&m.blocks),
        "s",
    );
    stats::put(metrics, "peak_rss_mb", stats::peak_rss_mb(&m.blocks), "MB");
}
