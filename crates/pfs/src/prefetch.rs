//! Double-buffered I/O prefetch for time-step pipelining.
//!
//! The paper's end-to-end finding is that I/O dominates the frame at
//! scale (≥95%, Table II); its future-work section points at
//! overlapping stages across time steps. This module supplies the two
//! building blocks the animation driver needs:
//!
//! * [`Prefetch`] — a background reader: one spawned OS thread that
//!   performs *file reads only* (no communication, so it composes with
//!   both executors) and hands the bytes back on [`Prefetch::join`].
//!   Double buffering with one in-flight prefetch bounds extra memory
//!   at one additional time step's subvolumes.
//! * [`IoThrottle`] — a bandwidth floor that pads short laptop-scale
//!   reads up to `bytes / bytes_per_sec` wall time, so an experiment
//!   can honestly reproduce the paper's I/O-dominated regime (the
//!   padding applies equally to sequential and prefetched reads — it
//!   models a slow store, not a biased benchmark).

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::{Duration, Instant};

use pvr_formats::extent::Extent;

/// A minimum-read-time model of a slow storage system: reading `b`
/// bytes takes at least `b / bytes_per_sec` seconds of wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoThrottle {
    pub bytes_per_sec: f64,
}

impl IoThrottle {
    pub fn new(bytes_per_sec: f64) -> IoThrottle {
        IoThrottle { bytes_per_sec }
    }

    /// How much pad a read of `bytes` that already took `elapsed`
    /// still owes — the read itself counts toward the floor, so a
    /// genuinely slow store is never padded twice. Every reader,
    /// simulated ranks included, sleeps it off in wall time via
    /// [`IoThrottle::pad`]. A bandwidth that is not a positive number
    /// sets no floor; one so small that the floor overflows a
    /// [`Duration`] saturates at [`Duration::MAX`].
    pub fn remaining(&self, bytes: u64, elapsed: Duration) -> Duration {
        if self.bytes_per_sec.is_nan() || self.bytes_per_sec <= 0.0 {
            return Duration::ZERO;
        }
        let floor =
            Duration::try_from_secs_f64(bytes as f64 / self.bytes_per_sec).unwrap_or(Duration::MAX);
        floor.saturating_sub(elapsed)
    }

    /// Sleep until at least `bytes / bytes_per_sec` seconds have
    /// elapsed since `started`.
    pub fn pad(&self, bytes: u64, started: Instant) {
        let rem = self.remaining(bytes, started.elapsed());
        if rem > Duration::ZERO {
            std::thread::sleep(rem);
        }
    }
}

/// Read a list of byte extents from a file, one buffer per extent, with
/// an optional bandwidth floor over the total. This is the whole work
/// of an aggregator's window phase, shared by the live read path and
/// the prefetch thread.
pub fn read_extents(
    path: &Path,
    extents: &[Extent],
    throttle: Option<IoThrottle>,
) -> std::io::Result<Vec<Vec<u8>>> {
    let started = Instant::now();
    let mut file = File::open(path)?;
    let mut out = Vec::with_capacity(extents.len());
    let mut total = 0u64;
    for e in extents {
        let mut buf = vec![0u8; e.len as usize];
        file.seek(SeekFrom::Start(e.offset))?;
        file.read_exact(&mut buf)?;
        total += e.len;
        out.push(buf);
    }
    if let Some(t) = throttle {
        t.pad(total, started);
    }
    Ok(out)
}

/// One in-flight background read. The closure runs on a dedicated OS
/// thread; `join` blocks until it finishes and returns its result.
#[derive(Debug)]
pub struct Prefetch<T> {
    handle: std::thread::JoinHandle<std::io::Result<T>>,
}

impl<T: Send + 'static> Prefetch<T> {
    /// Start a background read. The closure must only touch the
    /// filesystem — it runs outside any rank context.
    pub fn spawn<F>(f: F) -> Prefetch<T>
    where
        F: FnOnce() -> std::io::Result<T> + Send + 'static,
    {
        Prefetch {
            handle: std::thread::spawn(f),
        }
    }

    /// Wait for the read and take its result.
    pub fn join(self) -> std::io::Result<T> {
        match self.handle.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("pvr-prefetch-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn read_extents_returns_the_requested_bytes() {
        let p = tmp("extents.bin");
        let data: Vec<u8> = (0u32..1024).map(|i| (i % 251) as u8).collect();
        std::fs::File::create(&p).unwrap().write_all(&data).unwrap();
        let ext = [Extent::new(16, 32), Extent::new(512, 100)];
        let got = read_extents(&p, &ext, None).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], &data[16..48]);
        assert_eq!(got[1], &data[512..612]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn throttle_enforces_a_bandwidth_floor() {
        let p = tmp("slow.bin");
        std::fs::File::create(&p)
            .unwrap()
            .write_all(&[7u8; 4096])
            .unwrap();
        // 4096 bytes at 200 KB/s → at least ~20 ms.
        let t = IoThrottle::new(200_000.0);
        let started = Instant::now();
        let got = read_extents(&p, &[Extent::new(0, 4096)], Some(t)).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(18));
        assert_eq!(got[0].len(), 4096);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn throttle_without_a_positive_bandwidth_sets_no_floor() {
        let elapsed = Duration::from_millis(3);
        for bw in [f64::NAN, -f64::NAN, 0.0, -0.0, -1.0, f64::NEG_INFINITY] {
            assert_eq!(
                IoThrottle::new(bw).remaining(4096, elapsed),
                Duration::ZERO,
                "{bw}"
            );
        }
        // Infinitely fast: the floor is zero, nothing is owed.
        assert_eq!(
            IoThrottle::new(f64::INFINITY).remaining(4096, elapsed),
            Duration::ZERO
        );
    }

    #[test]
    fn throttle_floor_that_overflows_a_duration_saturates() {
        // 4096 B / 1e-310 B/s ≈ 4e313 s, far past `Duration::MAX`.
        let t = IoThrottle::new(1e-310);
        assert_eq!(t.remaining(4096, Duration::ZERO), Duration::MAX);
        assert_eq!(
            t.remaining(4096, Duration::from_secs(5)),
            Duration::MAX - Duration::from_secs(5)
        );
        // No bytes, no floor, however slow the store.
        assert_eq!(t.remaining(0, Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn prefetch_overlaps_and_joins() {
        let p = tmp("bg.bin");
        std::fs::File::create(&p)
            .unwrap()
            .write_all(&[42u8; 256])
            .unwrap();
        let path = p.clone();
        let pf = Prefetch::spawn(move || read_extents(&path, &[Extent::new(0, 256)], None));
        let got = pf.join().unwrap();
        assert_eq!(got[0], vec![42u8; 256]);
        std::fs::remove_file(&p).ok();
    }
}
