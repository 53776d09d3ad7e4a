//! Per-stage frame timing, shared by the real and simulated executors.
//!
//! "We define the time that a frame takes to complete as the time from
//! the start of reading the time step from disk to the time that the
//! final image is completed", split into I/O, rendering, and
//! compositing.

/// Wall-clock (or simulated) seconds per stage of one frame.
///
/// For a sequential frame the stage durations tile the frame, so
/// [`FrameTiming::total`] *is* the frame time. Pipelined animation
/// overlaps one frame's I/O with another frame's rendering, so the
/// per-stage sum can exceed the frame's true critical path; the
/// overlap-aware fields (`starts`, `wall`) record when each stage began
/// and how long the frame really occupied the clock, and
/// [`FrameTiming::elapsed`]/[`FrameTiming::hidden`] report the honest
/// wall time and how much stage work was hidden under other frames.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameTiming {
    pub io: f64,
    pub render: f64,
    pub composite: f64,
    /// Start of each stage (io, render, composite), seconds relative to
    /// the start of the frame's own critical path. All zero for the
    /// sequential entry points, where stage order implies the starts.
    pub starts: [f64; 3],
    /// True wall-clock span of the frame (first stage start to last
    /// stage end). Zero means "not recorded" — the sequential paths,
    /// where it would equal [`FrameTiming::total`].
    pub wall: f64,
    /// What recovery did during the frame (all zero unless the frame
    /// ran under a fault plan).
    pub recovery: pvr_faults::RecoveryCounters,
    /// Explicit bound on the image error introduced by coarse-rung
    /// heals of the degradation ladder: the fraction of image pixels
    /// whose blocks were re-rendered approximately instead of
    /// bit-identically. Zero for full heals and degrade-only frames
    /// (missing content is reported via completeness, not here).
    pub error_bound: f64,
    /// The frame's SLO verdict against perfmodel-derived stage budgets
    /// ([`crate::slo`]), with attribution of the blown budget. Set on
    /// every executed frame; `None` on a rank's own timing before the
    /// driver assembles the frame, and on modeled frames.
    pub slo: Option<crate::slo::FrameSlo>,
}

impl FrameTiming {
    pub fn total(&self) -> f64 {
        self.io + self.render + self.composite
    }

    /// Honest frame duration: the recorded wall span when one exists
    /// (pipelined runs), else the sequential stage sum.
    pub fn elapsed(&self) -> f64 {
        if self.wall > 0.0 {
            self.wall
        } else {
            self.total()
        }
    }

    /// Stage time hidden under other frames' work: how much the stage
    /// sum exceeds the frame's true wall span. Zero for sequential
    /// frames by construction.
    pub fn hidden(&self) -> f64 {
        (self.total() - self.elapsed()).max(0.0)
    }

    /// Visualization-only time — what papers that exclude I/O report
    /// ("our visualization-only time (rendering + compositing) is
    /// 0.6 s").
    pub fn vis_only(&self) -> f64 {
        self.render + self.composite
    }

    pub fn io_percent(&self) -> f64 {
        100.0 * self.io / self.total().max(1e-12)
    }

    pub fn render_percent(&self) -> f64 {
        100.0 * self.render / self.total().max(1e-12)
    }

    pub fn composite_percent(&self) -> f64 {
        100.0 * self.composite / self.total().max(1e-12)
    }

    /// A Table-II style row: total, %I/O, %composite.
    pub fn table_row(&self) -> String {
        format!(
            "{:9.2}  {:5.1}  {:5.1}",
            self.total(),
            self.io_percent(),
            self.composite_percent()
        )
    }
}

impl std::fmt::Display for FrameTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "total {:.3}s = I/O {:.3}s ({:.1}%) + render {:.3}s ({:.1}%) + composite {:.3}s ({:.1}%)",
            self.total(),
            self.io,
            self.io_percent(),
            self.render,
            self.render_percent(),
            self.composite,
            self.composite_percent()
        )
    }
}

/// A simple wall-clock stopwatch for the real pipeline.
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds since start; resets the watch.
    pub fn lap(&mut self) -> f64 {
        let t = self.0.elapsed().as_secs_f64();
        self.0 = std::time::Instant::now();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_hundred() {
        let t = FrameTiming {
            io: 49.3,
            render: 0.9,
            composite: 1.1,
            ..Default::default()
        };
        let sum = t.io_percent() + t.render_percent() + t.composite_percent();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((t.total() - 51.3).abs() < 1e-12);
        assert!((t.vis_only() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn table_row_formats() {
        let t = FrameTiming {
            io: 49.35,
            render: 1.0,
            composite: 1.0,
            ..Default::default()
        };
        let row = t.table_row();
        assert!(row.contains("51.35"));
    }

    #[test]
    fn overlap_aware_timing_reports_hidden_stage_time() {
        // Sequential frame: no wall recorded, elapsed == total, nothing
        // hidden.
        let seq = FrameTiming {
            io: 2.0,
            render: 0.5,
            composite: 0.5,
            ..Default::default()
        };
        assert_eq!(seq.elapsed(), 3.0);
        assert_eq!(seq.hidden(), 0.0);

        // Pipelined frame: 2 s of I/O overlapped with the previous
        // frame, so the frame only occupied 1.2 s of wall clock.
        let pipe = FrameTiming {
            wall: 1.2,
            starts: [0.0, 0.2, 0.7],
            ..seq
        };
        assert_eq!(pipe.elapsed(), 1.2);
        assert!((pipe.hidden() - 1.8).abs() < 1e-12);
        // The per-stage accessors are unchanged.
        assert_eq!(pipe.total(), 3.0);
        assert_eq!(pipe.vis_only(), 1.0);
    }

    #[test]
    fn stopwatch_measures_time() {
        // Only monotonicity properties: a lap covering a 10 ms sleep is
        // at least that long, and every lap is non-negative. (Comparing
        // two laps against each other is scheduler-dependent and was a
        // source of flakes on loaded machines.)
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t = sw.lap();
        assert!(t >= 0.009, "lap {t}");
        let t2 = sw.lap();
        assert!(t2 >= 0.0, "lap {t2}");
    }
}
