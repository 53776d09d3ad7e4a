//! Always-on flight recorder: a bounded ring of recent pipeline
//! events, dumped to a replayable JSON artifact when an anomaly fires.
//!
//! The recorder is the production-shaped complement to [`crate::span`]:
//! a [`crate::span::Tracer`] records *everything* for a frame you chose
//! to profile, while a [`FlightRecorder`] records a little about
//! *every* frame, forever, in O(1) memory — so when an SLO violation,
//! fault, or degradation-ladder activation happens, the last-N-events
//! window around it already exists and can be exported without having
//! re-run anything.
//!
//! Cost discipline (mirrors the tracer, asserted by
//! `tests/noop_alloc.rs`):
//!
//! * **Disabled** ([`FlightRecorder::disabled`]): every method is an
//!   early-return on a `None` — zero allocations, zero locks.
//! * **Enabled**: the ring is allocated once at construction
//!   ([`FlightEvent`] is `Copy` with `&'static str` names and inline
//!   [`Args`]); recording an event is a mutex lock plus an indexed
//!   store, never an allocation. Only building an anomaly dump (a rare
//!   event by definition) allocates.
//!
//! Clock discipline (also mirrors the tracer): [`FlightRecorder::wall`]
//! timestamps in wall-clock microseconds; [`FlightRecorder::manual`]
//! assigns one logical tick per event, so a run whose recording points
//! execute in a deterministic order produces a byte-identical dump —
//! that is what lets CI golden-test an anomaly artifact.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Quote;
use crate::span::Args;

/// What one ring entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A point event (stage handoff, frame boundary, verdict).
    Instant,
    /// A metric delta/level (bytes, counts) carried in the args.
    Metric,
    /// A fault or recovery action (crash detected, adoption, hedge).
    Fault,
}

/// One fixed-size ring entry. `Copy` on purpose: recording one is an
/// indexed store into the preallocated ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Frame counter at record time (see [`FlightRecorder::begin_frame`]).
    pub frame: u64,
    /// Track id — same convention as the tracer (rank index; 0 doubles
    /// as the driver track).
    pub track: u32,
    pub kind: FlightKind,
    pub name: &'static str,
    /// Microseconds (wall recorder) or logical ticks (manual recorder).
    pub ts: u64,
    pub args: Args,
}

/// One anomaly artifact: the ring contents at trigger time, serialized
/// to Perfetto-compatible `traceEvents` JSON with an `anomaly` header.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    pub reason: String,
    /// Frame counter when the anomaly fired.
    pub frame: u64,
    pub json: String,
}

/// Anomaly dumps retained in memory before [`FlightRecorder::take_dumps`]
/// drains them; later anomalies are counted, not stored.
pub const MAX_DUMPS: usize = 4;

struct State {
    /// Preallocated to capacity; `head`/`len` carve the live window.
    ring: Vec<FlightEvent>,
    head: usize,
    len: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Total events ever recorded.
    recorded: u64,
    frame: u64,
    /// Manual-clock tick counter (one per event).
    ticks: u64,
    dumps: Vec<FlightDump>,
    dumps_dropped: u64,
}

struct Inner {
    wall: bool,
    t0: Instant,
    state: Mutex<State>,
}

/// The recorder handle. Clones share one ring.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

const IDLE: FlightEvent = FlightEvent {
    frame: 0,
    track: 0,
    kind: FlightKind::Instant,
    name: "",
    ts: 0,
    args: Args([None, None, None]),
};

impl FlightRecorder {
    /// The no-op recorder: every method returns immediately without
    /// allocating or locking.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// A recorder timestamping in wall-clock microseconds since
    /// construction, retaining the last `capacity` events.
    pub fn wall(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_clock(capacity, true)
    }

    /// A recorder assigning one logical tick per event — deterministic
    /// dumps for runs whose recording points execute in a fixed order.
    pub fn manual(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_clock(capacity, false)
    }

    fn with_clock(capacity: usize, wall: bool) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                wall,
                t0: Instant::now(),
                state: Mutex::new(State {
                    ring: vec![IDLE; capacity],
                    head: 0,
                    len: 0,
                    dropped: 0,
                    recorded: 0,
                    frame: 0,
                    ticks: 0,
                    dumps: Vec::with_capacity(MAX_DUMPS),
                    dumps_dropped: 0,
                }),
            })),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&Inner, &mut State) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        let mut st = inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(f(inner, &mut st))
    }

    fn push(&self, track: u32, kind: FlightKind, name: &'static str, args: Args) {
        self.with_state(|inner, st| {
            let ts = if inner.wall {
                inner.t0.elapsed().as_micros() as u64
            } else {
                st.ticks += 1;
                st.ticks - 1
            };
            let ev = FlightEvent {
                frame: st.frame,
                track,
                kind,
                name,
                ts,
                args,
            };
            let cap = st.ring.len();
            if st.len == cap {
                st.ring[st.head] = ev;
                st.head = (st.head + 1) % cap;
                st.dropped += 1;
            } else {
                let i = (st.head + st.len) % cap;
                st.ring[i] = ev;
                st.len += 1;
            }
            st.recorded += 1;
        });
    }

    /// Record a point event.
    pub fn instant(&self, track: u32, name: &'static str, args: Args) {
        self.push(track, FlightKind::Instant, name, args);
    }

    /// Record a metric delta/level; the value rides the args.
    pub fn metric(&self, track: u32, name: &'static str, value: u64) {
        self.push(track, FlightKind::Metric, name, Args::one("value", value));
    }

    /// Record a fault or recovery action.
    pub fn fault(&self, track: u32, name: &'static str, args: Args) {
        self.push(track, FlightKind::Fault, name, args);
    }

    /// Advance the frame counter; subsequent events belong to the new
    /// frame. Returns the new frame number (0 before the first call;
    /// the disabled recorder always returns 0).
    pub fn begin_frame(&self) -> u64 {
        self.with_state(|_, st| {
            st.frame += 1;
            st.frame
        })
        .unwrap_or(0)
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.with_state(|_, st| st.len).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (survives ring wrap).
    pub fn events_recorded(&self) -> u64 {
        self.with_state(|_, st| st.recorded).unwrap_or(0)
    }

    /// Events lost to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.with_state(|_, st| st.dropped).unwrap_or(0)
    }

    /// Serialize the current ring window (oldest first) plus an
    /// `anomaly` header to Perfetto `traceEvents` JSON. `None` when
    /// disabled. This is the only allocating path of the recorder.
    pub fn snapshot_json(&self, reason: &str, args: Args) -> Option<String> {
        self.with_state(|_, st| render_dump(st, reason, args))
    }

    /// Fire an anomaly: snapshot the ring into a [`FlightDump`] held
    /// for [`FlightRecorder::take_dumps`]. At most [`MAX_DUMPS`] are
    /// retained between drains; overflow is counted. Returns whether a
    /// dump was stored.
    pub fn anomaly(&self, reason: &str, args: Args) -> bool {
        self.with_state(|_, st| {
            if st.dumps.len() >= MAX_DUMPS {
                st.dumps_dropped += 1;
                return false;
            }
            let json = render_dump(st, reason, args);
            st.dumps.push(FlightDump {
                reason: reason.to_string(),
                frame: st.frame,
                json,
            });
            true
        })
        .unwrap_or(false)
    }

    /// Drain the stored anomaly dumps (oldest first).
    pub fn take_dumps(&self) -> Vec<FlightDump> {
        self.with_state(|_, st| std::mem::take(&mut st.dumps))
            .unwrap_or_default()
    }

    /// Anomalies discarded because [`MAX_DUMPS`] were already pending.
    pub fn dumps_dropped(&self) -> u64 {
        self.with_state(|_, st| st.dumps_dropped).unwrap_or(0)
    }
}

fn render_dump(st: &State, reason: &str, args: Args) -> String {
    let mut out = String::with_capacity(256 + st.len * 96);
    out.push_str(&format!(
        "{{\"anomaly\":{{\"reason\":{},\"frame\":{},\"recorded\":{},\"ring_dropped\":{}",
        Quote(reason),
        st.frame,
        st.recorded,
        st.dropped
    ));
    for (k, v) in args.iter() {
        out.push_str(&format!(",\"{k}\":{v}"));
    }
    out.push_str("},\n\"traceEvents\":[\n");
    for k in 0..st.len {
        let ev = &st.ring[(st.head + k) % st.ring.len()];
        if k > 0 {
            out.push_str(",\n");
        }
        let (ph, scope) = match ev.kind {
            FlightKind::Instant => ("i", Some("t")),
            FlightKind::Metric => ("C", None),
            FlightKind::Fault => ("i", Some("g")),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            ev.name, ev.ts, ev.track
        ));
        if let Some(s) = scope {
            out.push_str(&format!(",\"s\":\"{s}\""));
        }
        out.push_str(&format!(",\"args\":{{\"frame\":{}", ev.frame));
        for (k, v) in ev.args.iter() {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}}");
    }
    out.push_str("\n],\n\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        assert!(!r.enabled());
        r.instant(0, "x", Args::none());
        r.metric(1, "y", 7);
        r.fault(2, "z", Args::one("rank", 2));
        assert_eq!(r.begin_frame(), 0);
        assert_eq!(r.len(), 0);
        assert_eq!(r.events_recorded(), 0);
        assert!(!r.anomaly("nope", Args::none()));
        assert!(r.take_dumps().is_empty());
        assert_eq!(r.snapshot_json("nope", Args::none()), None);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let r = FlightRecorder::manual(4);
        for i in 0..6u64 {
            r.metric(0, "m", i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.events_recorded(), 6);
        assert_eq!(r.dropped(), 2);
        let json = r.snapshot_json("check", Args::none()).unwrap();
        // Oldest surviving event is #2 (ts 2, value 2); #0/#1 are gone.
        assert!(json.contains("\"ts\":2"));
        assert!(!json.contains("\"ts\":0,"));
        assert!(json.contains("\"ring_dropped\":2"));
    }

    #[test]
    fn manual_clock_dumps_are_deterministic() {
        let run = || {
            let r = FlightRecorder::manual(8);
            r.begin_frame();
            r.instant(0, "frame.start", Args::one("ranks", 8));
            r.fault(3, "rank.straggle", Args::two("rank", 3, "ms", 1200));
            r.metric(0, "composite.bytes", 4096);
            r.snapshot_json("slo-violation", Args::two("stage", 2, "rank", 3))
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn anomaly_dumps_are_capped() {
        let r = FlightRecorder::manual(4);
        r.instant(0, "e", Args::none());
        for _ in 0..MAX_DUMPS {
            assert!(r.anomaly("a", Args::none()));
        }
        assert!(!r.anomaly("overflow", Args::none()));
        assert_eq!(r.dumps_dropped(), 1);
        let dumps = r.take_dumps();
        assert_eq!(dumps.len(), MAX_DUMPS);
        assert_eq!(dumps[0].reason, "a");
        // Drained: the next anomaly stores again.
        assert!(r.anomaly("b", Args::none()));
        assert_eq!(r.take_dumps().len(), 1);
    }

    #[test]
    fn dump_reason_is_escaped() {
        let r = FlightRecorder::manual(2);
        r.instant(0, "e", Args::none());
        let reason = "say \"hi\"\\\n";
        let dump = crate::json::parse(&r.snapshot_json(reason, Args::none()).unwrap());
        let anomaly = dump.expect("dump is JSON");
        assert_eq!(
            anomaly.field("anomaly").unwrap().str_field("reason"),
            Ok(reason)
        );
    }

    #[test]
    fn frames_stamp_events() {
        let r = FlightRecorder::manual(8);
        r.instant(0, "before", Args::none());
        assert_eq!(r.begin_frame(), 1);
        r.instant(0, "after", Args::none());
        let json = r.snapshot_json("x", Args::none()).unwrap();
        assert!(json.contains("\"args\":{\"frame\":0}"));
        assert!(json.contains("\"args\":{\"frame\":1}"));
    }
}
