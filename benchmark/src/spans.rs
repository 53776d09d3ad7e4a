//! The benchmark's own span recorder: one span around each call into a
//! layer's public function, kept in memory and written out at exit.
//! In-program tracing is deliberately not used here — layers are timed
//! from outside.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use pvr_obs::span::{EventKind, SpanEvent};
use pvr_obs::{Args, Profile};

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Frame the span belongs to; spans of one frame share it.
    pub frame: u32,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    frame: u32,
}

/// Records spans on the calling thread. A disabled recorder runs the
/// closure and records nothing, which is how the recorder's own cost
/// (`bench.span_overhead_frac`) is measured.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    state: RefCell<State>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            state: RefCell::default(),
        }
    }

    /// Spans opened from now on belong to `frame`.
    pub fn set_frame(&self, frame: u32) {
        self.state.borrow_mut().frame = frame;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut st = self.state.borrow_mut();
            let id = st.spans.len();
            let parent = st.open.last().copied();
            let frame = st.frame;
            st.open.push(id);
            st.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                frame,
            });
            id
        };
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        st.spans[id].end_ns = end;
        let top = st.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        out
    }

    pub fn finish(self) -> Vec<Span> {
        self.state.into_inner().spans
    }
}

/// Self time of every span: its duration minus the part its child
/// spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Seconds of self time per frame for each span name:
/// `name -> frame -> seconds`.
pub fn self_seconds_by_frame(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.name).or_default().entry(s.frame).or_default() += ns as f64 * 1e-9;
    }
    out
}

/// Convert to the repository's profile type for the Perfetto exporter:
/// one track, microsecond timestamps, the frame id as an argument.
pub fn to_profile(spans: &[Span], track_name: &str) -> Profile {
    let mut events = Vec::with_capacity(spans.len() * 2);
    // Emit in nesting order: `from_parts` sorts stably by timestamp,
    // so spans that share a microsecond still nest.
    fn emit(i: usize, spans: &[Span], children: &[Vec<usize>], out: &mut Vec<SpanEvent>) {
        let s = &spans[i];
        let args = Args::one("frame", s.frame as u64);
        out.push(SpanEvent {
            track: 0,
            name: s.name,
            kind: EventKind::Begin,
            ts: s.start_ns / 1000,
            args,
        });
        for &c in &children[i] {
            emit(c, spans, children, out);
        }
        out.push(SpanEvent {
            track: 0,
            name: s.name,
            kind: EventKind::End,
            ts: s.end_ns / 1000,
            args,
        });
    }
    let mut children = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    for r in roots {
        emit(r, spans, &children, &mut events);
    }
    Profile::from_parts(vec![(0, track_name.to_string())], events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("frame", 0, 100, None),
            span("pfs.read", 10, 40, Some(0)),
            span("render.block", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn recorder_nests_and_exports_well_formed_traces() {
        let rec = Recorder::new(true);
        rec.set_frame(7);
        rec.span("frame", || {
            rec.span("pfs.read", || std::hint::black_box(1 + 1));
            rec.span("render.block", || std::hint::black_box(2 + 2));
        });
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].frame, 7);
        let json = pvr_obs::perfetto::to_json(&to_profile(&spans, "t"));
        // One metadata event naming the track, then a B/E pair per span.
        assert_eq!(pvr_obs::perfetto::validate(&json), Ok(7));

        let off = Recorder::new(false);
        assert_eq!(off.span("x", || 5), 5);
        assert!(off.finish().is_empty());
    }
}
