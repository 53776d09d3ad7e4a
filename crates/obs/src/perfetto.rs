//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Emits the [JSON Array Format] Perfetto's legacy importer accepts:
//! a `traceEvents` array of `B`/`E` duration events, `i` instant
//! events, and `M` metadata events naming one thread lane per track
//! (rank). Open the file directly in <https://ui.perfetto.dev>.
//!
//! The serializer is hand-rolled (the workspace builds offline with no
//! serde) and fully deterministic: events are emitted in `Profile`
//! order, args in their fixed declaration order, all values are
//! integers, and no floats or hash maps are involved — so one profile
//! always yields one byte sequence, which the golden-file tests rely
//! on.
//!
//! [`validate`] is the matching structural checker used by CI's
//! `profile-smoke` job: it re-parses the exported string with the
//! workspace's JSON reader ([`crate::json`]) and verifies the schema
//! (required keys per phase type) and that B/E events are well-nested
//! per track.

use crate::json::{self, Json, Quote};
use crate::span::{EventKind, Profile, TrackId};

/// Process id used for all tracks (single simulated job).
const PID: u32 = 1;

fn push_args(out: &mut String, args: &crate::span::Args) {
    out.push_str(",\"args\":{");
    let mut first = true;
    for (k, v) in args.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{k}\":{v}"));
    }
    out.push('}');
}

/// Serialize a profile to `trace_event` JSON. Timestamps are emitted
/// as-is in the `ts` field (Perfetto interprets them as microseconds).
pub fn to_json(profile: &Profile) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
        out.push('\n');
    };
    for (tid, name) in &profile.tracks {
        let name = Quote(name);
        emit(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{name}}}}}"
            ),
            &mut first,
        );
    }
    for e in &profile.events {
        let mut s = match e.kind {
            EventKind::Begin => format!(
                "{{\"ph\":\"B\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"name\":\"{}\"",
                e.track, e.ts, e.name
            ),
            EventKind::End => format!(
                "{{\"ph\":\"E\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"name\":\"{}\"",
                e.track, e.ts, e.name
            ),
            EventKind::Instant => format!(
                "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\"",
                e.track, e.ts, e.name
            ),
        };
        push_args(&mut s, &e.args);
        s.push('}');
        emit(s, &mut first);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A structural defect [`validate`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One parsed event (the fields the validator cares about).
#[derive(Debug, Clone)]
struct RawEvent {
    ph: char,
    tid: TrackId,
    ts: Option<u64>,
    name: String,
}

/// A non-negative integer value.
fn int(v: &Json) -> Option<u64> {
    v.as_num()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
}

/// The top-level objects of the document's `traceEvents` array.
fn parse_events(text: &str) -> Result<Vec<RawEvent>, SchemaError> {
    let doc = json::parse(text).map_err(|e| SchemaError(format!("not JSON: {e}")))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| SchemaError("missing traceEvents array".into()))?;
    events
        .iter()
        .map(|e| {
            let missing = |key: &str| SchemaError(format!("event without {key}: {e}"));
            let ph = e
                .get("ph")
                .and_then(Json::as_str)
                .and_then(|s| s.chars().next());
            let ph = ph.ok_or_else(|| missing("ph"))?;
            let tid = e.get("tid").and_then(int).ok_or_else(|| missing("tid"))?;
            let name = e.get("name").and_then(Json::as_str);
            let name = name.ok_or_else(|| missing("name"))?.to_string();
            Ok(RawEvent {
                ph,
                tid: tid as TrackId,
                ts: e.get("ts").and_then(int),
                name,
            })
        })
        .collect()
}

/// Schema-validate an exported trace: every event has the keys its
/// phase requires, timestamps per track are non-decreasing, and B/E
/// events are well-nested per track (every E closes the innermost open
/// B with the same name; nothing stays open). Returns the number of
/// events on success.
pub fn validate(json: &str) -> Result<usize, SchemaError> {
    let events = parse_events(json)?;
    let mut stacks: std::collections::BTreeMap<TrackId, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<TrackId, u64> = Default::default();
    for e in &events {
        match e.ph {
            'M' => continue,
            'B' | 'E' | 'i' => {
                let ts =
                    e.ts.ok_or_else(|| SchemaError(format!("{} event without ts", e.ph)))?;
                let last = last_ts.entry(e.tid).or_insert(0);
                if ts < *last {
                    return Err(SchemaError(format!(
                        "track {}: ts went backwards ({} after {})",
                        e.tid, ts, last
                    )));
                }
                *last = ts;
                match e.ph {
                    'B' => stacks.entry(e.tid).or_default().push(e.name.clone()),
                    'E' => {
                        let stack = stacks.entry(e.tid).or_default();
                        match stack.pop() {
                            Some(open) if open == e.name => {}
                            Some(open) => {
                                return Err(SchemaError(format!(
                                    "track {}: E \"{}\" closes open span \"{}\"",
                                    e.tid, e.name, open
                                )))
                            }
                            None => {
                                return Err(SchemaError(format!(
                                    "track {}: E \"{}\" with no open span",
                                    e.tid, e.name
                                )))
                            }
                        }
                    }
                    _ => {}
                }
            }
            other => return Err(SchemaError(format!("unknown phase type {other:?}"))),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(SchemaError(format!(
                "track {tid}: span \"{open}\" never closed"
            )));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Args, SpanEvent};

    fn ev(track: TrackId, name: &'static str, kind: EventKind, ts: u64) -> SpanEvent {
        SpanEvent {
            track,
            name,
            kind,
            ts,
            args: Args::none(),
        }
    }

    #[test]
    fn export_and_validate_round_trip() {
        let p = Profile::from_parts(
            vec![(0, "rank 0".into()), (1, "rank 1".into())],
            vec![
                ev(0, "frame", EventKind::Begin, 0),
                ev(0, "io", EventKind::Begin, 1),
                ev(1, "frame", EventKind::Begin, 0),
                ev(0, "io", EventKind::End, 5),
                ev(1, "fault", EventKind::Instant, 3),
                ev(0, "frame", EventKind::End, 9),
                ev(1, "frame", EventKind::End, 9),
            ],
        );
        let json = to_json(&p);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"i\""));
        // 2 metadata + 7 span events
        assert_eq!(validate(&json).unwrap(), 9);
    }

    #[test]
    fn export_is_deterministic() {
        let p = Profile::from_parts(
            vec![(0, "r".into())],
            vec![
                ev(0, "a", EventKind::Begin, 0),
                ev(0, "a", EventKind::End, 2),
            ],
        );
        assert_eq!(to_json(&p), to_json(&p.clone()));
    }

    #[test]
    fn validator_rejects_unbalanced() {
        let p = Profile::from_parts(vec![(0, "r".into())], vec![ev(0, "a", EventKind::Begin, 0)]);
        assert!(validate(&to_json(&p)).is_err());
    }

    #[test]
    fn validator_rejects_mismatched_close() {
        let p = Profile::from_parts(
            vec![(0, "r".into())],
            vec![
                ev(0, "a", EventKind::Begin, 0),
                ev(0, "b", EventKind::End, 1),
            ],
        );
        let err = validate(&to_json(&p)).unwrap_err();
        assert!(err.0.contains("closes open span"));
    }

    #[test]
    fn args_are_serialized_in_order() {
        let p = Profile::from_parts(
            vec![(0, "r".into())],
            vec![SpanEvent {
                track: 0,
                name: "x",
                kind: EventKind::Instant,
                ts: 4,
                args: Args::two("bytes", 128, "tag", 2),
            }],
        );
        let json = to_json(&p);
        assert!(json.contains("\"args\":{\"bytes\":128,\"tag\":2}"));
        validate(&json).unwrap();
    }

    #[test]
    fn track_names_are_escaped_and_read_back() {
        let name = "a\"b\\c";
        let p = Profile::from_parts(vec![(0, name.into())], vec![]);
        let text = to_json(&p);
        let doc = json::parse(&text).expect("exported trace is JSON");
        let events = doc.arr_field("traceEvents").unwrap();
        let args = events[0].field("args").unwrap();
        assert_eq!(args.str_field("name"), Ok(name));
        assert_eq!(validate(&text), Ok(1));
        // Names without a quote, backslash or control character export
        // exactly as they did before escaping.
        let plain = Profile::from_parts(vec![(3, "rank 3".into())], vec![]);
        assert!(to_json(&plain).contains("\"args\":{\"name\":\"rank 3\"}"));
    }

    #[test]
    fn validator_rejects_events_without_a_comma() {
        let b = "{\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"a\"}";
        let e = "{\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":1,\"name\":\"a\"}";
        assert_eq!(validate(&format!("{{\"traceEvents\":[{b},{e}]}}")), Ok(2));
        assert!(validate(&format!("{{\"traceEvents\":[{b}{e}]}}")).is_err());
    }
}
