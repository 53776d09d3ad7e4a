//! The metrics registry: named counters and gauges with deterministic
//! snapshot ordering.
//!
//! Metrics are keyed by `(name, label)` where both are plain strings —
//! `label` typically encodes the rank or link (`"rank=3"`,
//! `"link=0->5"`); the empty label is the unlabelled series. Snapshots
//! iterate in `BTreeMap` order, so two runs that record the same values
//! serialize identically — that is what lets CI golden-test them.
//!
//! Everything is `u64`/`i64` integer arithmetic: no floats are stored,
//! so snapshots are bit-stable across platforms. Derived ratios are
//! computed (and rounded) only at presentation time.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::csvout::csv_field;

/// Key of one series: metric name plus an optional label.
pub type Key = (String, String);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Counter(u64),
    Gauge(i64),
}

/// One entry of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    pub name: String,
    pub label: String,
    /// `"counter"` or `"gauge"`.
    pub kind: &'static str,
    /// Counter value or gauge value (as i64 cast).
    pub value: i64,
}

/// A deterministic, ordered snapshot of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub rows: Vec<MetricRow>,
}

impl Snapshot {
    /// Render as CSV (`name,label,kind,value`), one row per series,
    /// ordered — the format `fault_sweep` and the golden tests consume.
    /// A field holding a comma, quote or line break is quoted (RFC
    /// 4180), so every row has the header's four fields whatever the
    /// labels hold (`model=adoption,n=3,m=-`, say).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,label,kind,value\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{}\n",
                csv_field(&r.name),
                csv_field(&r.label),
                r.kind,
                r.value
            ));
        }
        out
    }

    /// Render as aligned plain text for terminals.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .rows
            .iter()
            .map(|r| r.name.len() + r.label.len() + 2)
            .max()
            .unwrap_or(0);
        for r in &self.rows {
            let series = if r.label.is_empty() {
                r.name.clone()
            } else {
                format!("{}{{{}}}", r.name, r.label)
            };
            out.push_str(&format!("{series:<width$}  {}\n", r.value));
        }
        out
    }

    /// Look up a scalar row's value by `(name, label)`.
    pub fn get(&self, name: &str, label: &str) -> Option<i64> {
        self.rows
            .iter()
            .find(|r| r.name == name && r.label == label)
            .map(|r| r.value)
    }
}

/// The registry. Interior-mutable and `Sync`: one registry can be
/// shared by reference across rayon workers or rank threads.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<Key, Value>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<Key, Value>) -> R) -> R {
        let mut map = self
            .series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut map)
    }

    /// Add `delta` to the counter `(name, label)` (created at 0).
    pub fn counter_add(&self, name: &str, label: &str, delta: u64) {
        self.with(|m| {
            let e = m
                .entry((name.to_string(), label.to_string()))
                .or_insert(Value::Counter(0));
            match e {
                Value::Counter(c) => *c += delta,
                _ => panic!("metric {name}{{{label}}} is not a counter"),
            }
        });
    }

    /// Set the gauge `(name, label)`.
    pub fn gauge_set(&self, name: &str, label: &str, value: i64) {
        self.with(|m| {
            let e = m
                .entry((name.to_string(), label.to_string()))
                .or_insert(Value::Gauge(0));
            match e {
                Value::Gauge(g) => *g = value,
                _ => panic!("metric {name}{{{label}}} is not a gauge"),
            }
        });
    }

    /// Current value of a counter (None if absent or not a counter).
    pub fn counter_value(&self, name: &str, label: &str) -> Option<u64> {
        self.with(|m| match m.get(&(name.to_string(), label.to_string())) {
            Some(Value::Counter(c)) => Some(*c),
            _ => None,
        })
    }

    /// A deterministic snapshot: rows in `(name, label)` order.
    pub fn snapshot(&self) -> Snapshot {
        self.with(|m| {
            let rows = m
                .iter()
                .map(|((name, label), v)| match v {
                    Value::Counter(c) => MetricRow {
                        name: name.clone(),
                        label: label.clone(),
                        kind: "counter",
                        value: *c as i64,
                    },
                    Value::Gauge(g) => MetricRow {
                        name: name.clone(),
                        label: label.clone(),
                        kind: "gauge",
                        value: *g,
                    },
                })
                .collect();
            Snapshot { rows }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        r.counter_add("msgs", "rank=1", 2);
        r.counter_add("msgs", "rank=1", 3);
        r.gauge_set("depth", "", -4);
        assert_eq!(r.counter_value("msgs", "rank=1"), Some(5));
        let s = r.snapshot();
        assert_eq!(s.get("msgs", "rank=1"), Some(5));
        assert_eq!(s.get("depth", ""), Some(-4));
        assert_eq!(s.get("absent", ""), None);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let a = Registry::new();
        a.counter_add("b", "", 1);
        a.counter_add("a", "x", 1);
        a.counter_add("a", "", 1);
        let b = Registry::new();
        b.counter_add("a", "", 1);
        b.counter_add("b", "", 1);
        b.counter_add("a", "x", 1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().to_csv(), b.snapshot().to_csv());
        let keys: Vec<(String, String)> = a
            .snapshot()
            .rows
            .iter()
            .map(|r| (r.name.clone(), r.label.clone()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("a".into(), "".into()),
                ("a".into(), "x".into()),
                ("b".into(), "".into())
            ]
        );
    }

    /// Split one CSV line into fields, RFC 4180 quoting undone.
    fn parse_csv_line(line: &str) -> Vec<String> {
        let (mut fields, mut cur, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    cur.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_shape() {
        let r = Registry::new();
        r.counter_add("retx", "link=0->1", 7);
        let csv = r.snapshot().to_csv();
        assert_eq!(csv, "name,label,kind,value\nretx,link=0->1,counter,7\n");
    }

    #[test]
    fn csv_rows_keep_the_header_width_when_labels_hold_commas() {
        let r = Registry::new();
        r.counter_add("mc.traces", "model=adoption,n=3,m=-", 9);
        r.gauge_set("odd", "say \"hi\", twice", -1);
        let csv = r.snapshot().to_csv();
        let mut lines = csv.lines();
        let width = parse_csv_line(lines.next().unwrap()).len();
        let rows: Vec<Vec<String>> = lines.map(parse_csv_line).collect();
        assert!(rows.iter().all(|row| row.len() == width), "{csv}");
        assert_eq!(rows[0][1], "model=adoption,n=3,m=-");
        assert_eq!(rows[1][1], "say \"hi\", twice");
    }
}
