//! The unified benchmark-trajectory schema: one writer/parser for every
//! `BENCH_*.json` artifact, with per-metric gate classes so a CI gate
//! can compare a fresh run against committed results.
//!
//! Each bench bin builds a [`Trajectory`]: a flat list of named
//! [`Metric`]s — each declaring its own [`Gate`] (how a regression
//! checker may compare it) — plus free-form [`Table`]s for the per-case
//! detail rows that used to live in ad-hoc nested JSON. The writer is
//! deterministic (fixed field order, stable float formatting), so a
//! committed artifact diffs cleanly; the reader is the workspace's one
//! JSON parser, [`crate::json`].
//!
//! Gate classes encode the measurement's nature at the point where it
//! is produced, not in the checker:
//!
//! * [`Gate::Exact`] — deterministic counts and booleans (schedule
//!   sizes, healed fractions, bit-identity flags). Any drift fails.
//! * [`Gate::Rel`] — throughput-like values with an explicit relative
//!   tolerance band.
//! * [`Gate::Info`] — wall-clock readings recorded for trend analysis
//!   only; never gated (laptop CI machines are not benchmarking rigs).

use crate::json::{self, Json, Quote};

pub const SCHEMA: &str = "pvr-trajectory/v1";

/// How a regression checker may compare a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Must match exactly.
    Exact,
    /// Relative tolerance: passes when
    /// `|fresh - base| <= tol * max(|base|, |fresh|)`.
    Rel(f64),
    /// Informational; never gated.
    Info,
}

impl Gate {
    fn render(self) -> String {
        match self {
            Gate::Exact => "exact".to_string(),
            Gate::Rel(t) => format!("rel:{}", Json::Num(t)),
            Gate::Info => "info".to_string(),
        }
    }

    fn parse(s: &str) -> Result<Gate, String> {
        match s {
            "exact" => Ok(Gate::Exact),
            "info" => Ok(Gate::Info),
            _ => match s.strip_prefix("rel:") {
                Some(t) => t
                    .parse::<f64>()
                    .map(Gate::Rel)
                    .map_err(|e| format!("bad gate tolerance {t:?}: {e}")),
                None => Err(format!("unknown gate {s:?}")),
            },
        }
    }
}

/// One gated number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub key: String,
    pub value: f64,
    pub gate: Gate,
}

/// Free-form per-case detail (cells are strings; nothing in a table is
/// gated).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub name: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

/// One bench run's artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Which bench produced this (e.g. `"render"`, `"faults"`).
    pub bench: String,
    pub metrics: Vec<Metric>,
    pub tables: Vec<Table>,
}

impl Trajectory {
    pub fn new(bench: &str) -> Trajectory {
        Trajectory {
            bench: bench.to_string(),
            metrics: Vec::new(),
            tables: Vec::new(),
        }
    }

    fn push(&mut self, key: &str, value: f64, gate: Gate) -> &mut Self {
        debug_assert!(
            !self.metrics.iter().any(|m| m.key == key),
            "duplicate metric key {key}"
        );
        self.metrics.push(Metric {
            key: key.to_string(),
            value,
            gate,
        });
        self
    }

    /// Add an exactly-gated metric (counts, flags).
    pub fn exact(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, value, Gate::Exact)
    }

    /// Add a metric gated within a relative tolerance band.
    pub fn rel(&mut self, key: &str, value: f64, tol: f64) -> &mut Self {
        self.push(key, value, Gate::Rel(tol))
    }

    /// Add an ungated informational metric (wall-clock readings).
    pub fn info(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, value, Gate::Info)
    }

    /// Add a detail table.
    pub fn table(&mut self, name: &str, header: &[&str], rows: Vec<Vec<String>>) -> &mut Self {
        self.tables.push(Table {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows,
        });
        self
    }

    /// Look up a metric value.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.key == key).map(|m| m.value)
    }

    /// A synthetic regressed copy: every gated metric is pushed outside
    /// its own band (exact values shifted, relative values scaled past
    /// twice their tolerance); informational metrics are untouched.
    /// `perf_gate --self-test` uses this to prove the gate can fail.
    pub fn regressed(&self) -> Trajectory {
        let mut out = self.clone();
        for m in &mut out.metrics {
            match m.gate {
                Gate::Exact => m.value += 1.0,
                Gate::Rel(t) => m.value = m.value * (1.0 + 2.0 * t) + 2.0 * t + 1e-9,
                Gate::Info => {}
            }
        }
        out
    }

    /// Serialize deterministically (fixed field order, shortest-round-
    /// trip float formatting).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", Quote(SCHEMA)));
        s.push_str(&format!("  \"bench\": {},\n", Quote(&self.bench)));
        s.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"key\": {}, \"value\": {}, \"gate\": {}}}{}\n",
                Quote(&m.key),
                Json::Num(m.value),
                Quote(&m.gate.render()),
                if i + 1 < self.metrics.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"tables\": [\n");
        let quoted = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| Quote(c).to_string()).collect();
            cells.join(", ")
        };
        for (ti, t) in self.tables.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": {}, \"header\": [{}], \"rows\": [\n",
                Quote(&t.name),
                quoted(&t.header)
            ));
            for (ri, row) in t.rows.iter().enumerate() {
                s.push_str(&format!(
                    "      [{}]{}\n",
                    quoted(row),
                    if ri + 1 < t.rows.len() { "," } else { "" }
                ));
            }
            s.push_str(&format!(
                "    ]}}{}\n",
                if ti + 1 < self.tables.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a trajectory back from its JSON form.
    pub fn from_json(text: &str) -> Result<Trajectory, String> {
        let v = json::parse(text)?;
        let schema = v.str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let strings = |items: &[Json], what: &str| {
            let cell = |c: &Json| c.as_str().map(str::to_string);
            let cells: Option<Vec<String>> = items.iter().map(cell).collect();
            cells.ok_or_else(|| format!("{what}: expected strings"))
        };
        let mut metrics = Vec::new();
        for m in v.arr_field("metrics")? {
            metrics.push(Metric {
                key: m.str_field("key")?.to_string(),
                value: m.num_field("value")?,
                gate: Gate::parse(m.str_field("gate")?)?,
            });
        }
        let mut tables = Vec::new();
        for t in v.arr_field("tables")? {
            let rows = t.arr_field("rows")?.iter().map(|row| {
                let cells = row.as_arr().ok_or("row: expected array")?;
                strings(cells, "row")
            });
            tables.push(Table {
                name: t.str_field("name")?.to_string(),
                header: strings(t.arr_field("header")?, "header")?,
                rows: rows.collect::<Result<_, String>>()?,
            });
        }
        Ok(Trajectory {
            bench: v.str_field("bench")?.to_string(),
            metrics,
            tables,
        })
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    pub key: String,
    pub gate: Gate,
    pub baseline: f64,
    pub fresh: f64,
    pub pass: bool,
    pub note: String,
}

/// Compare a fresh trajectory against a committed baseline under each
/// metric's own gate. A gated baseline metric missing from the fresh
/// run fails (schema drift is a regression too); fresh-only metrics
/// are reported but pass (additive evolution is fine).
pub fn compare(baseline: &Trajectory, fresh: &Trajectory) -> Vec<GateCheck> {
    let mut out = Vec::new();
    for b in &baseline.metrics {
        let check = match fresh.get(&b.key) {
            None => GateCheck {
                key: b.key.clone(),
                gate: b.gate,
                baseline: b.value,
                fresh: f64::NAN,
                pass: matches!(b.gate, Gate::Info),
                note: "missing in fresh run".to_string(),
            },
            Some(f) => {
                let (pass, note) = match b.gate {
                    Gate::Info => (true, "info".to_string()),
                    Gate::Exact => (f == b.value, "exact".to_string()),
                    Gate::Rel(t) => {
                        let scale = b.value.abs().max(f.abs());
                        let ok = (f - b.value).abs() <= t * scale;
                        (ok, format!("tol {}", Json::Num(t)))
                    }
                };
                GateCheck {
                    key: b.key.clone(),
                    gate: b.gate,
                    baseline: b.value,
                    fresh: f,
                    pass,
                    note,
                }
            }
        };
        out.push(check);
    }
    for f in &fresh.metrics {
        if baseline.get(&f.key).is_none() {
            out.push(GateCheck {
                key: f.key.clone(),
                gate: f.gate,
                baseline: f64::NAN,
                fresh: f.value,
                pass: true,
                note: "new metric".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trajectory {
        let mut t = Trajectory::new("render");
        t.exact("bit_identical", 1.0)
            .exact("samples", 1234567.0)
            .rel("speedup", 2.447, 0.25)
            .info("wall_secs", 0.913)
            .table(
                "cases",
                &["case", "healed", "wall_ms"],
                vec![
                    vec!["transient".into(), "1".into(), "12.3".into()],
                    vec!["crash-heal".into(), "1".into(), "88.0".into()],
                ],
            );
        t
    }

    #[test]
    fn round_trips_through_json() {
        let t = sample();
        let json = t.to_json();
        let back = Trajectory::from_json(&json).unwrap();
        assert_eq!(t, back);
        // Deterministic: re-serializing the parse is byte-identical.
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn identical_runs_pass_every_gate() {
        let t = sample();
        let checks = compare(&t, &t.clone());
        assert!(checks.iter().all(|c| c.pass), "{checks:?}");
        assert_eq!(checks.len(), t.metrics.len());
    }

    #[test]
    fn regressed_copy_fails_its_gates() {
        let t = sample();
        let bad = t.regressed();
        let checks = compare(&t, &bad);
        let failed: Vec<_> = checks.iter().filter(|c| !c.pass).map(|c| &c.key).collect();
        // Every gated metric fails; the info metric survives.
        assert_eq!(failed.len(), 3, "{checks:?}");
        assert!(checks.iter().any(|c| c.key == "wall_secs" && c.pass));
    }

    #[test]
    fn tolerance_band_is_symmetric_and_bounded() {
        let mut base = Trajectory::new("b");
        base.rel("rate", 100.0, 0.1);
        let mut ok = Trajectory::new("b");
        ok.rel("rate", 109.0, 0.1);
        assert!(compare(&base, &ok).iter().all(|c| c.pass));
        let mut bad = Trajectory::new("b");
        bad.rel("rate", 125.0, 0.1);
        assert!(!compare(&base, &bad)[0].pass);
        // Zero baselines compare cleanly.
        let mut z = Trajectory::new("b");
        z.rel("zero", 0.0, 0.1);
        assert!(compare(&z, &z.clone()).iter().all(|c| c.pass));
    }

    #[test]
    fn missing_gated_metric_fails_missing_info_passes() {
        let t = sample();
        let mut stripped = t.clone();
        stripped
            .metrics
            .retain(|m| m.key != "speedup" && m.key != "wall_secs");
        let checks = compare(&t, &stripped);
        let by_key = |k: &str| checks.iter().find(|c| c.key == k).unwrap();
        assert!(!by_key("speedup").pass);
        assert!(by_key("wall_secs").pass);
        // A fresh-only metric is reported and passes.
        let mut extra = t.clone();
        extra.info("new_reading", 1.0);
        let checks = compare(&t, &extra);
        assert!(checks.iter().any(|c| c.key == "new_reading" && c.pass));
    }

    #[test]
    fn reader_names_what_is_wrong() {
        assert!(Trajectory::from_json("").is_err());
        assert!(Trajectory::from_json("{\"schema\": \"other/v9\"}").is_err());
        let missing = Trajectory::from_json("{\"schema\": \"pvr-trajectory/v1\"}");
        assert!(missing.unwrap_err().contains("missing field"));
        assert_eq!(Gate::Rel(0.25).render(), "rel:0.25");
        assert_eq!(Gate::parse("rel:0.25"), Ok(Gate::Rel(0.25)));
    }
}
