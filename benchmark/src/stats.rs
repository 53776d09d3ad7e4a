//! The aggregator: order statistics over frame samples, the block-wise
//! drift-corrected ratio, metric naming, and the small JSON reader and
//! writer `results.json` and the result line go through (the repository
//! builds offline, so there is no serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: a metric without samples is a bug
/// in the benchmark, not a measurement.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The tail percentile a run prints: the 90th percentile once there
/// are ten samples beyond it (n ≥ 100), otherwise the highest
/// percentile that still has ten samples beyond it, and the median when
/// there are fewer than twenty samples.
pub fn tail_fraction(n: usize) -> f64 {
    if n >= 100 {
        0.9
    } else if n >= 20 {
        1.0 - 10.0 / n as f64
    } else {
        0.5
    }
}

/// The `q`-quantile of `values` (nearest rank, `0 < q < 1`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What one timed block contributes to the end-to-end metrics.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Wall seconds per frame, one entry per timed operation.
    pub frame_s: Vec<f64>,
    /// Frames completed in the block.
    pub frames: u64,
    /// Sum of the timed operations' wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds spent in the timed operations.
    pub cpu_s: f64,
    /// Mean wall seconds of the reference kernel run before and after.
    pub ref_s: f64,
    /// Peak resident set of the process during the block, MB.
    pub peak_rss_mb: f64,
}

/// Seconds per frame of each block: its median frame time.
fn block_frame_s(blocks: &[Block]) -> Vec<f64> {
    blocks.iter().map(|b| median(&b.frame_s)).collect()
}

fn lowest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// `frame_s`: the median frame time of the quietest block. Whatever else
/// runs on the machine only ever adds time, and it does so for seconds
/// at a stretch, so the block with the lowest median is the best
/// estimate of what the code itself costs.
pub fn frame_s(blocks: &[Block]) -> f64 {
    lowest(block_frame_s(blocks))
}

/// `frame_rel`: the median over blocks of a block's median frame time
/// divided by the reference kernel's time around that block, so that a
/// machine that is slow for one block slows numerator and denominator
/// alike.
pub fn frame_rel(blocks: &[Block]) -> f64 {
    let ratios: Vec<f64> = block_frame_s(blocks)
        .iter()
        .zip(blocks)
        .map(|(s, b)| s / b.ref_s)
        .collect();
    median(&ratios)
}

/// `frames_per_s`: frames completed per second of the block's timed
/// operations, in the quietest block.
pub fn frames_per_s(blocks: &[Block]) -> f64 {
    1.0 / lowest(blocks.iter().map(|b| b.wall_s / b.frames as f64))
}

/// `cpu_s_per_frame`: process CPU seconds per frame, in the quietest
/// block.
pub fn cpu_s_per_frame(blocks: &[Block]) -> f64 {
    lowest(blocks.iter().map(|b| b.cpu_s / b.frames as f64))
}

/// `peak_rss_mb`: the median over blocks of the block's peak resident
/// set. A run-long maximum would report the one rarest overlap of
/// buffers in the run; the median block reports the usual one.
pub fn peak_rss_mb(blocks: &[Block]) -> f64 {
    median(&blocks.iter().map(|b| b.peak_rss_mb).collect::<Vec<_>>())
}

/// True when `name` is a legal metric or workload name: it starts with
/// a letter or digit and continues with at most 63 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The metrics of one run, by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Insert a metric, refusing illegal names and non-finite values here
/// so they can never reach the driver.
pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &str) {
    assert!(valid_name(name), "illegal metric name {name:?}");
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    let unit = unit.to_string();
    let old = metrics.insert(name.to_string(), Metric { value, unit });
    assert!(old.is_none(), "metric {name} reported twice");
}

/// A JSON value — the subset the benchmark writes and reads back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }

    /// Parse one JSON document. Strings may use the `\"` and `\\`
    /// escapes only — the benchmark writes no others.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // `{:?}` prints the shortest digits that read back to the
            // same f64, and always as a JSON number for finite values.
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{}", *x as i64),
            Json::Num(x) => write!(f, "{x:?}"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    if matches!(c, '"' | '\\') {
                        f.write_char('\\')?;
                    }
                    f.write_char(c)?;
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(kv) => {
                f.write_char('{')?;
                for (i, (k, v)) in kv.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        _ => break,
                    }
                }
                self.eat(b'}')?;
                Ok(Json::Obj(kv))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        _ => break,
                    }
                }
                self.eat(b']')?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    if !matches!(c, b'"' | b'\\') {
                        return Err(format!("unsupported escape at {}", self.i));
                    }
                    out.push(c);
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
        self.i += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

/// The `metrics` object of a result: `{"name": {"value": v, "unit": u}}`.
pub fn metrics_json(metrics: &Metrics) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(tail_fraction(100), 0.9);
        assert_eq!(tail_fraction(5000), 0.9);
        // 50 samples: ten beyond the tail leaves the 80th percentile.
        assert!((tail_fraction(50) - 0.8).abs() < 1e-12);
        assert!(tail_fraction(99) < 0.9);
        assert_eq!(tail_fraction(19), 0.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, tail_fraction(v.len())), 90.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), 10);
        let w: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(quantile(&w, tail_fraction(w.len())), 40.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn block(frame_s: &[f64], ref_s: f64) -> Block {
        Block {
            frame_s: frame_s.to_vec(),
            frames: frame_s.len() as u64,
            wall_s: frame_s.iter().sum(),
            cpu_s: 0.5 * frame_s.iter().sum::<f64>(),
            ref_s,
            peak_rss_mb: 10.0 * ref_s,
        }
    }

    #[test]
    fn frame_rel_cancels_a_slow_block() {
        // The machine runs the second block at half speed: frames and
        // reference slow down together, the ratio does not move.
        let steady = [block(&[1.0, 1.1, 0.9], 0.5), block(&[1.0, 1.0, 1.2], 0.5)];
        let drifted = [block(&[1.0, 1.1, 0.9], 0.5), block(&[2.0, 2.0, 2.4], 1.0)];
        assert_eq!(frame_rel(&steady), 2.0);
        assert_eq!(frame_rel(&drifted), 2.0);
        // One outlier frame inside a block does not move its median.
        let spiked = [block(&[1.0, 9.0, 1.0], 0.5)];
        assert_eq!(frame_rel(&spiked), 2.0);
    }

    #[test]
    fn times_come_from_the_quietest_block_and_memory_from_the_median_one() {
        let blocks = [
            block(&[0.5, 0.5, 0.6], 1.0),
            block(&[0.25, 0.25, 0.25], 3.0),
            block(&[1.0, 9.0, 1.0], 2.0),
        ];
        assert_eq!(frame_s(&blocks), 0.25);
        assert_eq!(frames_per_s(&blocks), 4.0);
        assert_eq!(cpu_s_per_frame(&blocks), 0.125);
        assert_eq!(peak_rss_mb(&blocks), 20.0);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "frame_s",
            "pfs.read_s",
            "shim-rayon.scaling_eff",
            "9lives",
            "A",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "a/b",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut metrics = Metrics::new();
        put(&mut metrics, "frame_s", 0.052_734_918_237, "s");
        put(&mut metrics, "pfs.physical_bytes", 41_943_040.0, "B");
        put(&mut metrics, "core.glue_s", -1.5e-7, "s");
        let doc = Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("frame-ledger/v1 \"quoted\\\"".into()),
            ),
            ("seed".into(), Json::Num(1530.0)),
            (
                "runs".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("workload".into(), Json::Str("io-record".into())),
                    ("correct".into(), Json::Bool(true)),
                    ("metrics".into(), metrics_json(&metrics)),
                ])]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, doc);
        let run = &back.get("runs").unwrap();
        let Json::Arr(runs) = run else {
            panic!("runs is an array")
        };
        let m = runs[0].get("metrics").unwrap();
        let v = m.get("frame_s").unwrap().get("value").unwrap().as_f64();
        assert_eq!(v, Some(0.052_734_918_237));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
    }
}
