//! Shared CSV rendering for metric snapshots.
//!
//! The figure binaries record their series into a [`Registry`] with a
//! sweep label (`cores=64`, `cores=128`, …) and render the table with
//! [`pivot_csv`] instead of hand-rolling per-column `Vec`s. Metrics
//! are stored as scaled integers (milli-seconds, tenths of a percent);
//! [`format_scaled`] places the decimal point at render time, so the
//! CSV bytes stay deterministic.
//!
//! [`Registry`]: crate::metrics::Registry

use crate::metrics::Snapshot;

/// One CSV field: as is, or quoted with inner quotes doubled when it
/// holds a comma, quote or line break (RFC 4180).
pub fn csv_field(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\"")).into()
    } else {
        s.into()
    }
}

/// Format `value / 10^scale` with exactly `scale` decimal places
/// (`format_scaled(5900, 3)` → `"5.900"`, `format_scaled(-5, 1)` →
/// `"-0.5"`).
pub fn format_scaled(value: i64, scale: u32) -> String {
    if scale == 0 {
        return value.to_string();
    }
    let p = 10u64.pow(scale);
    let a = value.unsigned_abs();
    let sign = if value < 0 { "-" } else { "" };
    format!("{sign}{}.{:0width$}", a / p, a % p, width = scale as usize)
}

/// Pivot a snapshot into a CSV table.
///
/// Rows: the distinct values `v` of labels `"{key}={v}"` present in
/// the snapshot, sorted numerically. Columns: `key` plus one per
/// `(metric name, scale)` pair, rendered via [`format_scaled`].
/// Missing cells render empty.
pub fn pivot_csv(snap: &Snapshot, key: &str, columns: &[(&str, u32)]) -> String {
    let prefix = format!("{key}=");
    let mut values: Vec<u64> = snap
        .rows
        .iter()
        .filter_map(|r| r.label.strip_prefix(&prefix)?.parse().ok())
        .collect();
    values.sort_unstable();
    values.dedup();

    let mut out = String::from(key);
    for (name, _) in columns {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for v in values {
        let label = format!("{key}={v}");
        out.push_str(&v.to_string());
        for (name, scale) in columns {
            out.push(',');
            if let Some(val) = snap.get(name, &label) {
                out.push_str(&format_scaled(val, *scale));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn scaled_formatting() {
        assert_eq!(format_scaled(5900, 3), "5.900");
        assert_eq!(format_scaled(42, 0), "42");
        assert_eq!(format_scaled(-5, 1), "-0.5");
        assert_eq!(format_scaled(0, 2), "0.00");
        assert_eq!(format_scaled(1005, 1), "100.5");
    }

    #[test]
    fn pivot_orders_numerically_and_fills_cells() {
        let r = Registry::new();
        for &(n, t) in &[(64u64, 9000i64), (1024, 1500), (128, 4500)] {
            r.gauge_set("total_ms", &format!("cores={n}"), t);
        }
        r.gauge_set("io_ms", "cores=64", 100);
        let csv = pivot_csv(&r.snapshot(), "cores", &[("total_ms", 3), ("io_ms", 3)]);
        assert_eq!(
            csv,
            "cores,total_ms,io_ms\n\
             64,9.000,0.100\n\
             128,4.500,\n\
             1024,1.500,\n"
        );
    }
}
