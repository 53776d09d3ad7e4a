//! Analysis passes over captured span profiles.
//!
//! * [`imbalance`] — the paper's Fig. 6 statistic: max/mean of
//!   per-rank stage durations.
//! * [`span_overlap`] — how long two span families ran at once (the
//!   I/O a prefetch hid under compute).
//!
//! The passes that read a message trace (`profile_from_trace`,
//! `critical_path`, `link_matrix`) live beside the trace, in
//! `pvr_mpisim::analysis`.

use crate::span::{EventKind, Profile};

/// Per-stage load imbalance: max and mean of the per-track span
/// durations of one span name, and their ratio in milli-units
/// (`factor_milli = 1000` means perfectly balanced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Imbalance {
    pub name: String,
    pub max: u64,
    pub mean: u64,
    pub factor_milli: u64,
}

/// Compute the paper's Fig. 6 statistic (max/mean of per-rank stage
/// time) for each named stage, from a span profile.
pub fn imbalance(profile: &Profile, stages: &[&str]) -> Vec<Imbalance> {
    stages
        .iter()
        .map(|&name| {
            let durs = profile.span_durations(name);
            let max = durs.iter().map(|&(_, d)| d).max().unwrap_or(0);
            let total: u64 = durs.iter().map(|&(_, d)| d).sum();
            let mean = if durs.is_empty() {
                0
            } else {
                total / durs.len() as u64
            };
            Imbalance {
                name: name.to_string(),
                max,
                mean,
                factor_milli: (max * 1000).checked_div(mean).unwrap_or(0),
            }
        })
        .collect()
}

/// Render imbalance rows as `stage,max,mean,factor_milli` CSV.
pub fn imbalance_csv(rows: &[Imbalance]) -> String {
    let mut out = String::from("stage,max,mean,factor_milli\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{}\n",
            r.name, r.max, r.mean, r.factor_milli
        ));
    }
    out
}

/// How much two families of spans ran at the same time — the
/// pipelining statistic: with `a` = the prefetch reads and `b` = the
/// render/composite spans, `both / a_total` is the fraction of I/O
/// that was hidden under compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Overlap {
    /// Time covered by at least one `a` span (union across tracks).
    pub a_total: u64,
    /// Time covered by at least one `b` span.
    pub b_total: u64,
    /// Time covered by both families simultaneously.
    pub both: u64,
}

impl Overlap {
    /// Fraction of `a`'s covered time spent under some `b` span.
    pub fn a_hidden_fraction(&self) -> f64 {
        if self.a_total == 0 {
            0.0
        } else {
            self.both as f64 / self.a_total as f64
        }
    }
}

/// Merged (union) intervals of every outermost span whose name is in
/// `names`, across all tracks, sorted and non-overlapping.
fn merged_intervals(profile: &Profile, names: &[&str]) -> Vec<(u64, u64)> {
    let mut ivals: Vec<(u64, u64)> = Vec::new();
    for &(track, _) in &profile.tracks {
        for &name in names {
            let mut depth = 0usize;
            let mut open_ts = 0u64;
            for e in profile.events_for(track) {
                if e.name != name {
                    continue;
                }
                match e.kind {
                    EventKind::Begin => {
                        if depth == 0 {
                            open_ts = e.ts;
                        }
                        depth += 1;
                    }
                    EventKind::End => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 && e.ts > open_ts {
                            ivals.push((open_ts, e.ts));
                        }
                    }
                    EventKind::Instant => {}
                }
            }
        }
    }
    ivals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in ivals {
        match merged.last_mut() {
            Some((_, end)) if lo <= *end => *end = (*end).max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// Measure the concurrency between two span families (each named by
/// any of the listed span names, on any track): total covered time of
/// each and the time both were active at once.
pub fn span_overlap(profile: &Profile, a: &[&str], b: &[&str]) -> Overlap {
    let ia = merged_intervals(profile, a);
    let ib = merged_intervals(profile, b);
    let total = |iv: &[(u64, u64)]| iv.iter().map(|&(lo, hi)| hi - lo).sum::<u64>();
    // Two-pointer sweep over the sorted non-overlapping interval lists.
    let mut both = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ia.len() && j < ib.len() {
        let lo = ia[i].0.max(ib[j].0);
        let hi = ia[i].1.min(ib[j].1);
        if lo < hi {
            both += hi - lo;
        }
        if ia[i].1 <= ib[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    Overlap {
        a_total: total(&ia),
        b_total: total(&ib),
        both,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Args, SpanEvent};

    #[test]
    fn imbalance_factor_flags_the_straggler() {
        let mut events = Vec::new();
        for (rank, dur) in [(0u32, 10u64), (1, 10), (2, 40)] {
            events.push(SpanEvent {
                track: rank,
                name: "render",
                kind: EventKind::Begin,
                ts: 0,
                args: Args::none(),
            });
            events.push(SpanEvent {
                track: rank,
                name: "render",
                kind: EventKind::End,
                ts: dur,
                args: Args::none(),
            });
        }
        let p = Profile::from_parts((0..3).map(|r| (r, format!("rank {r}"))).collect(), events);
        let im = imbalance(&p, &["render", "absent"]);
        assert_eq!(im[0].max, 40);
        assert_eq!(im[0].mean, 20);
        assert_eq!(im[0].factor_milli, 2000);
        assert_eq!(im[1].factor_milli, 0);
        assert!(imbalance_csv(&im).contains("render,40,20,2000\n"));
    }

    #[test]
    fn span_overlap_measures_concurrency() {
        // Track 0: "read" over [0, 10) and [20, 30).
        // Track 1: "work" over [5, 25).
        // Overlap: [5,10) + [20,25) = 10 of read's 20 → half hidden.
        let mut events = Vec::new();
        for (lo, hi) in [(0u64, 10u64), (20, 30)] {
            events.push(SpanEvent {
                track: 0,
                name: "read",
                kind: EventKind::Begin,
                ts: lo,
                args: Args::none(),
            });
            events.push(SpanEvent {
                track: 0,
                name: "read",
                kind: EventKind::End,
                ts: hi,
                args: Args::none(),
            });
        }
        events.push(SpanEvent {
            track: 1,
            name: "work",
            kind: EventKind::Begin,
            ts: 5,
            args: Args::none(),
        });
        events.push(SpanEvent {
            track: 1,
            name: "work",
            kind: EventKind::End,
            ts: 25,
            args: Args::none(),
        });
        let p = Profile::from_parts((0..2).map(|r| (r, format!("rank {r}"))).collect(), events);
        let ov = span_overlap(&p, &["read"], &["work"]);
        assert_eq!(ov.a_total, 20);
        assert_eq!(ov.b_total, 20);
        assert_eq!(ov.both, 10);
        assert!((ov.a_hidden_fraction() - 0.5).abs() < 1e-12);
        // Disjoint families overlap nowhere.
        let none = span_overlap(&p, &["read"], &["absent"]);
        assert_eq!(none.both, 0);
        assert_eq!(none.a_hidden_fraction(), 0.0);
    }
}
