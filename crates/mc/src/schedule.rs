//! Persistent counterexample schedules.
//!
//! A schedule is the per-rank list of sources the explorer forced each
//! wildcard receive to match — the same shape
//! [`ReplayLog`](pvr_mpisim::trace::ReplayLog) records and
//! [`GuidedSchedule`](pvr_mpisim::GuidedSchedule) forces. Violations
//! are persisted as JSON (through the workspace's one JSON module,
//! [`pvr_obs::json`]) so a failing exploration leaves behind a file
//! that can be loaded and replayed without re-exploring anything.

use pvr_mpisim::trace::ReplayLog;
use pvr_mpisim::GuidedSchedule;
use pvr_obs::json::{parse, Json};

/// A wildcard-match schedule: `prefix[rank][i]` is the source rank
/// `rank`'s `i`-th wildcard receive matches. When `complete` (see
/// [`crate::Violation::complete`]) it covers every wildcard of the run
/// and can be replayed via `MatchPolicy::Replay`; otherwise replay it
/// via `MatchPolicy::Guided`, which pins the prefix and continues
/// deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    pub prefix: Vec<Vec<usize>>,
}

impl Schedule {
    pub fn new(prefix: Vec<Vec<usize>>) -> Self {
        Schedule { prefix }
    }

    /// As a replay log (for `MatchPolicy::Replay`; panics at runtime if
    /// the program needs more wildcards than the schedule covers —
    /// only use on complete schedules).
    pub fn to_replay(&self) -> ReplayLog {
        ReplayLog::from_choices(self.prefix.clone())
    }

    /// As a guided schedule (for `MatchPolicy::Guided`; always safe —
    /// wildcards past the prefix fall back to min-source).
    pub fn to_guided(&self) -> GuidedSchedule {
        GuidedSchedule::new(self.prefix.clone())
    }

    /// Serialize: `{"version":1,"prefix":[[...],...]}`.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            (
                "prefix".into(),
                Json::Arr(
                    self.prefix
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|&s| Json::Num(s as f64)).collect()))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parse what [`Schedule::to_json`] emits.
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        let root = parse(text)?;
        let version = root
            .num_field("version")
            .map_err(|e| format!("schedule: {e}"))?;
        if version != 1.0 {
            return Err(format!("schedule: unsupported version {version}"));
        }
        let rows = root
            .arr_field("prefix")
            .map_err(|e| format!("schedule: {e}"))?;
        let mut prefix = Vec::with_capacity(rows.len());
        for (r, row) in rows.iter().enumerate() {
            let cells = row
                .as_arr()
                .ok_or_else(|| format!("schedule: prefix[{r}] must be an array"))?;
            let mut out = Vec::with_capacity(cells.len());
            for c in cells {
                let v = c
                    .as_num()
                    .ok_or_else(|| format!("schedule: prefix[{r}] holds a non-number"))?;
                if v < 0.0 || v.fract() != 0.0 {
                    return Err(format!("schedule: prefix[{r}] holds non-index {v}"));
                }
                out.push(v as usize);
            }
            prefix.push(out);
        }
        Ok(Schedule { prefix })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let s = Schedule::new(vec![vec![2, 1, 1], vec![], vec![0]]);
        let text = s.to_json();
        assert_eq!(Schedule::from_json(&text).unwrap(), s);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Schedule::from_json("[]").is_err());
        assert!(Schedule::from_json("{\"version\":2,\"prefix\":[]}").is_err());
        assert!(Schedule::from_json("{\"version\":1,\"prefix\":[[1.5]]}").is_err());
        assert!(Schedule::from_json("{\"version\":1}").is_err());
    }
}
