//! Persistent counterexample schedules.
//!
//! A schedule is a [`ReplayLog`]: `per_rank()[rank][i]` is the source
//! rank `rank`'s `i`-th wildcard receive matches, the log
//! `MatchPolicy::Replay` and `MatchPolicy::Guided` force. Violations
//! are persisted as JSON (through the workspace's one JSON module,
//! [`pvr_obs::json`]) so a failing exploration leaves behind a file
//! that can be loaded and replayed without re-exploring anything.

use pvr_mpisim::trace::ReplayLog;
use pvr_obs::json::{parse, Json};

/// Serialize: `{"version":1,"prefix":[[...],...]}`.
pub fn to_json(log: &ReplayLog) -> String {
    let row = |row: &Vec<usize>| Json::Arr(row.iter().map(|&s| Json::Num(s as f64)).collect());
    Json::Obj(vec![
        ("version".into(), Json::Num(1.0)),
        (
            "prefix".into(),
            Json::Arr(log.per_rank().iter().map(row).collect()),
        ),
    ])
    .to_string()
}

/// Parse what [`to_json`] emits.
pub fn from_json(text: &str) -> Result<ReplayLog, String> {
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
    Ok(ReplayLog::from_choices(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let log = ReplayLog::from_choices(vec![vec![2, 1, 1], vec![], vec![0]]);
        let text = to_json(&log);
        assert_eq!(text, r#"{"version":1,"prefix":[[2,1,1],[],[0]]}"#);
        assert_eq!(from_json(&text).unwrap().per_rank(), log.per_rank());
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_json("[]").is_err());
        assert!(from_json("{\"version\":2,\"prefix\":[]}").is_err());
        assert!(from_json("{\"version\":1,\"prefix\":[[1.5]]}").is_err());
        assert!(from_json("{\"version\":1}").is_err());
    }
}
