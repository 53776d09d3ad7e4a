//! Seeded, declarative fault plans.
//!
//! A [`FaultPlan`] is the single source of truth for what goes wrong in
//! a run: per-rank crash/straggle faults keyed to a pipeline stage,
//! per-link message faults the transport injector enforces, and
//! per-server storage faults the pfs layer prices and executes. Plans
//! serialize to/from a small JSON dialect (through the workspace's one
//! JSON module, [`pvr_obs::json`]), so
//! a failing configuration can be saved, attached to a bug report, and
//! replayed bit-for-bit: all behaviour derives from `(seed, plan)`
//! alone.

use pvr_obs::json::{self, Json};

/// Match a rank (or server) exactly or any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pat {
    Any,
    Is(usize),
}

impl Pat {
    pub fn matches(&self, v: usize) -> bool {
        match self {
            Pat::Any => true,
            Pat::Is(x) => *x == v,
        }
    }
}

/// What happens to sends on a matched link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAction {
    /// Drop the first `n` delivery attempts of each message (a
    /// retransmitting sender gets through on attempt `n`): the
    /// *transient* fault. For unframed protocols: the first `n` sends
    /// on the link.
    DropFirst(u32),
    /// Drop every send: the *permanent* fault.
    DropAll,
    /// Drop each attempt independently with probability `p`, seeded —
    /// reproducible for a fixed (seed, plan), but dependent on the
    /// retry schedule, so CI asserts use the deterministic actions.
    DropProb(f64),
    /// Corrupt the payload of the first `n` attempts (the receiver's
    /// checksum drops them, so this behaves like `DropFirst` with the
    /// corruption counted separately).
    CorruptFirst(u32),
    /// Delay every send by this many milliseconds (sender-side stall).
    DelayMs(u64),
}

/// One per-link fault rule; first matching rule wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    pub src: Pat,
    pub dst: Pat,
    /// `None` matches every tag.
    pub tag: Option<u32>,
    pub action: LinkAction,
}

/// Pipeline stage a rank fault triggers at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Io,
    Render,
    Composite,
}

impl Stage {
    /// Every stage in plan order.
    pub const ALL: [Stage; 3] = [Stage::Io, Stage::Render, Stage::Composite];

    /// Plan-order index (0 = I/O, 1 = render, 2 = composite) — the
    /// convention shared with the SLO and observability layers.
    pub fn index(self) -> usize {
        match self {
            Stage::Io => 0,
            Stage::Render => 1,
            Stage::Composite => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Stage::Io => "io",
            Stage::Render => "render",
            Stage::Composite => "composite",
        }
    }
}

/// What a faulted rank does at its stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankAction {
    /// The rank stops participating from this stage on.
    Crash,
    /// The rank pauses this long before the stage (the paper's
    /// long-tail straggler).
    StraggleMs(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankFault {
    pub rank: usize,
    pub stage: Stage,
    pub action: RankAction,
}

/// What a faulted pfs server does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerAction {
    Down,
    /// Streaming bandwidth multiplied by this factor.
    BandwidthFactor(f64),
    /// Extra per-request overhead, milliseconds.
    ExtraOverheadMs(f64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFault {
    pub server: usize,
    pub action: ServerAction,
}

/// The full fault configuration of one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the probabilistic actions (and recorded provenance for
    /// sampled plans).
    pub seed: u64,
    pub ranks: Vec<RankFault>,
    pub links: Vec<LinkFault>,
    pub servers: Vec<ServerFault>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The healthy plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty() && self.links.is_empty() && self.servers.is_empty()
    }

    /// The fault of `rank` at `stage`, if any (first match wins).
    pub fn rank_fault(&self, rank: usize, stage: Stage) -> Option<RankAction> {
        self.ranks
            .iter()
            .find(|f| f.rank == rank && f.stage == stage)
            .map(|f| f.action)
    }

    /// Ranks that crash at or before `stage` (stage order Io → Render →
    /// Composite).
    pub fn crashed_by(&self, stage: Stage, n: usize) -> Vec<usize> {
        let upto = |s: Stage| match s {
            Stage::Io => 0,
            Stage::Render => 1,
            Stage::Composite => 2,
        };
        (0..n)
            .filter(|&r| {
                self.ranks.iter().any(|f| {
                    f.rank == r && f.action == RankAction::Crash && upto(f.stage) <= upto(stage)
                })
            })
            .collect()
    }

    /// First link rule matching `(src, dst, tag)`, if any.
    pub fn link_fault(&self, src: usize, dst: usize, tag: u32) -> Option<LinkAction> {
        self.links
            .iter()
            .find(|f| f.src.matches(src) && f.dst.matches(dst) && f.tag.is_none_or(|t| t == tag))
            .map(|f| f.action)
    }

    /// Lower the server faults onto a store of `nservers`.
    pub fn server_faults(&self, nservers: usize) -> pvr_pfs::ServerFaults {
        let mut sf = pvr_pfs::ServerFaults::none(nservers);
        for f in &self.servers {
            if f.server >= nservers {
                continue;
            }
            match f.action {
                ServerAction::Down => sf.down[f.server] = true,
                ServerAction::BandwidthFactor(x) => sf.bw_factor[f.server] = x.clamp(1e-3, 1.0),
                ServerAction::ExtraOverheadMs(ms) => {
                    sf.extra_overhead[f.server] = ms.max(0.0) * 1e-3
                }
            }
        }
        sf
    }

    /// A small random plan for a world of `n` ranks over `nservers`
    /// storage servers, fully determined by `seed`. Only deterministic
    /// actions are sampled (no `DropProb`), so the whole run replays
    /// from `(seed, plan)` exactly.
    pub fn sample(seed: u64, n: usize, nservers: usize) -> FaultPlan {
        let mut state = seed;
        let mut next = |m: u64| {
            state = splitmix64(state.wrapping_add(0xa076_1d64_78bd_642f));
            state % m.max(1)
        };
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        // 0–2 rank faults on non-root ranks (rank 0 collects the frame;
        // crashing it is legal but makes every sweep trivially empty).
        if n > 1 {
            for _ in 0..next(3) {
                let rank = 1 + next((n - 1) as u64) as usize;
                let stage = match next(3) {
                    0 => Stage::Io,
                    1 => Stage::Render,
                    _ => Stage::Composite,
                };
                let action = if next(2) == 0 {
                    RankAction::Crash
                } else {
                    RankAction::StraggleMs(5 + next(40))
                };
                plan.ranks.push(RankFault {
                    rank,
                    stage,
                    action,
                });
            }
        }
        // 0–3 link faults.
        for _ in 0..next(4) {
            let src = if next(4) == 0 {
                Pat::Any
            } else {
                Pat::Is(next(n as u64) as usize)
            };
            let dst = if next(4) == 0 {
                Pat::Any
            } else {
                Pat::Is(next(n as u64) as usize)
            };
            let action = match next(4) {
                0 => LinkAction::DropAll,
                1 => LinkAction::CorruptFirst(1 + next(2) as u32),
                2 => LinkAction::DelayMs(1 + next(10)),
                _ => LinkAction::DropFirst(1 + next(3) as u32),
            };
            plan.links.push(LinkFault {
                src,
                dst,
                tag: None,
                action,
            });
        }
        // 0–2 server faults.
        if nservers > 0 {
            for _ in 0..next(3) {
                let server = next(nservers as u64) as usize;
                let action = match next(3) {
                    0 => ServerAction::Down,
                    1 => ServerAction::BandwidthFactor(0.1 + next(80) as f64 / 100.0),
                    _ => ServerAction::ExtraOverheadMs(next(5) as f64),
                };
                plan.servers.push(ServerFault { server, action });
            }
        }
        plan
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        let pat = |p: Pat| match p {
            Pat::Any => Json::Str("any".into()),
            Pat::Is(x) => Json::Num(x as f64),
        };
        let ranks: Vec<Json> = self
            .ranks
            .iter()
            .map(|f| {
                let (act, arg) = match f.action {
                    RankAction::Crash => ("crash", None),
                    RankAction::StraggleMs(ms) => ("straggle_ms", Some(ms as f64)),
                };
                let mut o = vec![
                    ("rank".into(), Json::Num(f.rank as f64)),
                    (
                        "stage".into(),
                        Json::Str(
                            match f.stage {
                                Stage::Io => "io",
                                Stage::Render => "render",
                                Stage::Composite => "composite",
                            }
                            .into(),
                        ),
                    ),
                    ("action".into(), Json::Str(act.into())),
                ];
                if let Some(a) = arg {
                    o.push(("arg".into(), Json::Num(a)));
                }
                Json::Obj(o)
            })
            .collect();
        let links: Vec<Json> = self
            .links
            .iter()
            .map(|f| {
                let (act, arg) = match f.action {
                    LinkAction::DropFirst(k) => ("drop_first", Some(f64::from(k))),
                    LinkAction::DropAll => ("drop_all", None),
                    LinkAction::DropProb(p) => ("drop_prob", Some(p)),
                    LinkAction::CorruptFirst(k) => ("corrupt_first", Some(f64::from(k))),
                    LinkAction::DelayMs(ms) => ("delay_ms", Some(ms as f64)),
                };
                let mut o = vec![
                    ("src".into(), pat(f.src)),
                    ("dst".into(), pat(f.dst)),
                    (
                        "tag".into(),
                        match f.tag {
                            None => Json::Str("any".into()),
                            Some(t) => Json::Num(f64::from(t)),
                        },
                    ),
                    ("action".into(), Json::Str(act.into())),
                ];
                if let Some(a) = arg {
                    o.push(("arg".into(), Json::Num(a)));
                }
                Json::Obj(o)
            })
            .collect();
        let servers: Vec<Json> = self
            .servers
            .iter()
            .map(|f| {
                let (act, arg) = match f.action {
                    ServerAction::Down => ("down", None),
                    ServerAction::BandwidthFactor(x) => ("bw_factor", Some(x)),
                    ServerAction::ExtraOverheadMs(ms) => ("extra_overhead_ms", Some(ms)),
                };
                let mut o = vec![
                    ("server".into(), Json::Num(f.server as f64)),
                    ("action".into(), Json::Str(act.into())),
                ];
                if let Some(a) = arg {
                    o.push(("arg".into(), Json::Num(a)));
                }
                Json::Obj(o)
            })
            .collect();
        Json::Obj(vec![
            ("seed".into(), Json::Num(self.seed as f64)),
            ("ranks".into(), Json::Arr(ranks)),
            ("links".into(), Json::Arr(links)),
            ("servers".into(), Json::Arr(servers)),
        ])
        .to_string()
    }

    /// Parse a plan serialized by [`FaultPlan::to_json`].
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let v = json::parse(text)?;
        if v.as_obj().is_none() {
            return Err("plan must be a JSON object".into());
        }
        let parse_pat = |v: &Json| -> Result<Pat, String> {
            if let Some(n) = v.as_num() {
                Ok(Pat::Is(n as usize))
            } else if v.as_str() == Some("any") {
                Ok(Pat::Any)
            } else {
                Err(format!("bad pattern {v:?}"))
            }
        };
        // A missing list is an empty one.
        let items = |k: &str| v.get(k).and_then(Json::as_arr).unwrap_or_default();

        let mut plan = FaultPlan {
            seed: v.get("seed").and_then(Json::as_num).unwrap_or(0.0) as u64,
            ..FaultPlan::default()
        };
        for o in items("ranks") {
            let stage = match o.str_field("stage")? {
                "io" => Stage::Io,
                "render" => Stage::Render,
                "composite" => Stage::Composite,
                other => return Err(format!("bad stage {other:?}")),
            };
            let action = match o.str_field("action")? {
                "crash" => RankAction::Crash,
                "straggle_ms" => RankAction::StraggleMs(o.num_field("arg")? as u64),
                other => return Err(format!("bad rank action {other:?}")),
            };
            plan.ranks.push(RankFault {
                rank: o.num_field("rank")? as usize,
                stage,
                action,
            });
        }
        for o in items("links") {
            let tag = match o.field("tag")? {
                Json::Str(s) if s == "any" => None,
                Json::Num(n) => Some(*n as u32),
                other => return Err(format!("bad tag {other:?}")),
            };
            let action = match o.str_field("action")? {
                "drop_first" => LinkAction::DropFirst(o.num_field("arg")? as u32),
                "drop_all" => LinkAction::DropAll,
                "drop_prob" => LinkAction::DropProb(o.num_field("arg")?),
                "corrupt_first" => LinkAction::CorruptFirst(o.num_field("arg")? as u32),
                "delay_ms" => LinkAction::DelayMs(o.num_field("arg")? as u64),
                other => return Err(format!("bad link action {other:?}")),
            };
            plan.links.push(LinkFault {
                src: parse_pat(o.field("src")?)?,
                dst: parse_pat(o.field("dst")?)?,
                tag,
                action,
            });
        }
        for o in items("servers") {
            let action = match o.str_field("action")? {
                "down" => ServerAction::Down,
                "bw_factor" => ServerAction::BandwidthFactor(o.num_field("arg")?),
                "extra_overhead_ms" => ServerAction::ExtraOverheadMs(o.num_field("arg")?),
                other => return Err(format!("bad server action {other:?}")),
            };
            plan.servers.push(ServerFault {
                server: o.num_field("server")? as usize,
                action,
            });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            ranks: vec![
                RankFault {
                    rank: 3,
                    stage: Stage::Render,
                    action: RankAction::Crash,
                },
                RankFault {
                    rank: 5,
                    stage: Stage::Io,
                    action: RankAction::StraggleMs(25),
                },
            ],
            links: vec![
                LinkFault {
                    src: Pat::Is(1),
                    dst: Pat::Any,
                    tag: Some(2),
                    action: LinkAction::DropFirst(2),
                },
                LinkFault {
                    src: Pat::Any,
                    dst: Pat::Is(0),
                    tag: None,
                    action: LinkAction::CorruptFirst(1),
                },
                LinkFault {
                    src: Pat::Is(4),
                    dst: Pat::Is(0),
                    tag: Some(3),
                    action: LinkAction::DropProb(0.5),
                },
            ],
            servers: vec![
                ServerFault {
                    server: 0,
                    action: ServerAction::Down,
                },
                ServerFault {
                    server: 2,
                    action: ServerAction::BandwidthFactor(0.25),
                },
                ServerFault {
                    server: 3,
                    action: ServerAction::ExtraOverheadMs(2.0),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let plan = full_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        // And the healthy plan too.
        let none = FaultPlan::none();
        assert_eq!(FaultPlan::from_json(&none.to_json()).unwrap(), none);
    }

    #[test]
    fn lookups_respect_first_match_and_wildcards() {
        let plan = full_plan();
        assert_eq!(plan.rank_fault(3, Stage::Render), Some(RankAction::Crash));
        assert_eq!(plan.rank_fault(3, Stage::Io), None);
        assert_eq!(plan.link_fault(1, 7, 2), Some(LinkAction::DropFirst(2)));
        // Rule 2 (Any -> 0, any tag) matches before rule 3.
        assert_eq!(plan.link_fault(4, 0, 3), Some(LinkAction::CorruptFirst(1)));
        assert_eq!(plan.link_fault(2, 3, 9), None);
        assert_eq!(plan.crashed_by(Stage::Io, 8), Vec::<usize>::new());
        assert_eq!(plan.crashed_by(Stage::Render, 8), vec![3]);
        assert_eq!(plan.crashed_by(Stage::Composite, 8), vec![3]);
    }

    #[test]
    fn server_faults_lower_onto_pfs() {
        let plan = full_plan();
        let sf = plan.server_faults(4);
        assert!(sf.down[0]);
        assert!(!sf.down[1]);
        assert_eq!(sf.bw_factor[2], 0.25);
        assert!((sf.extra_overhead[3] - 2e-3).abs() < 1e-15);
        // Out-of-range faults are ignored.
        let small = plan.server_faults(2);
        assert!(small.down[0]);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        for seed in 0..32u64 {
            let a = FaultPlan::sample(seed, 8, 4);
            let b = FaultPlan::sample(seed, 8, 4);
            assert_eq!(a, b);
            assert_eq!(a.seed, seed);
            // Only deterministic actions.
            assert!(!a
                .links
                .iter()
                .any(|l| matches!(l.action, LinkAction::DropProb(_))));
            // Round-trips too.
            assert_eq!(FaultPlan::from_json(&a.to_json()).unwrap(), a);
        }
        // Different seeds eventually differ.
        assert!((0..32).any(|s| FaultPlan::sample(s, 8, 4) != FaultPlan::sample(s + 32, 8, 4)));
    }
}
