//! The recorded oracle of the discrete-event core.
//!
//! `tests/golden/mpisim_corpus.txt` holds what the core produced for a
//! fixed set of worlds, each checked against an independent
//! thread-per-rank executor when it was recorded: every stored block
//! replayed on that executor (wildcard matches forced to the recorded
//! sources) with the same per-rank results and the same per-rank event
//! streams, vector clocks included. That executor is gone; the corpus
//! is what is left of its verdicts, and it cannot be re-recorded. A
//! change that moves a block must say why in CHANGES.md, with the
//! model checker (`verify_mc -- --ci`) green.
//!
//! The worlds: a fan-in + ring exchange over message plans, the same
//! exchange under a corrupting injector, a fan-in whose sends a hashed
//! plan drops, corrupts or delays, and small end-to-end direct-send
//! frames (`FrameConfig::small(16, 24, n)`). Each runs under four
//! wildcard policies: `MinSource`, `Arrival` (a wake or timer order
//! change that leaves `MinSource` traces alone shows here) and two
//! `Perturb` seeds. A block stores the per-rank results (for a frame:
//! a pixel hash, render samples, composite bytes and messages), the
//! injected fault count, a 64-bit FNV-1a digest of each rank's event
//! stream (one line per event naming every field, vector clocks
//! included), and, for worlds of at most four ranks, those lines.
//!
//! Each block is run twice: under its policy, and again under
//! `MatchPolicy::Replay` of the first run's trace; both must print the
//! stored block.

mod support;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pvr_core::{drive_frame, write_dataset, Driver, FrameConfig};
use pvr_mpisim::fault::{FaultInjector, SendFate};
use pvr_mpisim::trace::{FaultKind, MarkKind, ReplayLog, TraceEvent, TraceLog};
use pvr_mpisim::{Comm, MatchPolicy, RunOptions, World};

const CORPUS: &str = include_str!("golden/mpisim_corpus.txt");

/// Worlds of at most this many ranks store their streams verbatim.
const VERBATIM_RANKS: usize = 4;

type BoxFut<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;

/// `(src, tag, byte)`: rank `src` sends `[byte]` to rank 0 on `tag`.
type Plan = Vec<(usize, u32, u8)>;

/// What a world runs.
enum Program {
    /// Fan-in to rank 0 (wildcard receives, tag-major), a barrier, then
    /// a ring pass.
    Ring(Plan),
    /// [`Program::Ring`] with the first send on (1 → 0, tag 1)
    /// corrupted.
    Corrupt(Plan),
    /// The fan-in + ring under a [`HashPlan`] injector.
    Hash { seed: u64, plan: Plan },
    /// One direct-send frame, `FrameConfig::small(16, 24, n)`.
    Frame,
}

struct Config {
    n: usize,
    program: Program,
}

impl Config {
    fn parse(line: &str) -> Config {
        let mut words = line.split_whitespace();
        assert_eq!(words.next(), Some("config"), "not a config line: {line}");
        let kind = words.next().expect("config kind");
        let fields: BTreeMap<&str, &str> = words
            .map(|w| w.split_once('=').expect("key=value"))
            .collect();
        let n = fields["n"].parse().expect("n");
        let plan = || -> Plan {
            let text = fields["plan"];
            text.split(',')
                .filter(|m| !m.is_empty())
                .map(|m| {
                    let v: Vec<&str> = m.split('.').collect();
                    (
                        v[0].parse().unwrap(),
                        v[1].parse().unwrap(),
                        v[2].parse().unwrap(),
                    )
                })
                .collect()
        };
        let program = match kind {
            "ring" => Program::Ring(plan()),
            "corrupt" => Program::Corrupt(plan()),
            "hash" => Program::Hash {
                seed: fields["seed"].parse().expect("seed"),
                plan: plan(),
            },
            "frame" => Program::Frame,
            other => panic!("unknown config kind {other}"),
        };
        Config { n, program }
    }

    fn header(&self) -> String {
        let plan = |p: &Plan| {
            p.iter()
                .map(|(s, t, b)| format!("{s}.{t}.{b}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let n = self.n;
        match &self.program {
            Program::Ring(p) => format!("config ring n={n} plan={}", plan(p)),
            Program::Corrupt(p) => format!("config corrupt n={n} plan={}", plan(p)),
            Program::Hash { seed, plan: p } => {
                format!("config hash n={n} seed={seed} plan={}", plan(p))
            }
            Program::Frame => format!("config frame n={n}"),
        }
    }

    /// Run the world traced under `opts`: the result lines and the
    /// trace.
    fn run(&self, opts: RunOptions) -> (Vec<String>, TraceLog) {
        let n = self.n;
        let fan_in = |out: pvr_mpisim::RunOutput<Vec<(usize, u8)>>| {
            let lines = out
                .results
                .iter()
                .enumerate()
                .map(|(r, got)| {
                    let mut line = format!("result {r}");
                    for (src, byte) in got {
                        write!(line, " {src}.{byte}").unwrap();
                    }
                    line
                })
                .collect();
            (lines, out.trace.expect("traced run"))
        };
        match &self.program {
            Program::Ring(plan) => {
                let counts = plan_counts(plan);
                fan_in(World::run_opts(n, opts, program(plan.clone(), counts)).unwrap())
            }
            Program::Corrupt(plan) => {
                let counts = plan_counts(plan);
                let opts = opts.with_injector(Arc::new(CorruptFirst));
                fan_in(World::run_opts(n, opts, program(plan.clone(), counts)).unwrap())
            }
            Program::Hash { seed, plan } => {
                let counts = delivered_counts(*seed, plan);
                let opts = opts.with_injector(Arc::new(HashPlan { seed: *seed }));
                fan_in(World::run_opts(n, opts, program(plan.clone(), counts)).unwrap())
            }
            Program::Frame => {
                let cfg = FrameConfig::small(16, 24, n);
                let out = drive_frame(&cfg, Some(&dataset()), Driver::mpi(opts))
                    .unwrap_or_else(|e| panic!("n={n} frame failed: {e}"));
                let mut pixels = Fnv::new();
                for px in out.frame.image.pixels() {
                    for c in px {
                        pixels.bytes(&c.to_bits().to_le_bytes());
                    }
                }
                let line = format!(
                    "frame pixels={:016x} samples={} bytes={} messages={}",
                    pixels.0,
                    out.frame.render_samples,
                    out.frame.composite.bytes,
                    out.frame.composite.messages
                );
                (vec![line], out.trace.expect("traced run"))
            }
        }
    }
}

/// The four policies every config is recorded under, by corpus name.
fn policies() -> [(&'static str, MatchPolicy); 4] {
    [
        ("min-source", MatchPolicy::MinSource),
        ("arrival", MatchPolicy::Arrival),
        ("perturb-7", MatchPolicy::Perturb(7)),
        ("perturb-11", MatchPolicy::Perturb(11)),
    ]
}

fn policy_named(name: &str) -> MatchPolicy {
    policies()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown policy {name}"))
        .1
}

/// Print one corpus block.
fn block(cfg: &Config, policy: &str, results: &[String], trace: &TraceLog) -> String {
    let mut out = format!("{}\npolicy {policy}\n", cfg.header());
    for line in results {
        writeln!(out, "{line}").unwrap();
    }
    writeln!(out, "faults {}", trace.fault_count()).unwrap();
    let streams: Vec<Vec<String>> = (0..cfg.n)
        .map(|r| trace.events_for(r).map(show).collect())
        .collect();
    for (r, stream) in streams.iter().enumerate() {
        let mut h = Fnv::new();
        for line in stream {
            h.bytes(line.as_bytes());
            h.bytes(b"\n");
        }
        writeln!(out, "rank {r} events={} fnv={:016x}", stream.len(), h.0).unwrap();
    }
    if cfg.n <= VERBATIM_RANKS {
        for line in streams.concat() {
            writeln!(out, "event {line}").unwrap();
        }
    }
    out.push_str("end\n");
    out
}

/// Run `cfg` under `policy`, then under a replay of that run; both must
/// print `stored`. Returns the fault kinds the run injected.
fn replay(cfg: &Config, policy: &str, stored: &str) -> Vec<FaultKind> {
    let opts = || RunOptions::default().traced();
    let (results, trace) = cfg.run(opts().policy(policy_named(policy)));
    assert_block(stored, &block(cfg, policy, &results, &trace));
    let log = Arc::new(ReplayLog::from_trace(&trace));
    let (results, replayed) = cfg.run(opts().policy(MatchPolicy::Replay(log)));
    assert_block(stored, &block(cfg, policy, &results, &replayed));
    (0..cfg.n)
        .flat_map(|r| trace.events_for(r))
        .filter_map(|e| match e {
            TraceEvent::Fault { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect()
}

/// Compare a printed block with the stored one, naming the first line
/// that differs.
fn assert_block(stored: &str, printed: &str) {
    if stored == printed {
        return;
    }
    let head: Vec<&str> = stored.lines().take(2).collect();
    let (i, (want, got)) = stored
        .lines()
        .chain(std::iter::repeat("<missing>"))
        .zip(printed.lines().chain(std::iter::repeat("<missing>")))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .expect("blocks differ");
    panic!(
        "{} / {}: line {i} moved\n  stored: {want}\n  now:    {got}",
        head[0], head[1]
    );
}

/// The stored blocks, each with its parsed config and policy name.
fn blocks() -> Vec<(Config, String, String)> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for line in CORPUS.lines().filter(|l| !l.starts_with('#')) {
        cur.push_str(line);
        cur.push('\n');
        if line == "end" {
            let mut lines = cur.lines();
            let cfg = Config::parse(lines.next().expect("config line"));
            let policy = lines
                .next()
                .and_then(|l| l.strip_prefix("policy "))
                .expect("policy line")
                .to_string();
            out.push((cfg, policy, std::mem::take(&mut cur)));
        }
    }
    assert!(cur.trim().is_empty(), "unterminated corpus block");
    out
}

/// Replay every stored block whose config satisfies `pick`; checks
/// each config appears under all four policies. Returns the configs
/// replayed and the fault kinds injected.
fn replay_all(pick: impl Fn(&Program) -> bool) -> (usize, Vec<FaultKind>) {
    let mut per_config: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut kinds = Vec::new();
    for (cfg, policy, stored) in blocks().iter().filter(|(c, ..)| pick(&c.program)) {
        kinds.extend(replay(cfg, policy, stored));
        per_config
            .entry(cfg.header())
            .or_default()
            .push(policy.clone());
    }
    let names: Vec<String> = policies().iter().map(|(n, _)| n.to_string()).collect();
    for (header, seen) in &per_config {
        assert_eq!(seen, &names, "{header}: policies stored");
    }
    (per_config.len(), kinds)
}

#[test]
fn message_worlds_replay_exactly() {
    let (configs, kinds) = replay_all(|p| !matches!(p, Program::Frame));
    // Two fixed plans and twelve drawn ones, one corrupting run, twelve
    // hashed fault plans.
    assert_eq!(configs, 27);
    for kind in [FaultKind::Drop, FaultKind::Corrupt, FaultKind::Delay] {
        assert!(kinds.contains(&kind), "no stored world injects {kind:?}");
    }
}

#[test]
fn frames_replay_exactly() {
    let (configs, _) = replay_all(|p| matches!(p, Program::Frame));
    assert_eq!(configs, 6);
}

/// Per-tag receive counts of rank 0 when every send is delivered.
fn plan_counts(plan: &Plan) -> [usize; 2] {
    let mut counts = [0; 2];
    for &(_, tag, _) in plan {
        counts[(tag - 1) as usize] += 1;
    }
    counts
}

/// The fan-in + ring program; rank 0 takes `counts[t - 1]` wildcard
/// receives on tag `t`.
fn program(plan: Plan, counts: [usize; 2]) -> impl Fn(Comm) -> BoxFut<Vec<(usize, u8)>> {
    let plan = Arc::new(plan);
    move |mut comm: Comm| {
        let plan = Arc::clone(&plan);
        Box::pin(async move {
            let me = comm.rank();
            let mut got = Vec::new();
            if me == 0 {
                for t in 1..=2u32 {
                    for _ in 0..counts[(t - 1) as usize] {
                        let (src, data) = comm.recv_any(t).await;
                        got.push((src, data[0]));
                    }
                }
            } else {
                for &(src, tag, byte) in plan.iter() {
                    if src == me {
                        comm.send(0, tag, vec![byte]).await;
                    }
                }
            }
            comm.barrier().await;
            let next = (me + 1) % comm.size();
            let prev = (me + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![me as u8]).await;
            let ring = comm.recv_from(prev, 7).await;
            got.push((prev, ring[0]));
            got
        })
    }
}

/// Corrupts the first send on (1 → 0, tag 1).
struct CorruptFirst;

impl FaultInjector for CorruptFirst {
    fn on_send(&self, src: usize, dst: usize, tag: u32, seq: u64, data: &mut Vec<u8>) -> SendFate {
        if (src, dst, tag, seq) == (1, 0, 1, 0) {
            data[0] ^= 0xff;
            return SendFate::Corrupt;
        }
        SendFate::Deliver
    }
}

/// Every fan-in send into rank 0 gets a fate hashed from (seed, src,
/// tag, seq): drop, corrupt, a 200 µs delay, or delivery. A drop
/// consumes no seq, so once a stream's hash says drop, the rest of that
/// stream drops too.
struct HashPlan {
    seed: u64,
}

impl HashPlan {
    fn fate_code(&self, src: usize, dst: usize, tag: u32, seq: u64) -> u8 {
        if dst != 0 || tag >= 3 {
            return 3; // only the fan-in phase is faulted
        }
        let h = splitmix64(
            self.seed
                ^ (src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((tag as u64) << 32)
                ^ seq.wrapping_mul(0x85eb_ca6b),
        );
        (h % 4) as u8
    }
}

impl FaultInjector for HashPlan {
    fn on_send(&self, src: usize, dst: usize, tag: u32, seq: u64, data: &mut Vec<u8>) -> SendFate {
        match self.fate_code(src, dst, tag, seq) {
            0 => SendFate::Drop,
            1 => {
                data[0] ^= 0xff;
                SendFate::Corrupt
            }
            2 => SendFate::Delay(Duration::from_micros(200)),
            _ => SendFate::Deliver,
        }
    }
}

/// Rank 0's per-tag receive counts under `HashPlan { seed }`.
fn delivered_counts(seed: u64, plan: &Plan) -> [usize; 2] {
    let inj = HashPlan { seed };
    let mut delivered = [0; 2];
    let mut seqs: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    for &(src, tag, _) in plan {
        let d = seqs.entry((src, tag)).or_insert(0);
        if inj.fate_code(src, 0, tag, *d) != 0 {
            *d += 1;
            delivered[(tag - 1) as usize] += 1;
        }
    }
    delivered
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dataset() -> PathBuf {
    support::fixture("pvr-mpisim-corpus", "corpus.raw", |p| {
        write_dataset(p, &FrameConfig::small(16, 24, 2))
    })
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A fault kind's corpus name.
fn fault_kind(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Drop => "drop",
        FaultKind::Delay => "delay",
        FaultKind::Corrupt => "corrupt",
    }
}

/// A mark kind's corpus name.
fn mark_kind(kind: MarkKind) -> &'static str {
    match kind {
        MarkKind::Begin => "begin",
        MarkKind::End => "end",
        MarkKind::Instant => "instant",
    }
}

fn show_clock(c: &[u64]) -> String {
    c.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// One event as a corpus line: every field, by name. A rank's digest
/// is FNV-1a over its lines, each ended by a newline.
fn show(e: &TraceEvent) -> String {
    match e {
        TraceEvent::Send {
            from,
            to,
            tag,
            seq,
            bytes,
            clock,
        } => format!(
            "send {from}>{to} tag={tag} seq={seq} bytes={bytes} clock={}",
            show_clock(clock)
        ),
        TraceEvent::Recv {
            rank,
            src,
            tag,
            seq,
            bytes,
            wildcard,
            send_clock,
            recv_clock,
        } => {
            let wild = wildcard.map_or("-".to_string(), |i| i.to_string());
            format!(
                "recv {rank}<{src} tag={tag} seq={seq} bytes={bytes} wildcard={wild} \
                 sent={} clock={}",
                show_clock(send_clock),
                show_clock(recv_clock)
            )
        }
        TraceEvent::Barrier { rank, generation } => format!("barrier {rank} gen={generation}"),
        TraceEvent::Fault {
            from,
            to,
            tag,
            seq,
            kind,
        } => {
            format!(
                "fault {from}>{to} tag={tag} seq={seq} {}",
                fault_kind(*kind)
            )
        }
        TraceEvent::Mark {
            rank,
            label,
            kind,
            value,
            clock,
        } => format!(
            "mark {rank} {} {label} value={value} clock={}",
            mark_kind(*kind),
            show_clock(clock)
        ),
    }
}
