//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper: it prints the series as CSV to stdout (and a copy under
//! `results/`), followed by a `# check:` block stating the qualitative
//! properties the paper reports and whether this run reproduced them.
//!
//! Run them all with `cargo run -p pvr-bench --release --bin <name>`;
//! see DESIGN.md §4 for the experiment index.

use std::io::Write;
use std::path::PathBuf;

/// The process-count sweep of the paper's Figures 3, 6 and 7
/// (64 … 32K cores, powers of two).
pub const CORE_SWEEP: [usize; 10] = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// The large-size sweep of Table II.
pub const LARGE_SWEEP: [usize; 3] = [8192, 16384, 32768];

/// Directory where regenerators drop their CSV/PGM artifacts.
pub fn out_dir() -> PathBuf {
    let d = std::env::var("PVR_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(d);
    std::fs::create_dir_all(&p).ok();
    p
}

/// The laptop-scale frame the fault binaries (`fault_sweep`,
/// `recovery_sweep`, `profile_smoke`) run: 8 ranks, 16³ grid, 24²
/// image, X velocity, 4 compositors.
pub fn sweep_cfg() -> pvr_core::FrameConfig {
    let mut cfg = pvr_core::FrameConfig::small(16, 24, 8);
    cfg.variable = 2;
    cfg.policy = pvr_core::CompositorPolicy::Fixed(4);
    cfg
}

/// Write `cfg`'s dataset under a directory of this process's own
/// (`pvr-<bin>-<pid>` in the temp dir) and return its path.
pub fn sweep_dataset(cfg: &pvr_core::FrameConfig, bin: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pvr-{bin}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let p = d.join("sweep.raw");
    pvr_core::pipeline::write_dataset(&p, cfg).unwrap();
    p
}

/// A composable transient plan, survivable by construction: drop the
/// first `depth` attempts of every fragment send from rank 1 and every
/// scatter into rank 2, make `stragglers` renderers (from rank 3 on)
/// sleep 20 ms, and take the first `down` storage servers down.
pub fn transient_plan(
    seed: u64,
    depth: u32,
    stragglers: usize,
    down: usize,
) -> pvr_faults::FaultPlan {
    use pvr_core::pipeline::tags;
    use pvr_faults::{
        LinkAction, LinkFault, Pat, RankAction, RankFault, ServerAction, ServerFault, Stage,
    };
    let mut plan = pvr_faults::FaultPlan {
        seed,
        ..Default::default()
    };
    if depth > 0 {
        plan.links.push(LinkFault {
            src: Pat::Is(1),
            dst: Pat::Any,
            tag: Some(tags::FRAGMENT),
            action: LinkAction::DropFirst(depth),
        });
        plan.links.push(LinkFault {
            src: Pat::Any,
            dst: Pat::Is(2),
            tag: Some(tags::IO_SCATTER),
            action: LinkAction::DropFirst(depth),
        });
    }
    plan.ranks.extend((0..stragglers).map(|s| RankFault {
        rank: 3 + s,
        stage: Stage::Render,
        action: RankAction::StraggleMs(20),
    }));
    plan.servers.extend((0..down).map(|server| ServerFault {
        server,
        action: ServerAction::Down,
    }));
    plan
}

/// One gate of a CI suite: print `PASS name: detail` or `FAIL …` and
/// return whether it passed.
pub fn gate(name: &str, ok: bool, detail: String) -> bool {
    println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// The 95th percentile (nearest rank) of the sweep binaries' frame
/// walls; 0 for no frames.
pub fn p95_wall_ms(walls: impl IntoIterator<Item = f64>) -> f64 {
    let mut walls: Vec<f64> = walls.into_iter().collect();
    walls.sort_by(f64::total_cmp);
    let rank = (walls.len() as f64 * 0.95).ceil() as usize;
    walls.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// One fault frame of the sweep binaries, with the completeness map a
/// fault frame always reports already unwrapped.
pub struct FaultFrame {
    pub frame: pvr_core::FrameResult,
    pub completeness: pvr_compositing::completeness::CompletenessMap,
}

/// Run one frame on the message-passing executor under `plan`, mirrored
/// onto `flight`.
pub fn fault_frame(
    cfg: &pvr_core::FrameConfig,
    path: &std::path::Path,
    plan: &pvr_faults::FaultPlan,
    policy: &pvr_faults::RecoveryPolicy,
    flight: &pvr_obs::FlightRecorder,
) -> Result<FaultFrame, pvr_core::FrameError> {
    let driver = pvr_core::Driver::mpi(pvr_mpisim::RunOptions::default())
        .faults(plan, policy)
        .flight(flight);
    let out = pvr_core::drive_frame(cfg, Some(path), driver)?;
    Ok(FaultFrame {
        frame: out.frame,
        completeness: out.completeness.expect("fault frames report completeness"),
    })
}

/// A tiny CSV emitter that tees to stdout and `results/<name>.csv`.
pub struct CsvOut {
    file: std::fs::File,
}

impl CsvOut {
    pub fn create(name: &str, header: &str) -> CsvOut {
        let path = out_dir().join(format!("{name}.csv"));
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        println!("{header}");
        writeln!(file, "{header}").unwrap();
        CsvOut { file }
    }

    pub fn row(&mut self, row: &str) {
        println!("{row}");
        writeln!(self.file, "{row}").unwrap();
    }
}

/// Tee a complete, pre-rendered CSV table (e.g. from
/// `pvr_obs::csvout::pivot_csv`) to stdout and `results/<name>.csv`.
pub fn emit_csv(name: &str, table: &str) -> PathBuf {
    let path = out_dir().join(format!("{name}.csv"));
    print!("{table}");
    std::fs::write(&path, table).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// Emit a qualitative check line (the regenerators' self-validation).
pub fn check(name: &str, ok: bool, detail: &str) {
    println!(
        "# check: {name}: {} ({detail})",
        if ok { "PASS" } else { "FAIL" }
    );
}

/// Write a binary artifact (e.g. a PGM access map) under `results/`.
pub fn write_artifact(name: &str, bytes: &[u8]) -> PathBuf {
    let path = out_dir().join(name);
    std::fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("# artifact: {}", path.display());
    path
}

/// Write a benchmark trajectory as `results/BENCH_<bench>.json` — the
/// one artifact shape `perf_gate` knows how to compare. The file name
/// is derived from [`pvr_obs::bench::Trajectory::bench`], so a bin cannot write its
/// trajectory under a name the gate will not find.
pub fn write_trajectory(t: &pvr_obs::bench::Trajectory) -> PathBuf {
    write_artifact(&format!("BENCH_{}.json", t.bench), t.to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This process's results directory: concurrent test processes must
    /// not write the same files.
    fn results_dir() -> PathBuf {
        std::env::temp_dir().join(format!("pvr-bench-test-{}", std::process::id()))
    }

    #[test]
    fn csv_out_writes_file() {
        std::env::set_var("PVR_RESULTS_DIR", results_dir());
        let mut c = CsvOut::create("unit", "a,b");
        c.row("1,2");
        let content = std::fs::read_to_string(out_dir().join("unit.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn trajectories_round_trip_through_the_artifact_file() {
        std::env::set_var("PVR_RESULTS_DIR", results_dir());
        use pvr_obs::bench::Trajectory;
        let mut t = Trajectory::new("unit_rt");
        t.exact("count", 42.0)
            .rel("rate", 1.5e6, 0.3)
            .info("wall_secs", 0.25)
            .table("cases", &["case", "ok"], vec![vec!["a".into(), "1".into()]]);
        let path = write_trajectory(&t);
        assert_eq!(path.file_name().unwrap(), "BENCH_unit_rt.json");
        let back = Trajectory::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(t, back);
    }
}
