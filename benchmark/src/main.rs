//! `frame-ledger` — the repository's benchmark.
//!
//! With `--workload` it runs one workload once and prints, as the last
//! line of its output, one JSON object with the run's metrics: the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without `--workload` it runs the whole suite — every
//! workload untraced and traced, each in a process of its own — prints
//! every metric as `workload metric value unit` and writes
//! `results.json`. See `README.md` beside this package.

mod measure;
mod replica;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use stats::{Json, Metrics};
use workload::{Fixture, Workload};

/// The benchmark's contract: workloads, metrics, directions and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const DEFAULT_SEED: u64 = 1530;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    /// Internal: do the workload's set-up and exit (see [`set_up`]).
    set_up_only: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let contract = Json::parse(BENCHMARK_JSON)?;
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: contract
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        trace: false,
        quick: false,
        check_repeat: false,
        set_up_only: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--set-up-only" => args.set_up_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result of one run, as printed on its last line.
struct RunResult {
    workload: Workload,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The four keys the driver reads.
    fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), stats::metrics_json(&self.metrics)),
        ]
    }

    fn print_metrics(&self) {
        for (name, m) in &self.metrics {
            println!("{} {} {:?} {}", self.workload.name(), name, m.value, m.unit);
        }
    }
}

/// This binary again, for one workload of this run.
fn child(args: &Args, workload: Workload) -> Result<Command, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    Ok(cmd)
}

/// Set the workload up in a process of its own and return the seconds
/// that took, start of process to exit. The measuring process then holds
/// none of set-up's memory, so its peak is the workload's.
fn set_up(args: &Args, workload: Workload) -> Result<f64, String> {
    let t0 = Instant::now();
    let status = child(args, workload)?
        .arg("--set-up-only")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("set-up of {} ended with {status}", workload.name()));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// One workload, once: set up, measure (or trace), check.
fn run_single(args: &Args, workload: Workload) -> Result<RunResult, String> {
    let repeats = if args.trace || args.quick {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        setup_s.push(set_up(args, workload)?);
    }
    let fixture = Fixture::open(workload, args.seed, &args.out)?;
    eprintln!(
        "{}: seed {}, set up in {:.3} s",
        workload.name(),
        args.seed,
        stats::median(&setup_s)
    );
    let result = run_fixture(args, &fixture, stats::median(&setup_s));
    fixture.remove();
    result
}

fn run_fixture(args: &Args, fixture: &Fixture, setup_s: f64) -> Result<RunResult, String> {
    let workload = fixture.workload;
    if args.trace {
        let (metrics, traced) = replica::run(fixture, args.seconds);
        let path = args.out.join(format!("trace-{}.json", workload.name()));
        let profile = spans::to_profile(&traced.spans, workload.name());
        std::fs::write(&path, pvr_obs::perfetto::to_json(&profile))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(RunResult {
            workload,
            trace: true,
            attempted: traced.attempted,
            failed: traced.failed,
            metrics,
        });
    }
    let measured = measure::run(fixture, args.seconds, args.quick);
    let mut metrics = Metrics::new();
    measure::end_to_end(&measured, &mut metrics);
    stats::put(&mut metrics, "setup_s", setup_s, "s");
    Ok(RunResult {
        workload,
        trace: false,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    })
}

/// Run one (workload, trace) pair in a fresh process and read its
/// result line back.
fn run_child(args: &Args, workload: Workload, trace: bool) -> Result<RunResult, String> {
    let mut cmd = child(args, workload)?;
    cmd.args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (body, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{body}");
    if !out.status.success() {
        return Err(format!("{} ended with {}", workload.name(), out.status));
    }
    let line = Json::parse(last)?;
    let num = |key: &str| {
        line.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line has no {key}"))
    };
    let mut metrics = Metrics::new();
    let reported = line.get("metrics").ok_or("result line has no metrics")?;
    for (name, entry) in reported.entries() {
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        let unit = entry
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        stats::put(&mut metrics, name, value, unit);
    }
    Ok(RunResult {
        workload,
        trace,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
    })
}

/// Every workload untraced and (unless `--quick`) traced.
fn run_set(args: &Args) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        runs.push(run_child(args, workload, false)?);
        if !args.quick {
            runs.push(run_child(args, workload, true)?);
        }
    }
    Ok(runs)
}

fn results_json(args: &Args, sets: &[Vec<RunResult>]) -> Json {
    let set = |runs: &Vec<RunResult>| {
        Json::Arr(
            runs.iter()
                .map(|r| {
                    let mut kv = vec![
                        ("workload".to_string(), Json::Str(r.workload.name().into())),
                        ("trace".to_string(), Json::Bool(r.trace)),
                    ];
                    kv.extend(r.fields());
                    Json::Obj(kv)
                })
                .collect(),
        )
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str("frame-ledger/v1".into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        ("sets".into(), Json::Arr(sets.iter().map(set).collect())),
    ])
}

/// Compare two sets of runs of the same build: each end-to-end metric
/// of the second may be worse than the first by at most its bound, and
/// every exact count must be identical. Returns the number of
/// violations.
fn check_repeat(first: &[RunResult], second: &[RunResult]) -> Result<usize, String> {
    let contract = Json::parse(BENCHMARK_JSON)?;
    let Some(Json::Arr(end_to_end)) = contract.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut violations = 0;
    println!("# repeat check: workload metric first second worse-by bound");
    for (a, b) in first.iter().zip(second) {
        let name = a.workload.name();
        if a.trace {
            for (key, ..) in replica::PER_LAYER.iter().filter(|m| m.2) {
                let key = *key;
                let (x, y) = (&a.metrics[key].value, &b.metrics[key].value);
                if x.to_bits() != y.to_bits() {
                    violations += 1;
                    println!("{name} {key} {x:?} {y:?} NOT IDENTICAL");
                }
            }
            continue;
        }
        for m in end_to_end {
            let field = |k: &str| m.get(k).and_then(Json::as_str).ok_or("malformed metric");
            let (key, better) = (field("name")?, field("better")?);
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let (x, y) = (a.metrics[key].value, b.metrics[key].value);
            let worse_by = if better == "lower" {
                y / x - 1.0
            } else {
                x / y - 1.0
            };
            let verdict = if worse_by > bound { "EXCEEDS" } else { "ok" };
            violations += usize::from(worse_by > bound);
            println!("{name} {key} {x:?} {y:?} {worse_by:+.4} {bound} {verdict}");
        }
    }
    Ok(violations)
}

fn run_suite(args: &Args) -> Result<bool, String> {
    let mut sets = vec![run_set(args)?];
    let mut ok = true;
    if args.check_repeat {
        sets.push(run_set(args)?);
        ok &= check_repeat(&sets[0], &sets[1])? == 0;
    }
    let path = args.out.join("results.json");
    std::fs::write(&path, format!("{}\n", results_json(args, &sets)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    for r in sets.iter().flatten().filter(|r| !r.correct()) {
        ok = false;
        println!(
            "# {}: {} of {} frames failed",
            r.workload.name(),
            r.failed,
            r.attempted
        );
    }
    println!("# wrote {}", path.display());
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    match args.workload {
        Some(workload) if args.set_up_only => {
            Fixture::set_up(workload, args.seed, &args.out)?;
            Ok(true)
        }
        Some(workload) => {
            let result = run_single(args, workload)?;
            result.print_metrics();
            println!("{}", Json::Obj(result.fields()));
            // An incorrect run still reports: the driver reads `correct`.
            Ok(true)
        }
        None => run_suite(args),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("frame-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(contract: &Json, list: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = contract.get(list) else {
            panic!("BENCHMARK.json has no {list}")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The contract file and the code name the same workloads and
    /// metrics, with the same units, and every name is legal.
    #[test]
    fn benchmark_json_matches_the_code() {
        let contract = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = names(&contract, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let per_layer = names(&contract, "per_layer");
        let declared: Vec<(String, String)> = replica::PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, declared);

        let end_to_end = names(&contract, "end_to_end");
        let expected = [
            ("frame_s", "s"),
            ("frame_rel", "ratio"),
            ("frames_per_s", "1/s"),
            ("cpu_s_per_frame", "s"),
            ("peak_rss_mb", "MB"),
            ("setup_s", "s"),
        ];
        assert_eq!(end_to_end.len(), expected.len());
        for (name, unit) in expected {
            assert!(
                end_to_end.contains(&(name.to_string(), unit.to_string())),
                "{name}"
            );
        }
        let metric_names = per_layer.iter().chain(&end_to_end).map(|m| &m.0);
        for name in workloads.iter().chain(metric_names) {
            assert!(stats::valid_name(name), "{name}");
        }
    }
}
