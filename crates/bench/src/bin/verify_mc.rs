//! Exhaustive model-checking sweep of the compositing message
//! protocols.
//!
//! Where `verify_schedules` lints the *static* schedules and
//! `fault_sweep` samples runs, this binary proves the *dynamic*
//! protocols correct at small scale: for every configuration it builds
//! an mpisim model of the message flow and drives `pvr-mc`'s DPOR
//! explorer over **every inequivalent wildcard-match interleaving**,
//! checking per-rank result bit-identity, deadlock-freedom, and
//! message conservation on each trace.
//!
//! * **Direct-send** (n ∈ {2..8}, m ∈ {1..n}): renderers fan
//!   fragments into their compositor (wildcard receives), compositors
//!   gather tiles at rank 0 — the schedule family of the paper's
//!   limited-compositor study, on the pipeline's real frame-0 tag
//!   epoch ([`FrameTags`]).
//! * **Radix-k** (n ∈ {2..8}, default factorization): every round's
//!   k−1 partner pieces arrive by wildcard. Configurations whose full
//!   class count explodes (prime n with k−1 ≥ 4) are explored in
//!   rank-0 projection: only rank 0's matches are free, the other
//!   ranks receive in canonical order — a documented model restriction,
//!   reported as such.
//! * **Ack/retransmit** (n ≤ 4): the fault-tolerant link protocol
//!   under a [`FaultPlan`] that crashes the last sender mid-protocol —
//!   duplicated DATA frames race a half-delivered stream; the receiver
//!   must dedup by (source, msg id) and never ack the crashed rank.
//!
//! The run **fails** (exit 1) if any interleaving violates an
//! invariant, any exploration is cut off by the wall-clock budget
//! (`PVR_MC_BUDGET_SECS`, default 600 — the state-space-blowup gate),
//! or the n = 6 aggregate shows DPOR pruning less than 50% of the
//! naive ordering space (Σ W! over configs, W = wildcard receives per
//! trace). Counterexample schedules are persisted as replayable JSON
//! under `results/`.
//!
//! `--ci` caps the sweep at n ≤ 6 for the CI wall budget; the full
//! n ≤ 8 sweep is the release gate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pvr_bench::{check, emit_csv, write_artifact, write_trajectory, CsvOut};
use pvr_compositing::radixk::default_radices;
use pvr_core::FrameTags;
use pvr_faults::link::{decode_frame, encode_frame, KIND_ACK, KIND_DATA};
use pvr_faults::plan::{FaultPlan, RankAction, RankFault, Stage};
use pvr_mc::{explore, McOptions, McReport};
use pvr_mpisim::Comm;

/// Boxed rank-program future: the model constructors hand `explore`
/// heterogeneous async programs through one object-safe type.
type BoxFut<T> = std::pin::Pin<Box<dyn std::future::Future<Output = T>>>;
use pvr_obs::bench::Trajectory;
use pvr_obs::csvout::csv_field;
use pvr_obs::Registry;

/// Ack/retransmit model tags (outside the frame-tag epochs; the link
/// protocol rides its own channel pair in production too).
const DATA_TAG: u32 = 60;
const ACK_TAG: u32 = 61;

/// Adoption-handshake model tags: the adoption request rides its own
/// channel; fresh and late fragments share one wildcard channel so the
/// explorer races them against each other (the late-arrival epoch).
const ADOPT_TAG: u32 = 70;
const FRAG_TAG: u32 = 71;

/// Full radix-k exploration is attempted only below this predicted
/// class count; above it the model drops to rank-0 projection.
const RADIX_FULL_CAP: f64 = 4096.0;

// ---------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------

/// Direct-send with limited compositors: every rank renders one
/// fragment; rank q's compositor is q mod m; compositors blend their
/// group in renderer order (the depth-order sort of real compositing,
/// which is what makes the result schedule-independent) and gather at
/// rank 0.
fn direct_send(n: usize, m: usize) -> impl Fn(Comm) -> BoxFut<Vec<u8>> + Send + Sync {
    let tags = FrameTags::for_frame(0);
    move |mut comm: Comm| {
        Box::pin(async move {
            let r = comm.rank();
            let fragment = vec![r as u8, 0xC0 | r as u8];
            if r >= m {
                // Pure renderer: ship the fragment and exit.
                comm.send(r % m, tags.fragment, fragment).await;
                return Vec::new();
            }
            // Compositor (every compositor also renders its own fragment).
            let expected = (0..n).filter(|q| q % m == r && *q != r).count();
            let mut frags: Vec<(usize, Vec<u8>)> = vec![(r, fragment)];
            for _ in 0..expected {
                let (src, data) = comm.recv_any(tags.fragment).await;
                frags.push((src, data));
            }
            frags.sort();
            let mut tile = vec![r as u8];
            for (_, f) in &frags {
                tile.extend_from_slice(f);
            }
            if r != 0 {
                comm.send(0, tags.tile, tile).await;
                return Vec::new();
            }
            // Rank 0 assembles the frame from its own tile + m-1 gathered.
            let mut tiles: Vec<(usize, Vec<u8>)> = vec![(0, tile)];
            for _ in 1..m {
                let (src, data) = comm.recv_any(tags.tile).await;
                tiles.push((src, data));
            }
            tiles.sort();
            tiles.into_iter().flat_map(|(_, t)| t).collect()
        }) as BoxFut<Vec<u8>>
    }
}

/// Radix-k rounds: in round i (radix k, stride = product of earlier
/// radices) each rank swaps pieces with its k−1 group partners and
/// combines them in source order. With `projection`, only rank 0
/// receives by wildcard; the rest receive partners in canonical order
/// (the model restriction for explosive configurations).
fn radix_k(
    radices: Vec<usize>,
    projection: bool,
) -> impl Fn(Comm) -> BoxFut<Vec<u8>> + Send + Sync {
    move |mut comm: Comm| {
        let radices = radices.clone();
        Box::pin(async move {
            let r = comm.rank();
            let mut piece = vec![r as u8];
            let mut stride = 1usize;
            for (round, &k) in radices.iter().enumerate() {
                let tag = 200 + round as u32;
                let base = r - ((r / stride) % k) * stride;
                let partners: Vec<usize> = (0..k)
                    .map(|j| base + j * stride)
                    .filter(|&p| p != r)
                    .collect();
                for &p in &partners {
                    comm.send(p, tag, piece.clone()).await;
                }
                let mut pieces: Vec<(usize, Vec<u8>)> = vec![(r, piece)];
                if projection && r != 0 {
                    for &p in &partners {
                        pieces.push((p, comm.recv_from(p, tag).await));
                    }
                } else {
                    for _ in &partners {
                        let (src, data) = comm.recv_any(tag).await;
                        pieces.push((src, data));
                    }
                }
                pieces.sort();
                piece = Vec::new();
                for (src, body) in pieces {
                    piece.push(src as u8);
                    piece.extend_from_slice(&body);
                }
                stride *= k;
            }
            piece
        }) as BoxFut<Vec<u8>>
    }
}

/// Predicted class count of full radix-k exploration:
/// Π rounds ((k−1)!)^n.
fn radix_classes(n: usize, radices: &[usize]) -> f64 {
    let fact = |k: usize| (2..=k).map(|i| i as f64).product::<f64>().max(1.0);
    radices
        .iter()
        .map(|&k| fact(k - 1).powi(n as i32))
        .product()
}

/// Ack/retransmit under a crash: senders 1..n ship their frame as a
/// framed DATA message **twice** (the retransmit path), then block on
/// the ack; the plan's crashed rank ships only the first attempt and
/// exits. Rank 0 dedups by (source, msg id), acks first copies only,
/// and must never ack the crashed rank (it is gone; the send would be
/// lost traffic).
fn ft_ack(n: usize, plan: Arc<FaultPlan>) -> impl Fn(Comm) -> BoxFut<Vec<u8>> + Send + Sync {
    move |mut comm: Comm| {
        let plan = Arc::clone(&plan);
        Box::pin(async move {
            let r = comm.rank();
            let crashed = plan.crashed_by(Stage::Composite, n);
            if r != 0 {
                let msg_id = r as u64;
                let body = vec![r as u8];
                comm.send(0, DATA_TAG, encode_frame(KIND_DATA, msg_id, 1, &body))
                    .await;
                if crashed.contains(&r) {
                    return Vec::new(); // died before the retransmit
                }
                comm.send(0, DATA_TAG, encode_frame(KIND_DATA, msg_id, 2, &body))
                    .await;
                let ack = comm.recv_from(0, ACK_TAG).await;
                let (kind, id, _, _) = decode_frame(&ack).expect("well-formed ack");
                assert_eq!((kind, id), (KIND_ACK, msg_id), "ack for the wrong frame");
                return Vec::new();
            }
            let expected = (n - 1 - crashed.len()) * 2 + crashed.len();
            let mut seen = std::collections::HashSet::new();
            let mut collected: Vec<(usize, Vec<u8>)> = Vec::new();
            for _ in 0..expected {
                let (src, frame) = comm.recv_any(DATA_TAG).await;
                let (kind, id, _, body) = decode_frame(&frame).expect("well-formed frame");
                assert_eq!(kind, KIND_DATA);
                if seen.insert((src, id)) {
                    collected.push((src, body.to_vec()));
                    if !crashed.contains(&src) {
                        comm.send(src, ACK_TAG, encode_frame(KIND_ACK, id, 0, &[]))
                            .await;
                    }
                }
            }
            collected.sort();
            collected.into_iter().flat_map(|(_, b)| b).collect()
        }) as BoxFut<Vec<u8>>
    }
}

/// Orphan-block adoption + late-arrival compositing under a crash:
/// renderers 1..n ship fragments to compositor 0; the plan's crashed
/// rank never sends. Rank 0 *hedges* — it requests adoption of the
/// orphan from the lowest live renderer before any fragment arrives —
/// and the adopter re-renders deterministically and ships the late
/// fragment **twice** (the retransmit path). Late copies share the
/// fresh fragments' wildcard channel, so the explorer interleaves
/// fresh, late, and duplicate arrivals every inequivalent way; rank 0's
/// first-wins dedup must blend every renderer exactly once
/// (conservation) and every trace must assemble the same bytes
/// (bit-identity), with no interleaving able to stall a receive
/// (deadlock-freedom — the checker's own gates).
fn adoption(n: usize, plan: Arc<FaultPlan>) -> impl Fn(Comm) -> BoxFut<Vec<u8>> + Send + Sync {
    move |mut comm: Comm| {
        let plan = Arc::clone(&plan);
        Box::pin(async move {
            let r = comm.rank();
            let crashed = *plan
                .crashed_by(Stage::Composite, n)
                .first()
                .expect("the adoption model needs a crash plan");
            let adopter = (1..n).find(|q| *q != crashed).expect("a live renderer");
            let frag = |id: usize, late: u8| vec![id as u8, 0xC0 | id as u8, late];
            if r != 0 {
                if r == crashed {
                    return Vec::new(); // died before shipping its fragment
                }
                comm.send(0, FRAG_TAG, frag(r, 0)).await;
                if r == adopter {
                    let req = comm.recv_from(0, ADOPT_TAG).await;
                    let orphan = req[0] as usize;
                    assert_eq!(orphan, crashed, "adoption request names the orphan");
                    // Deterministic re-render, shipped twice: the second
                    // copy models the ack-timeout retransmit racing the
                    // first through the late-arrival epoch.
                    comm.send(0, FRAG_TAG, frag(orphan, 1)).await;
                    comm.send(0, FRAG_TAG, frag(orphan, 1)).await;
                }
                return Vec::new();
            }
            // Compositor: hedge immediately (suspicion fired before any
            // arrival), then drain the one wildcard channel: n-2 fresh
            // fragments + 2 late copies of the orphan.
            comm.send(adopter, ADOPT_TAG, vec![crashed as u8]).await;
            let mut got: Vec<Option<Vec<u8>>> = vec![None; n];
            let mut dups = 0usize;
            for _ in 0..n {
                let (_, body) = comm.recv_any(FRAG_TAG).await;
                let id = body[0] as usize;
                if got[id].is_none() {
                    got[id] = Some(body); // first wins: fresh or late alike
                } else {
                    dups += 1;
                }
            }
            assert_eq!(dups, 1, "exactly one late duplicate is discarded");
            // Conservation + bit-identity: every renderer blended exactly
            // once, in renderer order, and the adopted content is
            // indistinguishable from what the crashed rank would have sent
            // (the kind byte is not blended).
            let mut out = Vec::new();
            for (id, slot) in got.iter().enumerate().skip(1) {
                let body = slot
                    .as_ref()
                    .unwrap_or_else(|| panic!("renderer {id} never blended"));
                out.push(id as u8);
                out.extend_from_slice(&body[..2]);
            }
            out
        }) as BoxFut<Vec<u8>>
    }
}

// ---------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------

struct ConfigResult {
    label: String,
    n: usize,
    report: McReport<Vec<u8>>,
}

fn main() {
    let ci_mode = std::env::args().any(|a| a == "--ci");
    let max_n = if ci_mode { 6 } else { 8 };
    let budget = Duration::from_secs(
        std::env::var("PVR_MC_BUDGET_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(600),
    );
    let t0 = Instant::now();
    let registry = Arc::new(Registry::new());

    let mut csv = CsvOut::create(
        "verify_mc",
        "model,n,m,traces,runs,redundant,choice_points,backtracks,sleep_prunes,candidate_prunes,peak_frontier,naive,complete,violations",
    );
    let mut results: Vec<ConfigResult> = Vec::new();
    let mut failures = 0usize;

    let mut run_config =
        |label: String, n: usize, program: Box<dyn Fn(Comm) -> BoxFut<Vec<u8>> + Send + Sync>| {
            let remaining = budget.saturating_sub(t0.elapsed());
            let opts = McOptions {
                time_budget: Some(remaining),
                metrics: Some((Arc::clone(&registry), label.clone())),
                ..McOptions::default()
            };
            let report = explore(n, &program, &opts);
            let s = &report.stats;
            // A label is `model=<name>,n=<n>,m=<m>`, and a radix-k name
            // holds commas of its own (`radix[3, 2]`).
            let (model, _) = label.rsplit_once(",n=").unwrap_or((&label, ""));
            let (_, m_str) = label.rsplit_once(",m=").unwrap_or(("", "-"));
            csv.row(&format!(
                "{},{n},{m_str},{},{},{},{},{},{},{},{},{:.3e},{},{}",
                csv_field(model),
                s.traces,
                s.runs,
                s.redundant_runs,
                s.choice_points,
                s.backtrack_points,
                s.sleep_prunes,
                s.candidate_prunes,
                s.peak_frontier,
                s.naive_orderings,
                s.complete,
                report.violations.len(),
            ));
            results.push(ConfigResult { label, n, report });
        };

    for n in 2..=max_n {
        for m in 1..=n {
            run_config(
                format!("model=direct,n={n},m={m}"),
                n,
                Box::new(direct_send(n, m)),
            );
        }
        let radices = default_radices(n);
        let projection = radix_classes(n, &radices) > RADIX_FULL_CAP;
        run_config(
            format!(
                "model=radix{}{radices:?},n={n},m=-",
                if projection { "-proj" } else { "" }
            ),
            n,
            Box::new(radix_k(radices.clone(), projection)),
        );
        if n <= 4 {
            let plan = Arc::new(FaultPlan {
                seed: 0,
                ranks: vec![RankFault {
                    rank: n - 1,
                    stage: Stage::Composite,
                    action: RankAction::Crash,
                }],
                links: vec![],
                servers: vec![],
            });
            run_config(
                format!("model=ft-ack,n={n},m=-"),
                n,
                Box::new(ft_ack(n, Arc::clone(&plan))),
            );
            // The adoption handshake needs a live renderer besides the
            // crashed one: n >= 3.
            if n >= 3 {
                run_config(
                    format!("model=adoption,n={n},m=-"),
                    n,
                    Box::new(adoption(n, plan)),
                );
            }
        }
    }

    // --- Gates. ---
    for cfg in &results {
        let ok = cfg.report.violations.is_empty();
        if !ok {
            failures += 1;
            for (i, v) in cfg.report.violations.iter().enumerate() {
                eprintln!("FAIL {}: {v}", cfg.label);
                let name = format!(
                    "mc_counterexample_{}_{i}.json",
                    cfg.label.replace(['=', ',', '[', ']', ' '], "_")
                );
                write_artifact(&name, pvr_mc::schedule::to_json(&v.schedule).as_bytes());
            }
        }
        if !cfg.report.stats.complete {
            failures += 1;
            eprintln!(
                "FAIL {}: exploration incomplete ({} runs, {:?}) — state-space blowup or budget exhausted",
                cfg.label, cfg.report.stats.runs, cfg.report.stats.wall
            );
        }
    }
    let explored: u64 = results.iter().map(|c| c.report.stats.runs).sum();
    let classes: u64 = results.iter().map(|c| c.report.stats.traces).sum();
    check(
        "zero violations across all configurations",
        results.iter().all(|c| c.report.violations.is_empty()),
        &format!("{} configs, {classes} inequivalent traces", results.len()),
    );
    check(
        "every exploration ran to completion",
        results.iter().all(|c| c.report.stats.complete),
        &format!("{explored} total runs"),
    );

    // DPOR effectiveness gate at n = 6: runs actually performed vs the
    // naive Σ W! ordering space a reduction-free checker would face.
    let n6: Vec<&ConfigResult> = results.iter().filter(|c| c.n == 6).collect();
    let n6_runs: u64 = n6.iter().map(|c| c.report.stats.runs).sum();
    let n6_naive: f64 = n6.iter().map(|c| c.report.stats.naive_orderings).sum();
    let pruned = if n6_naive > 0.0 {
        1.0 - n6_runs as f64 / n6_naive
    } else {
        0.0
    };
    let prune_ok = pruned >= 0.5;
    if !prune_ok {
        failures += 1;
    }
    check(
        "DPOR prunes >= 50% of naive interleavings at n=6",
        prune_ok,
        &format!(
            "{n6_runs} runs vs {n6_naive:.3e} naive orderings ({:.4}% pruned)",
            pruned * 100.0
        ),
    );

    let wall_ok = t0.elapsed() <= budget;
    if !wall_ok {
        failures += 1;
    }
    check(
        "sweep within wall-clock budget",
        wall_ok,
        &format!(
            "{:.1}s of {:.0}s",
            t0.elapsed().as_secs_f64(),
            budget.as_secs_f64()
        ),
    );

    // --- Artifacts. ---
    let snap = registry.snapshot();
    emit_csv("verify_mc_metrics", &snap.to_csv());
    // Trajectory: config and violation counts are exact; trace-class
    // and run counts get bands (the classes DPOR enumerates depend on
    // the wildcard match orders actually observed). Neither the wall
    // clock nor the budget (`PVR_MC_BUDGET_SECS`, which CI sets) is
    // recorded, so a rerun rewrites the file byte for byte; both are
    // printed by the budget check above.
    let mut traj = Trajectory::new("mc");
    traj.exact("max_n", max_n as f64)
        .exact("configs", results.len() as f64)
        .rel("traces", classes as f64, 0.1)
        .exact(
            "violations",
            results
                .iter()
                .map(|c| c.report.violations.len())
                .sum::<usize>() as f64,
        )
        .exact("ok", (failures == 0) as u8 as f64)
        .rel("runs", explored as f64, 0.25)
        .rel("n6_runs", n6_runs as f64, 0.25)
        .exact("n6_naive_orderings", n6_naive)
        .rel("n6_pruned_fraction", pruned, 0.1)
        .table(
            "configs",
            &["label", "n", "traces", "runs", "complete", "violations"],
            results
                .iter()
                .map(|c| {
                    vec![
                        c.label.clone(),
                        c.n.to_string(),
                        c.report.stats.traces.to_string(),
                        c.report.stats.runs.to_string(),
                        (c.report.stats.complete as u8).to_string(),
                        c.report.violations.len().to_string(),
                    ]
                })
                .collect(),
        );
    write_trajectory(&traj);

    println!(
        "verify_mc: {} configs, {classes} traces, {explored} runs, {failures} failures in {:.1}s",
        results.len(),
        t0.elapsed().as_secs_f64()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
