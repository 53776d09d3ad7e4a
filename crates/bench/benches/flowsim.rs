//! Criterion bench: the flow-level network simulator.
//!
//! Water-filling cost on contended synthetic incasts, and the phase the
//! frame ledger's `model-512` workload spends its time in: the real
//! direct-send schedule of the 1120^3 frame on 512 ranks, priced the
//! way the model prices it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pvr_bgp::flowsim::{FlowSim, FlowSpec, SimParams};
use pvr_bgp::Torus;
use pvr_core::{CompositorPolicy, FrameConfig, PerfModel};

/// An incast: many senders, few receivers (compositor-like).
fn incast(nodes: usize, senders_per_recv: usize, bytes: u64) -> Vec<FlowSpec> {
    let mut v = Vec::new();
    let receivers = nodes / senders_per_recv;
    for r in 0..receivers {
        for s in 0..senders_per_recv {
            let src = (r * senders_per_recv + s + 1) % nodes;
            let dst = r;
            if src != dst {
                v.push(FlowSpec::new(src, dst, bytes));
            }
        }
    }
    v
}

fn bench_flowsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowsim");
    for nodes in [512usize, 4096] {
        let torus = Torus::near_cubic(nodes);
        let specs = incast(nodes, 8, 64_000);
        group.bench_with_input(BenchmarkId::new("incast-exact", nodes), &specs, |b, s| {
            let sim = FlowSim::new(&torus);
            b.iter(|| sim.run(s))
        });
        group.bench_with_input(BenchmarkId::new("incast-batched", nodes), &specs, |b, s| {
            let sim = FlowSim::with_params(
                &torus,
                SimParams {
                    batch_tolerance: 0.05,
                    ..Default::default()
                },
            );
            b.iter(|| sim.run(s))
        });
        group.bench_with_input(BenchmarkId::new("max-link-bound", nodes), &specs, |b, s| {
            let sim = FlowSim::new(&torus);
            b.iter(|| sim.max_link_time(s))
        });
    }

    // 1 974 messages from 512 renderers to 128 compositors: sizes on the
    // model's 10 % grid, `batch_tolerance` 0.03, one link-sharing
    // component — hundreds of events of a few hundred active flows each.
    let mut cfg = FrameConfig::paper_1120(512);
    cfg.policy = CompositorPolicy::Fixed(128);
    let model = PerfModel::default();
    let schedule = model.schedule_for(&cfg);
    group.bench_with_input(BenchmarkId::new("direct-send", 512), &schedule, |b, s| {
        b.iter(|| model.simulate_composite(&cfg, s))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_flowsim
}
criterion_main!(benches);
