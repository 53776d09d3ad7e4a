//! Criterion bench: ray-casting kernel throughput.
//!
//! Measures samples/s of the serial renderer on the synthetic supernova
//! — the number the performance model's `render_rate` is derived from
//! (scaled to the 850 MHz PPC450).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pvr_render::raycast::{render_serial, RenderOpts, Termination};
use pvr_render::{Camera, TransferFunction};
use pvr_volume::{SupernovaField, Volume};

fn bench_raycast(c: &mut Criterion) {
    let mut group = c.benchmark_group("raycast");
    for n in [32usize, 64] {
        let field = SupernovaField::new(1530).variable(2);
        let vol = Volume::from_field(&field, [n, n, n]);
        let cam = Camera::axis_aligned([n, n, n], 128, 128);
        let tf = TransferFunction::supernova_velocity();
        let opts = RenderOpts::default();
        // Count samples once for throughput reporting.
        let (_, stats) = render_serial(&vol, &cam, &tf, &opts);
        group.throughput(Throughput::Elements(stats.samples));
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| render_serial(&vol, &cam, &tf, &opts))
        });

        let reference = RenderOpts {
            fast_path: false,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| render_serial(&vol, &cam, &tf, &reference))
        });

        let et = RenderOpts {
            termination: Termination::Bounded { alpha: 0.995 },
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("bounded-termination", n), &n, |b, _| {
            b.iter(|| render_serial(&vol, &cam, &tf, &et))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_raycast
}
criterion_main!(benches);
