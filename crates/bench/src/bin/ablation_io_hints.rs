//! Ablation — MPI-IO hint sweep for the netCDF record-variable read.
//!
//! The paper tunes one point (cb_buffer_size = record size) and notes
//! "we are continuing to study the effects of this hint, as well as
//! others such as the number of collective aggregators". This sweep
//! does that study: collective buffer size x aggregator count, 1120³
//! netCDF, reporting physical bytes, access counts, density, and
//! modeled read time.

use pvr_bench::{check, CsvOut};
use pvr_core::{FrameConfig, IoMode};
use pvr_formats::layout::NetCdfClassicLayout;
use pvr_formats::Subvolume;
use pvr_pfs::model::StorageModel;
use pvr_pfs::twophase::{two_phase_plan, CollectiveHints};

fn main() {
    let grid = [1120usize; 3];
    let layout = NetCdfClassicLayout::new(grid, 5);
    let record = layout.record_bytes();
    let stride = layout.record_stride();
    let aggregate = IoMode::NetCdfUntuned
        .layout(grid)
        .extents(0, &Subvolume::whole(grid));
    let cfg = FrameConfig::paper_1120(2048);
    let io_nodes = pvr_core::bgp_io_nodes(cfg.nprocs);
    let storage = StorageModel::default();

    let mut csv = CsvOut::create(
        "ablation_io_hints",
        "cb_buffer_bytes,aggregators,physical_GB,accesses,mean_access_MB,density,model_read_s",
    );

    // Buffer sweep at fixed aggregators, including the paper's two
    // operating points (16 MiB default, record size tuned).
    let buffers: Vec<(String, u64)> = vec![
        ("record/4".into(), record / 4),
        ("record".into(), record),
        ("record*2".into(), record * 2),
        ("stride".into(), stride),
        ("4MiB".into(), 4 << 20),
        ("16MiB-default".into(), 16 << 20),
        ("64MiB".into(), 64 << 20),
    ];
    let mut best: Option<(u64, f64)> = None;
    let mut default_time = 0.0;
    for (_, cb) in &buffers {
        let naggr = StorageModel::default_aggregators(cfg.nprocs, io_nodes);
        let plan = two_phase_plan(
            &aggregate,
            naggr,
            &CollectiveHints {
                cb_buffer_size: *cb,
            },
        );
        let t = storage.read_time(plan.physical_bytes, plan.accesses.len(), io_nodes, naggr);
        csv.row(&format!(
            "{cb},{naggr},{:.2},{},{:.2},{:.3},{:.2}",
            plan.physical_bytes as f64 / 1e9,
            plan.accesses.len(),
            plan.mean_access_bytes() / 1e6,
            plan.data_density(),
            t
        ));
        if *cb == 16 << 20 {
            default_time = t;
        }
        if best.is_none() || t < best.unwrap().1 {
            best = Some((*cb, t));
        }
    }

    // Aggregator sweep at the tuned buffer.
    for naggr in [8usize, 16, 32, 64, 128, 256, 512] {
        let plan = two_phase_plan(&aggregate, naggr, &CollectiveHints::tuned(record));
        let t = storage.read_time(plan.physical_bytes, plan.accesses.len(), io_nodes, naggr);
        csv.row(&format!(
            "{record},{naggr},{:.2},{},{:.2},{:.3},{:.2}",
            plan.physical_bytes as f64 / 1e9,
            plan.accesses.len(),
            plan.mean_access_bytes() / 1e6,
            plan.data_density(),
            t
        ));
    }

    let (best_cb, best_t) = best.unwrap();
    check(
        "a record-scale buffer beats the 16 MiB default (the paper's ~2x)",
        best_t < default_time / 1.5,
        &format!("best cb={best_cb} B -> {best_t:.1} s vs default 16 MiB -> {default_time:.1} s"),
    );
    check(
        "buffers at/above the record stride swallow the inter-variable gaps",
        {
            let naggr = StorageModel::default_aggregators(cfg.nprocs, io_nodes);
            let big = two_phase_plan(
                &aggregate,
                naggr,
                &CollectiveHints {
                    cb_buffer_size: stride,
                },
            );
            big.data_density() < 0.3
        },
        "density collapses once windows span multiple variables",
    );
}
