//! Fig. 23 — sensitivity to the stream-buffer size (HATS).
//!
//! Paper: performance plateaus at 64 entries; the buffer lives in shared
//! memory so its capacity is nearly free.

use levi_workloads::hats::{HatsVariant, HatsWorkload};
use levi_workloads::Workload;

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig23_stream_buffer",
    about: "HATS sensitivity to stream-buffer entries (paper Fig. 23)",
    workloads: &["hats"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &HatsWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Fig. 23 — HATS sensitivity to stream-buffer entries",
        "paper: plateau at 64 entries",
    );
    // One graph shared across the sweep: only the buffer capacity changes.
    let capacities = [8u64, 16, 32, 64, 128, 256];
    let jobs = capacities.iter().map(|&cap| {
        let mut s = scale.clone();
        s.stream_capacity = cap;
        (format!("capacity={cap}"), (HatsVariant::Leviathan, s))
    });
    let runs = sweep_runs(ctx, w, &scale, jobs);
    let best = runs
        .iter()
        .map(|(_, o)| o.metrics.cycles)
        .min()
        .unwrap_or(0);
    let rows: Vec<Vec<String>> = capacities
        .iter()
        .map(|cap| {
            let m = &runs[format!("capacity={cap}").as_str()].metrics;
            vec![
                cap.to_string(),
                m.cycles.to_string(),
                m.stats.stream_stall_cycles.to_string(),
                format!("{:.2}x", best as f64 / m.cycles as f64),
            ]
        })
        .collect();
    table_report(
        ctx,
        &["entries", "cycles", "consumer stalls", "rel. perf"],
        &rows,
    );
}
