//! Fig. 23 — sensitivity to the stream-buffer size (HATS).
//!
//! Paper: performance plateaus at 64 entries; the buffer lives in shared
//! memory so its capacity is nearly free.

use levi_workloads::hats::{HatsVariant, HatsWorkload};
use levi_workloads::Workload;

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

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
    let graph = w.build_input(&scale);
    let jobs: Vec<(String, _)> = [8u64, 16, 32, 64, 128, 256]
        .iter()
        .map(|&cap| {
            let mut s = scale.clone();
            s.stream_capacity = cap;
            (format!("capacity={cap}"), (cap, s))
        })
        .collect();
    let env = &ctx.env;
    let graph_ref = &graph;
    let results = Sweep::new()
        .variants(jobs.iter().map(|(label, job)| (label.as_str(), job)))
        .run(|label, job| {
            let o = w
                .run(HatsVariant::Leviathan, &job.1, graph_ref, env)
                .expect_done(label);
            assert_eq!(
                o.checksum,
                w.golden(HatsVariant::Leviathan, &job.1, graph_ref),
                "{label} diverged from the golden model"
            );
            (job.0, o)
        });
    let mut rows = Vec::new();
    let mut best = u64::MAX;
    let mut cycles_at = Vec::new();
    for (_, (cap, o)) in &results {
        eprintln!("  ran capacity={cap}");
        best = best.min(o.metrics.cycles);
        cycles_at.push(o.metrics.cycles);
        rows.push(vec![
            cap.to_string(),
            o.metrics.cycles.to_string(),
            o.metrics.stats.stream_stall_cycles.to_string(),
        ]);
    }
    for (row, c) in rows.iter_mut().zip(&cycles_at) {
        row.push(format!("{:.2}x", best as f64 / *c as f64));
    }
    table_report(
        "fig23_stream_buffer",
        &["entries", "cycles", "consumer stalls", "rel. perf"],
        &rows,
    );
}
