//! Fig. 22 — sensitivity to the invoke-buffer size (PHI).
//!
//! Paper: 1–2 entries slow Leviathan through queueing backpressure;
//! performance plateaus at 4 entries.

use levi_workloads::phi::{PhiVariant, PhiWorkload};
use levi_workloads::Workload;

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig22_invoke_buffer",
    about: "PHI sensitivity to invoke-buffer entries (paper Fig. 22)",
    workloads: &["phi"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &PhiWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Fig. 22 — PHI sensitivity to invoke-buffer entries",
        "paper: slow at 1-2 entries, plateau at >= 4",
    );
    // One graph shared across the sweep: only the buffer size changes.
    let graph = w.build_input(&scale);
    let jobs: Vec<(String, _)> = [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&entries| {
            let mut s = scale.clone();
            s.invoke_buffer = entries;
            (format!("buffer={entries}"), (entries, s))
        })
        .collect();
    let env = &ctx.env;
    let graph_ref = &graph;
    let results = Sweep::new()
        .variants(jobs.iter().map(|(label, job)| (label.as_str(), job)))
        .run(|label, job| {
            let o = w
                .run(PhiVariant::Leviathan, &job.1, graph_ref, env)
                .expect_done(label);
            assert_eq!(
                o.checksum,
                w.golden(PhiVariant::Leviathan, &job.1, graph_ref),
                "{label} diverged from the golden model"
            );
            (job.0, o)
        });
    let mut rows = Vec::new();
    let mut best = u64::MAX;
    let mut cycles_at = Vec::new();
    for (_, (entries, o)) in &results {
        eprintln!("  ran buffer={entries}");
        best = best.min(o.metrics.cycles);
        cycles_at.push(o.metrics.cycles);
        rows.push(vec![
            entries.to_string(),
            o.metrics.cycles.to_string(),
            o.metrics.stats.invoke_nacks.to_string(),
        ]);
    }
    // Normalize to the plateau.
    for (row, c) in rows.iter_mut().zip(&cycles_at) {
        row.push(format!("{:.2}x", best as f64 / *c as f64));
    }
    table_report(
        "fig22_invoke_buffer",
        &["entries", "cycles", "NACKs", "rel. perf"],
        &rows,
    );
}
