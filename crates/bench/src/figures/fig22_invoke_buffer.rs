//! Fig. 22 — sensitivity to the invoke-buffer size (PHI).
//!
//! Paper: 1–2 entries slow Leviathan through queueing backpressure;
//! performance plateaus at 4 entries.

use levi_workloads::phi::{PhiVariant, PhiWorkload};
use levi_workloads::Workload;

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

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
    let entries = [1u32, 2, 4, 8, 16];
    let jobs = entries.iter().map(|&n| {
        let mut s = scale.clone();
        s.invoke_buffer = n;
        (format!("buffer={n}"), (PhiVariant::Leviathan, s))
    });
    let runs = sweep_runs(ctx, w, &scale, jobs);
    let best = runs
        .iter()
        .map(|(_, o)| o.metrics.cycles)
        .min()
        .unwrap_or(0);
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|n| {
            let m = &runs[format!("buffer={n}").as_str()].metrics;
            vec![
                n.to_string(),
                m.cycles.to_string(),
                m.stats.invoke_nacks.to_string(),
                // Normalized to the plateau.
                format!("{:.2}x", best as f64 / m.cycles as f64),
            ]
        })
        .collect();
    table_report(ctx, &["entries", "cycles", "NACKs", "rel. perf"], &rows);
}
