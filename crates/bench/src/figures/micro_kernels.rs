//! Microkernels — simulated cycle counts for the substrate primitives.
//!
//! Complements `micro_substrate` (which times the *simulator* in
//! wall-clock nanoseconds): this figure runs the `micro` workload's
//! scan / pointer-chase / invoke kernels on the timed simulator and
//! reports deterministic cycle counts, golden-checked like every other
//! workload. It drives the workload purely through the registry, as a
//! living example of the [`levi_workloads::DynWorkload`] path.

use levi_workloads::harness::find_workload;

use crate::runner::{sweep_prepared, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "micro_kernels",
    about: "substrate microkernel cycle counts (scan / pointer-chase / invoke)",
    workloads: &["micro"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = find_workload("micro").expect("micro workload is registered");
    let prepared = w.prepare(ctx.kind());
    header(
        "Microkernels — substrate primitives on the timed simulator",
        &prepared.describe(),
    );
    let outcomes = sweep_prepared(w, prepared.as_ref(), ctx);
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(label, o)| {
            vec![
                label.to_string(),
                o.metrics.cycles.to_string(),
                o.metrics.stats.dram_accesses.to_string(),
                o.metrics.stats.noc_flit_hops.to_string(),
                format!("{:#018x}", o.checksum),
            ]
        })
        .collect();
    table_report(
        ctx,
        &[
            "kernel",
            "cycles",
            "DRAM accesses",
            "NoC flit-hops",
            "checksum",
        ],
        &rows,
    );
}
