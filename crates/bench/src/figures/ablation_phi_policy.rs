//! Ablation — PHI's delta-eviction policy (DESIGN.md §4).
//!
//! The paper's PHI "dynamically chooses the policy that minimizes memory
//! bandwidth" between applying binned deltas in place and logging them for
//! later. We expose both: `InPlace` applies memory-side at eviction; `Log`
//! appends to bank-local streaming-store logs and runs a
//! propagation-blocking binning pass.

use levi_workloads::phi::{PhiPolicy, PhiVariant, PhiWorkload};
use levi_workloads::Workload;

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "ablation_phi_policy",
    about: "PHI delta-eviction policy ablation: in-place vs log + binning",
    workloads: &["phi"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &PhiWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Ablation — PHI delta-eviction policy (in-place vs log)",
        "paper Sec. IV-A: PHI chooses the policy minimizing memory bandwidth",
    );
    let jobs = [
        (
            "baseline (no PHI)",
            PhiVariant::Baseline,
            PhiPolicy::InPlace,
        ),
        (
            "in-place (mem-side)",
            PhiVariant::Leviathan,
            PhiPolicy::InPlace,
        ),
        ("log + binning", PhiVariant::Leviathan, PhiPolicy::Log),
    ]
    .map(|(name, variant, policy)| {
        let mut s = scale.clone();
        s.policy = policy;
        (name, (variant, s))
    });
    // The policy changes neither the graph nor the results, only timing.
    let runs = sweep_runs(ctx, w, &scale, jobs);
    let base = &runs["baseline (no PHI)"].metrics;
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, o)| {
            vec![
                name.to_string(),
                format!("{:.2}x", base.cycles as f64 / o.metrics.cycles as f64),
                o.metrics.stats.dram_accesses.to_string(),
                format!("{:.0}%", o.metrics.energy.relative_to(&base.energy) * 100.0),
            ]
        })
        .collect();
    table_report(
        ctx,
        &["policy", "speedup", "DRAM accesses", "energy"],
        &rows,
    );
}
