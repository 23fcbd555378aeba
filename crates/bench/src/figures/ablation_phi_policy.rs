//! Ablation — PHI's delta-eviction policy (DESIGN.md §4).
//!
//! The paper's PHI "dynamically chooses the policy that minimizes memory
//! bandwidth" between applying binned deltas in place and logging them for
//! later. We expose both: `InPlace` applies memory-side at eviction; `Log`
//! appends to bank-local streaming-store logs and runs a
//! propagation-blocking binning pass.

use levi_workloads::phi::{PhiPolicy, PhiVariant, PhiWorkload};
use levi_workloads::Workload;

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

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
    let graph = w.build_input(&scale);
    let jobs: Vec<(&str, _)> = [
        (
            "baseline (no PHI)",
            (PhiVariant::Baseline, PhiPolicy::InPlace),
        ),
        (
            "in-place (mem-side)",
            (PhiVariant::Leviathan, PhiPolicy::InPlace),
        ),
        ("log + binning", (PhiVariant::Leviathan, PhiPolicy::Log)),
    ]
    .into_iter()
    .collect();
    let env = &ctx.env;
    let graph_ref = &graph;
    let scale_ref = &scale;
    let results = Sweep::new().variants(jobs).run(|name, &(variant, policy)| {
        let mut s = scale_ref.clone();
        s.policy = policy;
        let o = w.run(variant, &s, graph_ref, env).expect_done(name);
        // The policy may only change timing, never results.
        assert_eq!(
            o.checksum,
            w.golden(variant, &s, graph_ref),
            "{name} diverged from the golden model"
        );
        o
    });
    let base = &results[0].1;
    let mut rows = vec![vec![
        "baseline (no PHI)".into(),
        "1.00x".into(),
        base.metrics.stats.dram_accesses.to_string(),
        "100%".into(),
    ]];
    for (name, o) in &results[1..] {
        eprintln!("  ran {name}");
        rows.push(vec![
            name.to_string(),
            format!(
                "{:.2}x",
                base.metrics.cycles as f64 / o.metrics.cycles as f64
            ),
            o.metrics.stats.dram_accesses.to_string(),
            format!(
                "{:.0}%",
                o.metrics.energy.relative_to(&base.metrics.energy) * 100.0
            ),
        ]);
    }
    table_report(
        "ablation_phi_policy",
        &["policy", "speedup", "DRAM accesses", "energy"],
        &rows,
    );
}
