//! Ablation — DYNAMIC invoke scheduling and the 1/32 migrate-local policy
//! (DESIGN.md §4, paper Sec. VI-B1).
//!
//! Compares REMOTE-only placement against DYNAMIC placement (which probes
//! the hierarchy and occasionally migrates tasks up to let hot actors
//! settle in private caches) on the hash-table workload, whose buckets
//! have skewed popularity under Zipfian keys.

use levi_workloads::hashtable::{HashtableWorkload, HtVariant};
use levi_workloads::Workload;

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "ablation_scheduling",
    about: "invoke placement ablation: REMOTE vs DYNAMIC + migrate-local",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Ablation — invoke placement (REMOTE vs DYNAMIC + migrate-local)",
        "paper: DYNAMIC locates the actor wherever it currently is",
    );
    let w = &HashtableWorkload;
    let scale = w.scale(ctx.kind());
    let jobs = [
        ("baseline (core walk)", HtVariant::Baseline),
        ("REMOTE placement", HtVariant::Leviathan),
        ("DYNAMIC placement", HtVariant::LeviathanDynamic),
    ]
    .map(|(name, v)| (name, (v, scale.clone())));
    let runs = sweep_runs(ctx, w, &scale, jobs);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, o)| {
            vec![
                name.to_string(),
                o.metrics.cycles.to_string(),
                o.metrics.stats.invoke_migrations.to_string(),
                o.metrics.stats.noc_flit_hops.to_string(),
            ]
        })
        .collect();
    table_report(
        ctx,
        &["placement", "cycles", "migrations", "NoC flit-hops"],
        &rows,
    );
}
