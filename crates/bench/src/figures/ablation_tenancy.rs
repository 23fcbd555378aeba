//! Ablation — multi-tenant NDC sharing (DESIGN.md §10).
//!
//! A deployed NDC fabric is shared: several independent jobs co-run on
//! one machine and contend for the LLC and the invoke engines. levi-xlat
//! splits the tiles into equal tenant blocks and compares isolation
//! policies — free interference, LLC way-partitioning, and engine-slot
//! quotas — against the single-tenant baseline. The per-tenant finish
//! spread is the fairness signal: unpartitioned sharing lets one tenant
//! drag the others.

use levi_sim::{TenantConfig, TenantPolicy};
use levi_workloads::hashtable::{golden_checksum, run_hashtable_with, HtScale, HtVariant};
use levi_workloads::{RunOutcome, RunStatus};

use crate::runner::{sweep_jobs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "ablation_tenancy",
    about: "multi-tenant LLC/engine sharing policies vs. a single tenant",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Ablation — multi-tenant NDC sharing policies",
        "4 tenants share the LLC and invoke engines under pluggable policies",
    );
    let mut scale = if ctx.quick {
        HtScale::test(24)
    } else {
        HtScale::paper(24)
    };
    // Size the table at 2-4x the aggregate LLC so tenants actually
    // contend for sets and the partition changes victim choices.
    scale = scale.with_table_bytes(if ctx.quick { 16 << 20 } else { 32 << 20 });

    let jobs = [
        ("single tenant", None),
        ("4x unpartitioned", Some(TenantPolicy::Unpartitioned)),
        ("4x LLC way-partition", Some(TenantPolicy::LlcWayPartition)),
        ("4x engine-slot quota", Some(TenantPolicy::EngineSlotQuota)),
    ];
    let runs = sweep_jobs(
        ctx,
        jobs,
        |&policy, env| {
            let r = run_hashtable_with(HtVariant::Leviathan, &scale, |cfg| {
                cfg.machine.tenants = policy.map(|p| TenantConfig::new(4, p));
                env.customize(cfg);
            });
            RunStatus::Done(Box::new(RunOutcome::new(r.metrics, r.checksum)))
        },
        |_| golden_checksum(&scale),
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, o)| {
            let s = &o.metrics.stats;
            let spread = match (
                s.tenant_finish.iter().max(),
                s.tenant_finish.iter().filter(|&&f| f > 0).min(),
            ) {
                (Some(&max), Some(&min)) if max > 0 => (max - min).to_string(),
                _ => "-".to_string(),
            };
            vec![
                name.to_string(),
                o.metrics.cycles.to_string(),
                s.llc.misses.to_string(),
                s.tenant_quota_nacks.to_string(),
                spread,
            ]
        })
        .collect();
    table_report(
        ctx,
        &[
            "config",
            "cycles",
            "LLC misses",
            "quota NACKs",
            "finish spread",
        ],
        &rows,
    );
    println!();
    println!("Finish spread = latest minus earliest per-tenant core finish cycle;");
    println!("partitioning trades peak throughput for inter-tenant isolation.");
}
