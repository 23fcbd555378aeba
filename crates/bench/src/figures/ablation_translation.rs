//! Ablation — address translation (DESIGN.md §10).
//!
//! NDC evaluations (this paper included) typically assume translation is
//! free. levi-xlat puts a per-tile TLB and a timed radix page walk in
//! front of the probe paths so the assumption can be priced: small pages
//! thrash the TLB on pointer-chasing workloads, huge pages recover most
//! of the ideal-translation performance. Measured on the hash table,
//! whose random probes are the worst case for TLB reach.

use levi_sim::XlatConfig;
use levi_workloads::hashtable::{golden_checksum, run_hashtable_with, HtScale, HtVariant};
use levi_workloads::{RunOutcome, RunStatus};

use crate::runner::{sweep_jobs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "ablation_translation",
    about: "TLB + page-walk cost vs. the free-translation baseline",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Ablation — address translation (TLB + timed page walks)",
        "free translation vs. 4 KiB / 64 KiB / 2 MiB pages on random probes",
    );
    let mut scale = if ctx.quick {
        HtScale::test(24)
    } else {
        HtScale::paper(24)
    };
    // Grow the table past TLB reach so walks actually happen at 4 KiB.
    scale = scale.with_table_bytes(if ctx.quick { 2 << 20 } else { 32 << 20 });

    let jobs = [
        ("free translation", None),
        ("4 KiB pages", Some(12)),
        ("64 KiB pages", Some(16)),
        ("2 MiB pages", Some(21)),
    ];
    let runs = sweep_jobs(
        ctx,
        jobs,
        |&page_bits, env| {
            let r = run_hashtable_with(HtVariant::Leviathan, &scale, |cfg| {
                cfg.machine.xlat = page_bits.map(XlatConfig::with_page_bits);
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
            let lookups = s.tlb_hits + s.tlb_misses;
            let hit_pct = if lookups == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", s.tlb_hits as f64 / lookups as f64 * 100.0)
            };
            vec![
                name.to_string(),
                o.metrics.cycles.to_string(),
                s.tlb_hits.to_string(),
                s.tlb_misses.to_string(),
                hit_pct,
                s.tlb_walk_cycles.to_string(),
            ]
        })
        .collect();
    table_report(
        ctx,
        &[
            "config",
            "cycles",
            "TLB hits",
            "TLB misses",
            "hit %",
            "walk cycles",
        ],
        &rows,
    );
    println!();
    println!("Walks are charged through the real NoC + DRAM paths; larger pages");
    println!("stretch TLB reach and converge on the free-translation baseline.");
}
