//! Ablation — the memory-controller FIFO line cache (DESIGN.md §4).
//!
//! Leviathan stores objects compacted in DRAM, so consecutive cache lines
//! often map into one DRAM line; the small per-controller FIFO cache
//! absorbs the repeats (paper Sec. VI-A3: "can reduce DRAM accesses by up
//! to ≈3x"). Measured on the 24 B-node hash table, whose nodes are padded
//! 32 B in cache and packed 24 B in DRAM.

use levi_workloads::hashtable::{golden_checksum, run_hashtable_with, HtScale, HtVariant};
use levi_workloads::{RunOutcome, RunStatus};

use crate::runner::{sweep_jobs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "ablation_mc_cache",
    about: "memory-controller FIFO cache ablation for compacted DRAM",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Ablation — memory-controller FIFO cache for compacted DRAM",
        "paper: the 32-entry FIFO cache absorbs split-line refetches (up to ~3x)",
    );
    let mut scale = if ctx.quick {
        HtScale::test(24)
    } else {
        HtScale::paper(24)
    };
    // Grow the table past the LLC so lookups actually reach DRAM.
    scale = scale.with_table_bytes(if ctx.quick { 2 << 20 } else { 32 << 20 });

    let jobs = [("with FIFO cache (32)", 32), ("without FIFO cache", 0)];
    // The FIFO size needs a config override, threaded through the machine
    // config via the workload's `customize` hook — composed with the run
    // environment so fault plans apply here too.
    let runs = sweep_jobs(
        ctx,
        jobs,
        |&fifo_lines, env| {
            let r = run_hashtable_with(HtVariant::Leviathan, &scale, |cfg| {
                cfg.machine.mem.fifo_cache_lines = fifo_lines;
                env.customize(cfg);
            });
            RunStatus::Done(Box::new(RunOutcome::new(r.metrics, r.checksum)))
        },
        |_| golden_checksum(&scale),
    );
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, o)| {
            vec![
                name.to_string(),
                o.metrics.cycles.to_string(),
                o.metrics.stats.dram_accesses.to_string(),
                o.metrics.stats.mc_cache_hits.to_string(),
            ]
        })
        .collect();
    table_report(
        ctx,
        &["config", "cycles", "DRAM accesses", "FIFO hits"],
        &rows,
    );
    println!();
    println!("DRAM accesses avoided = FIFO hits; disabling the cache converts");
    println!("them back into DRAM traffic on the compacted node array.");
}
