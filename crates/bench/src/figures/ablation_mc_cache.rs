//! Ablation — the memory-controller FIFO line cache (DESIGN.md §4).
//!
//! Leviathan stores objects compacted in DRAM, so consecutive cache lines
//! often map into one DRAM line; the small per-controller FIFO cache
//! absorbs the repeats (paper Sec. VI-A3: "can reduce DRAM accesses by up
//! to ≈3x"). Measured on the 24 B-node hash table, whose nodes are padded
//! 32 B in cache and packed 24 B in DRAM.

use levi_workloads::hashtable::{run_hashtable_with, HtScale, HtVariant};

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

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

    let jobs: &[(&str, u32)] = &[("with FIFO cache (32)", 32), ("without FIFO cache", 0)];
    let env = &ctx.env;
    let scale_ref = &scale;
    // The FIFO size needs a config override, threaded through the machine
    // config via the workload's `customize` hook — composed with the run
    // environment so fault plans apply here too.
    let results = Sweep::new()
        .variants(jobs.iter().map(|&(name, lines)| (name, lines)))
        .run(|_, &fifo_lines| {
            run_hashtable_with(HtVariant::Leviathan, scale_ref, |cfg| {
                cfg.machine.mem.fifo_cache_lines = fifo_lines;
                env.customize(cfg);
            })
        });
    let mut rows = Vec::new();
    for (name, r) in &results {
        eprintln!("  ran {name}");
        rows.push(vec![
            name.to_string(),
            r.metrics.cycles.to_string(),
            r.metrics.stats.dram_accesses.to_string(),
            r.metrics.stats.mc_cache_hits.to_string(),
        ]);
    }
    table_report(
        "ablation_mc_cache",
        &["config", "cycles", "DRAM accesses", "FIFO hits"],
        &rows,
    );
    println!();
    println!("DRAM accesses avoided = FIFO hits; disabling the cache converts");
    println!("them back into DRAM traffic on the compacted node array.");
}
