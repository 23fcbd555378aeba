//! Fig. 24 — sensitivity to input size (hash table).
//!
//! Paper: Leviathan performs well while the table fits the LLC; once the
//! table exceeds the LLC, NoC savings are swamped by DRAM latency and the
//! advantage shrinks.

use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig24_input_size",
    about: "hash-table sensitivity to total table size vs the LLC (paper Fig. 24)",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Fig. 24 — hash-table sensitivity to total table size",
        "paper: good while data <= LLC; drops past LLC capacity",
    );
    let w = &HashtableWorkload;
    let base_scale = if ctx.quick {
        HtScale::test(64)
    } else {
        HtScale::paper(64)
    };
    // The 16-tile LLC is 8 MB; sweep the (padded) table across it.
    let sizes_mb: &[u64] = if ctx.quick {
        &[1, 2]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    let mut jobs: Vec<(String, (HtVariant, HtScale))> = Vec::new();
    for &mb in sizes_mb {
        let scale = base_scale.clone().with_table_bytes(mb * 1024 * 1024);
        jobs.push((format!("base {mb}MB"), (HtVariant::Baseline, scale.clone())));
        jobs.push((format!("lev {mb}MB"), (HtVariant::Leviathan, scale)));
    }
    // Golden checksums depend on the node count, so each job is checked
    // against its own scale's model.
    let runs = sweep_runs(ctx, w, &base_scale, jobs);
    let rows: Vec<Vec<String>> = sizes_mb
        .iter()
        .map(|mb| {
            let base = &runs[format!("base {mb}MB").as_str()].metrics;
            let lev = &runs[format!("lev {mb}MB").as_str()].metrics;
            vec![
                format!("{mb} MB"),
                format!("{:.2}x", base.cycles as f64 / lev.cycles as f64),
                base.stats.dram_accesses.to_string(),
                lev.stats.dram_accesses.to_string(),
            ]
        })
        .collect();
    table_report(
        ctx,
        &["table size", "Leviathan speedup", "base DRAM", "lev DRAM"],
        &rows,
    );
    println!();
    println!("(16-tile LLC = 8 MB; expect the advantage to fall once the table no longer fits)");
}
