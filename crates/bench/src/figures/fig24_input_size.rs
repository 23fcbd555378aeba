//! Fig. 24 — sensitivity to input size (hash table).
//!
//! Paper: Leviathan performs well while the table fits the LLC; once the
//! table exceeds the LLC, NoC savings are swamped by DRAM latency and the
//! advantage shrinks.

use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};
use levi_workloads::Workload;

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

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
    // Golden checksums depend on the node count, so each size is checked
    // against its own scale's model inside the sweep.
    let mut jobs: Vec<(String, (HtScale, HtVariant))> = Vec::new();
    for &mb in sizes_mb {
        let scale = base_scale.clone().with_table_bytes(mb * 1024 * 1024);
        jobs.push((format!("base {mb}MB"), (scale.clone(), HtVariant::Baseline)));
        jobs.push((format!("lev {mb}MB"), (scale, HtVariant::Leviathan)));
    }
    let env = &ctx.env;
    let mut runs = Sweep::new()
        .variants(jobs.iter().map(|(label, job)| (label.as_str(), job)))
        .run(|label, job| {
            let (scale, v) = (&job.0, job.1);
            let o = w.run(v, scale, &(), env).expect_done(label);
            assert_eq!(
                o.checksum,
                w.golden(v, scale, &()),
                "{label} diverged from the golden model"
            );
            o
        })
        .into_iter();
    let mut rows = Vec::new();
    for &mb in sizes_mb {
        let base = runs.next().unwrap().1;
        let lev = runs.next().unwrap().1;
        eprintln!("  ran table={mb}MB");
        rows.push(vec![
            format!("{mb} MB"),
            format!(
                "{:.2}x",
                base.metrics.cycles as f64 / lev.metrics.cycles as f64
            ),
            base.metrics.stats.dram_accesses.to_string(),
            lev.metrics.stats.dram_accesses.to_string(),
        ]);
    }
    table_report(
        "fig24_input_size",
        &["table size", "Leviathan speedup", "base DRAM", "lev DRAM"],
        &rows,
    );
    println!();
    println!("(16-tile LLC = 8 MB; expect the advantage to fall once the table no longer fits)");
}
