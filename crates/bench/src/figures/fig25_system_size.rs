//! Fig. 25 — sensitivity to system size (hash table).
//!
//! Paper: Leviathan's advantage grows with tile count — bigger meshes
//! mean longer round trips for the baseline's per-node fetches, while the
//! offloaded chain walk pays one hop per node.

use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};
use levi_workloads::Workload;

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig25_system_size",
    about: "hash-table sensitivity to tile count (paper Fig. 25)",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Fig. 25 — hash-table sensitivity to tile count",
        "paper: benefit grows with system size (NoC savings dominate)",
    );
    let w = &HashtableWorkload;
    let tiles_list: &[u32] = if ctx.quick {
        &[4, 8]
    } else {
        &[4, 8, 16, 32, 64]
    };
    let mut jobs: Vec<(String, (HtVariant, HtScale))> = Vec::new();
    for &tiles in tiles_list {
        let mut scale = if ctx.quick {
            HtScale::test(64)
        } else {
            HtScale::paper(64)
        };
        scale.tiles = tiles;
        jobs.push((
            format!("base x{tiles}"),
            (HtVariant::Baseline, scale.clone()),
        ));
        jobs.push((format!("lev x{tiles}"), (HtVariant::Leviathan, scale)));
    }
    // Golden checksums depend on the tile count (lookups are per-thread),
    // so each job is checked against its own scale's model.
    let runs = sweep_runs(ctx, w, &w.scale(ctx.kind()), jobs);
    let rows: Vec<Vec<String>> = tiles_list
        .iter()
        .map(|tiles| {
            let base = &runs[format!("base x{tiles}").as_str()].metrics;
            let lev = &runs[format!("lev x{tiles}").as_str()].metrics;
            vec![
                tiles.to_string(),
                format!("{:.2}x", base.cycles as f64 / lev.cycles as f64),
                base.stats.noc_flit_hops.to_string(),
                lev.stats.noc_flit_hops.to_string(),
            ]
        })
        .collect();
    table_report(
        ctx,
        &[
            "tiles",
            "Leviathan speedup",
            "base flit-hops",
            "lev flit-hops",
        ],
        &rows,
    );
}
