//! Fig. 25 — sensitivity to system size (hash table).
//!
//! Paper: Leviathan's advantage grows with tile count — bigger meshes
//! mean longer round trips for the baseline's per-node fetches, while the
//! offloaded chain walk pays one hop per node.

use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};
use levi_workloads::Workload;

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

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
    // Golden checksums depend on the tile count (lookups are per-thread),
    // so each shape is checked against its own scale's model.
    let mut jobs: Vec<(String, (HtScale, HtVariant))> = Vec::new();
    for &tiles in tiles_list {
        let mut scale = if ctx.quick {
            HtScale::test(64)
        } else {
            HtScale::paper(64)
        };
        scale.tiles = tiles;
        jobs.push((
            format!("base x{tiles}"),
            (scale.clone(), HtVariant::Baseline),
        ));
        jobs.push((format!("lev x{tiles}"), (scale, HtVariant::Leviathan)));
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
    for &tiles in tiles_list {
        let base = runs.next().unwrap().1;
        let lev = runs.next().unwrap().1;
        eprintln!("  ran tiles={tiles}");
        rows.push(vec![
            tiles.to_string(),
            format!(
                "{:.2}x",
                base.metrics.cycles as f64 / lev.metrics.cycles as f64
            ),
            base.metrics.stats.noc_flit_hops.to_string(),
            lev.metrics.stats.noc_flit_hops.to_string(),
        ]);
    }
    table_report(
        "fig25_system_size",
        &[
            "tiles",
            "Leviathan speedup",
            "base flit-hops",
            "lev flit-hops",
        ],
        &rows,
    );
}
