//! Fig. 5 — PHI: PageRank commutative scatter-updates.
//!
//! Paper: Leviathan 3.7×, tākō Relax 3.1×, tākō Fence 1.4×; Leviathan
//! −22% energy, within 1.3% of Ideal; 40% less NoC traffic than tākō.

use levi_workloads::phi::PhiWorkload;
use levi_workloads::Workload;

use crate::header;
use crate::runner::{report_figure, sweep_variants, Figure, RunCtx};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig05_phi",
    about: "PHI push-PageRank speedup/energy vs tako and Ideal (paper Fig. 5)",
    workloads: &["phi"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &PhiWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Fig. 5 — PHI (push PageRank, commutative scatter-updates)",
        &format!(
            "graph: {} vertices, ~{} edges (power-law in-degree), {} tiles, cache/{}x",
            scale.vertices,
            scale.vertices * scale.avg_degree,
            scale.tiles,
            scale.cache_factor
        ),
    );

    let outcomes = sweep_variants(w, &scale, ctx);
    report_figure(
        ctx,
        &outcomes,
        &[
            ("Baseline", Some(1.0), Some(1.0)),
            ("tako Fence", Some(1.4), Some(0.92)),
            ("tako Relax", Some(3.1), Some(0.88)),
            ("Leviathan", Some(3.7), Some(0.78)),
            ("Ideal", Some(3.75), Some(0.77)),
        ],
    );

    // Mechanism breakdown (Sec. IV-D) — skipped if `--filter` removed a
    // variant it compares against.
    let (Some(base), Some(tako), Some(lev), Some(ideal)) = (
        outcomes.get("Baseline"),
        outcomes.get("tako Relax"),
        outcomes.get("Leviathan"),
        outcomes.get("Ideal"),
    ) else {
        return;
    };
    println!();
    println!("mechanisms:");
    let (base_s, tako_s, lev_s) = (&base.metrics.stats, &tako.metrics.stats, &lev.metrics.stats);
    println!(
        "  fences:        baseline {:>9}   leviathan {:>9}  (offload eliminates fences)",
        base_s.fences, lev_s.fences
    );
    println!(
        "  line ping-pong: baseline {:>8}   leviathan {:>9}  (ownership transfers)",
        base_s.ownership_transfers, lev_s.ownership_transfers
    );
    let noc_cut = 1.0 - lev_s.noc_flit_hops as f64 / tako_s.noc_flit_hops as f64;
    println!(
        "  NoC traffic vs tako: -{:.0}%  (paper: -40%)",
        noc_cut * 100.0
    );
    let ideal_gap = lev.metrics.cycles as f64 / ideal.metrics.cycles as f64 - 1.0;
    println!(
        "  gap to idealized engine: {:.1}%  (paper: 1.3%)",
        ideal_gap * 100.0
    );
}
