//! Fig. 20 — HATS: decoupled BDFS graph traversal (one PageRank
//! iteration on a community-structured graph).
//!
//! Paper: software BDFS 1.2×, tākō 1.4×, Leviathan 1.7× (≈ Ideal),
//! −26% energy.

use levi_workloads::hats::HatsWorkload;
use levi_workloads::Workload;

use crate::header;
use crate::runner::{report_figure, sweep_variants, Figure, RunCtx};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig20_hats",
    about: "HATS decoupled-BDFS speedup/energy vs SW BDFS and tako (paper Fig. 20)",
    workloads: &["hats"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &HatsWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Fig. 20 — HATS (decoupled BDFS streaming, 1 PageRank iteration)",
        &format!(
            "{} vertices, ~{} edges, communities of {} ({}% intra), {} tiles",
            scale.vertices,
            scale.vertices * scale.avg_degree,
            scale.community,
            scale.intra_pct,
            scale.tiles
        ),
    );

    let outcomes = sweep_variants(w, &scale, ctx);
    report_figure(
        ctx,
        &outcomes,
        &[
            ("Baseline", Some(1.0), Some(1.0)),
            ("SW BDFS", Some(1.2), None),
            ("tako", Some(1.4), None),
            ("Leviathan", Some(1.7), Some(0.74)),
            ("Ideal", Some(1.71), None),
        ],
    );
}
