//! Fig. 16 — near-cache data transformation (decompression of 6 B pixels).
//!
//! Paper: Leviathan 2.4×, −65% energy, within 1.6% of Ideal; offload (OL)
//! is 2.8× *worse* than baseline; no-padding prior work fails outright.

use levi_workloads::decompress::DecompressWorkload;
use levi_workloads::Workload;

use crate::header;
use crate::runner::{report_figure, sweep_variants, Figure, RunCtx};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig16_decompress",
    about: "6 B pixel decompression via Morph ctors vs offload (paper Fig. 16)",
    workloads: &["decompress"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &DecompressWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Fig. 16 — decompressing 6 B pixels (base+delta, Zipf accesses)",
        &format!(
            "{} pixels, {} accesses (theta={}), {} tiles",
            scale.pixels, scale.accesses, scale.theta, scale.tiles
        ),
    );

    let outcomes = sweep_variants(w, &scale, ctx);
    report_figure(
        ctx,
        &outcomes,
        &[
            ("Baseline", Some(1.0), Some(1.0)),
            ("Offload (OL)", Some(1.0 / 2.8), None),
            ("No padding (tako)", None, None),
            ("Leviathan", Some(2.4), Some(0.35)),
            ("Ideal", Some(2.44), Some(0.345)),
        ],
    );

    let (Some(lev), Some(ideal)) = (outcomes.get("Leviathan"), outcomes.get("Ideal")) else {
        return;
    };
    println!();
    println!(
        "gap to idealized engine: {:.1}%  (paper: 1.6%)",
        (lev.metrics.cycles as f64 / ideal.metrics.cycles as f64 - 1.0) * 100.0
    );
    println!(
        "line fills (ctor groups): {}  — decompressed pixels reused from L1/L2",
        lev.metrics.stats.ctor_actions / 8
    );
}
