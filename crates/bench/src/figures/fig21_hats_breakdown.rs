//! Fig. 21 — HATS performance breakdown.
//!
//! Left: DRAM accesses split by PageRank phase (edge vs vertex) — BDFS
//! variants cut edge-phase accesses ~40%. Middle: branch mispredictions
//! per edge — streaming eliminates them. Right: average engine
//! instructions per edge — tākō's per-line restarts cost more than
//! Leviathan's continuously running producer.

use levi_workloads::hats::HatsWorkload;
use levi_workloads::Workload;

use crate::runner::{sweep_variants, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig21_hats_breakdown",
    about: "HATS DRAM-by-phase / mispredict / engine-work breakdown (paper Fig. 21)",
    workloads: &["hats"],
    run,
};

fn run(ctx: &RunCtx) {
    let w = &HatsWorkload;
    let scale = w.scale(ctx.kind());
    header(
        "Fig. 21 — HATS breakdown (DRAM by phase / mispredicts / engine work)",
        "paper: BDFS cuts edge-phase DRAM ~40%; streams eliminate mispredicts;\ntako needs more engine instructions per edge than Leviathan",
    );
    let outcomes = sweep_variants(w, &scale, ctx);
    let mut rows = Vec::new();
    let mut base_edge_dram = 0u64;
    for (label, o) in outcomes.iter() {
        let s = &o.metrics.stats;
        if label == "Baseline" {
            base_edge_dram = s.dram_by_phase[0];
        }
        let edges = o
            .aux_value("edges")
            .expect("HATS runs report their edge count");
        rows.push(vec![
            label.to_string(),
            s.dram_by_phase[0].to_string(),
            format!(
                "{:+.0}%",
                (s.dram_by_phase[0] as f64 / base_edge_dram as f64 - 1.0) * 100.0
            ),
            s.dram_by_phase[1].to_string(),
            format!("{:.3}", s.mispredicts as f64 / edges as f64),
            format!("{:.1}", s.engine_instrs as f64 / edges as f64),
            s.stream_stall_cycles.to_string(),
        ]);
    }
    table_report(
        ctx,
        &[
            "variant",
            "DRAM(edge)",
            "vs base",
            "DRAM(vertex)",
            "mispred/edge",
            "engine instr/edge",
            "stream stalls",
        ],
        &rows,
    );
}
