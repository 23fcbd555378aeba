//! Fig. 18 — hash-table lookups across object sizes (24/64/128 B).
//!
//! Paper: Leviathan up to 2.0×, −77% energy; without padding 24 B drops
//! to 1.5×; without LLC mapping 128 B drops to 0.91× (below baseline).

use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};
use levi_workloads::{RunMetrics, Workload};

use crate::runner::{sweep_runs, Figure, RunCtx};
use crate::{header, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "fig18_hashtable",
    about: "hash-table lookups across 24/64/128 B nodes + layout ablations (paper Fig. 18)",
    workloads: &["hashtable"],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Fig. 18 — hash-table lookups (32 nodes/bucket, uniform keys)",
        "per node size: Baseline vs Leviathan vs layout ablations",
    );
    // (node bytes, paper Leviathan speedup, paper ablation speedup).
    let paper: &[(u64, f64, f64)] = &[(24, 2.0, 1.5), (64, 1.9, f64::NAN), (128, 1.8, 0.91)];

    // Every (node size, variant) pair is an independent simulation, so
    // the whole figure fans out as one flat sweep.
    let w = &HashtableWorkload;
    let mut jobs: Vec<(String, (HtVariant, HtScale))> = Vec::new();
    for &(size, _, _) in paper {
        let s = if ctx.quick {
            HtScale::test(size)
        } else {
            HtScale::paper(size)
        };
        for (name, v) in [
            ("base", HtVariant::Baseline),
            ("lev", HtVariant::Leviathan),
            ("ideal", HtVariant::Ideal),
        ] {
            jobs.push((format!("{size}B {name}"), (v, s.clone())));
        }
        if let Some((name, v)) = ablation(size) {
            jobs.push((name.into(), (v, s)));
        }
    }
    let runs = sweep_runs(ctx, w, &w.scale(ctx.kind()), jobs);

    let mut rows = Vec::new();
    for &(size, paper_lev, paper_ablation) in paper {
        let at = |name: &str| &runs[format!("{size}B {name}").as_str()].metrics;
        let base = at("base");
        let s = |m: &RunMetrics| base.cycles as f64 / m.cycles as f64;
        let e = |m: &RunMetrics| m.energy.relative_to(&base.energy);
        rows.push(vec![
            format!("{size} B"),
            format!("{:.2}x", s(at("lev"))),
            format!("{paper_lev:.2}x"),
            format!("{:.0}%", e(at("lev")) * 100.0),
            ablation(size).map_or("-".into(), |(n, _)| {
                format!("{n}: {:.2}x", s(&runs[n].metrics))
            }),
            if paper_ablation.is_nan() {
                "-".into()
            } else {
                format!("{paper_ablation:.2}x")
            },
            format!("{:.2}x", s(at("ideal"))),
        ]);
    }
    table_report(
        ctx,
        &[
            "node",
            "Leviathan",
            "(paper)",
            "energy",
            "ablation",
            "(paper)",
            "Ideal",
        ],
        &rows,
    );
    println!();
    println!("Paper: up to 2.0x speedup, up to 77% energy savings; padding and");
    println!("LLC object mapping are both required for cross-size robustness.");
}

/// The layout ablation the figure shows for a node size, if any.
fn ablation(size: u64) -> Option<(&'static str, HtVariant)> {
    match size {
        24 => Some(("w/o padding", HtVariant::NoPadding)),
        128 => Some(("w/o mapping", HtVariant::NoMapping)),
        _ => None,
    }
}
