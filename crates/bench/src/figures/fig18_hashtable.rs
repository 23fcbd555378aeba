//! Fig. 18 — hash-table lookups across object sizes (24/64/128 B).
//!
//! Paper: Leviathan up to 2.0×, −77% energy; without padding 24 B drops
//! to 1.5×; without LLC mapping 128 B drops to 0.91× (below baseline).

use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};
use levi_workloads::{RunMetrics, Workload};

use crate::runner::{Figure, RunCtx};
use crate::{header, table_report, Sweep};

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
    let paper: &[(u64, f64, f64, &str)] = &[
        (24, 2.0, 1.5, "w/o padding: 1.5x (paper)"),
        (64, 1.9, f64::NAN, ""),
        (128, 1.8, 0.91, "w/o LLC mapping: 0.91x (paper)"),
    ];

    // Every (node size, variant) pair is an independent simulation, so
    // the whole figure fans out as one flat sweep; results come back in
    // declaration order, which the per-size loop below relies on.
    let w = &HashtableWorkload;
    let scale_for = |size: u64| {
        if ctx.quick {
            HtScale::test(size)
        } else {
            HtScale::paper(size)
        }
    };
    let mut jobs: Vec<(&str, (HtScale, HtVariant))> = Vec::new();
    for &(size, _, _, _) in paper {
        let s = scale_for(size);
        jobs.push(("base", (s.clone(), HtVariant::Baseline)));
        jobs.push(("lev", (s.clone(), HtVariant::Leviathan)));
        jobs.push(("ideal", (s.clone(), HtVariant::Ideal)));
        match size {
            24 => jobs.push(("w/o padding", (s, HtVariant::NoPadding))),
            128 => jobs.push(("w/o mapping", (s, HtVariant::NoMapping))),
            _ => {}
        }
    }
    let env = &ctx.env;
    let mut runs = Sweep::new()
        .variants(jobs.iter().map(|(label, job)| (*label, job)))
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
    for &(size, paper_lev, paper_ablation, _) in paper {
        let base = runs.next().unwrap().1;
        let lev = runs.next().unwrap().1;
        let ideal = runs.next().unwrap().1;
        eprintln!("  ran size {size}B base/lev/ideal");
        let ablation = match size {
            24 | 128 => runs.next(),
            _ => None,
        };
        let s = |m: &RunMetrics| base.metrics.cycles as f64 / m.cycles as f64;
        let e = |m: &RunMetrics| m.energy.relative_to(&base.metrics.energy);
        rows.push(vec![
            format!("{size} B"),
            format!("{:.2}x", s(&lev.metrics)),
            format!("{paper_lev:.2}x"),
            format!("{:.0}%", e(&lev.metrics) * 100.0),
            ablation
                .as_ref()
                .map_or("-".into(), |(n, r)| format!("{n}: {:.2}x", s(&r.metrics))),
            if paper_ablation.is_nan() {
                "-".into()
            } else {
                format!("{paper_ablation:.2}x")
            },
            format!("{:.2}x", s(&ideal.metrics)),
        ]);
    }
    table_report(
        "fig18_hashtable",
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
