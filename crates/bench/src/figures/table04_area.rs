//! Table IV — hardware overhead (state per LLC bank).
//!
//! Paper: 32.8 KB per bank = 6.4% of a 512 KB LLC bank.

use levi_sim::MachineConfig;
use leviathan::AreaModel;

use crate::runner::{Figure, RunCtx};
use crate::{header, pct, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "table04_area",
    about: "hardware overhead: state per LLC bank (paper Table IV)",
    workloads: &[],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Table IV — hardware overhead (state per LLC bank)",
        "paper: 32.8 KB / 512 KB = 6.4%",
    );
    let cfg = MachineConfig::paper_default();
    let report = AreaModel::default().report(&cfg);
    let mut rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.component.clone(),
                r.formula.clone(),
                format!("{:.1} KB", r.bytes / 1024.0),
            ]
        })
        .collect();
    rows.push(vec![
        "Total per LLC bank".into(),
        format!(
            "{:.1} KB / {:.0} KB",
            report.total_bytes / 1024.0,
            report.llc_bank_bytes / 1024.0
        ),
        pct(report.overhead_fraction()),
    ]);
    table_report(ctx, &["component", "sizing", "bytes"], &rows);

    assert!((report.total_bytes / 1024.0 - 32.8).abs() < 0.1);
    assert!((report.overhead_fraction() - 0.064).abs() < 0.001);
    println!();
    println!("measured matches the paper's Table IV exactly (same formulas).");
}
