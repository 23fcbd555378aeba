//! Microbenchmarks for the substrate components: cache-bank operations,
//! NoC sends, LevIR interpretation, allocator planning, and a small
//! end-to-end simulation — wall-clock simulator throughput, not simulated
//! cycles (see `micro_kernels` for those).
//!
//! The timing kernels live in [`crate::micro_timers`]; this descriptor
//! fans them out through [`crate::fan_out`]. It runs no simulation, so it
//! has no golden model, journal record or telemetry block, and does not
//! take the runner's [`crate::runner::sweep_jobs`] path.
//! Wall-clock numbers are indicative, not statistically rigorous, and a
//! parallel fan-out adds scheduling noise — run with `--serial` for the
//! quietest numbers.

use crate::micro_timers::KERNELS;
use crate::runner::{Figure, RunCtx};
use crate::{emit_table, fan_out};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "micro_substrate",
    about: "simulator wall-clock microbenchmarks (cache / NoC / interp / alloc)",
    workloads: &[],
    run,
};

fn run(ctx: &RunCtx) {
    println!("{:<28} {:>15}", "benchmark", "median");
    let results = fan_out(ctx.serial, KERNELS, |_, timer| timer());
    let mut rows = Vec::new();
    for ((name, _), ns) in KERNELS.iter().zip(results) {
        let ns = ns.unwrap_or_else(|p| panic!("{p}"));
        println!("{name:<28} {ns:>10.1} ns/iter");
        rows.push(vec![name.to_string(), format!("{ns:.1}")]);
    }
    emit_table(ctx, &["benchmark", "median ns/iter"], &rows);
}
