//! Table V — system parameters, plus the taxonomy Tables I–III.
//!
//! Prints the simulated system's configuration for cross-checking against
//! the paper, and summarizes the NDC taxonomy the implementation follows.

use levi_sim::MachineConfig;

use crate::runner::{Figure, RunCtx};
use crate::{header, table, table_report};

/// The figure descriptor.
pub const FIG: Figure = Figure {
    id: "table05_config",
    about: "simulated system parameters + NDC taxonomy (paper Tables I-V)",
    workloads: &[],
    run,
};

fn run(ctx: &RunCtx) {
    header(
        "Table V — system parameters",
        "simulated configuration vs the paper",
    );
    let c = MachineConfig::paper_default();
    let rows = vec![
        vec!["Cores".into(), format!("{} cores, LevIR ISA, scoreboarded issue {} wide, {} MSHRs, {}-entry invoke buffer", c.tiles, c.core.issue_width, c.core.mshrs, c.core.invoke_buffer), "16 cores, x86-64, OOO Skylake, 4-entry invoke buffer".into()],
        vec!["Engines".into(), format!("{} engines (L2+LLC per tile), {} int FUs ({}-cycle), {} mem FUs, {} KB L1d, {} thread contexts", c.tiles * 2, c.engine.int_fus, c.engine.pe_latency, c.engine.mem_fus, c.engine.l1d_bytes / 1024, c.engine.contexts), "16 engines, 15 int FUs (1-cycle), 10 mem FUs, 8 KB L1d, 32 contexts".into()],
        vec!["L1".into(), format!("{} KB, {}-way, {}-cycle", c.l1.size_bytes / 1024, c.l1.ways, c.l1.latency), "32 KB, 8-way".into()],
        vec!["L2".into(), format!("{} KB, {}-way, {}-cycle, SRRIP, strided prefetcher={}", c.l2.size_bytes / 1024, c.l2.ways, c.l2.latency, c.prefetcher), "128 KB, 8-way, 2+4-cycle, (D)RRIP, strided pf".into()],
        vec!["LLC".into(), format!("{} MB total ({} KB/tile), {}-way, {}-cycle, inclusive, SRRIP", c.llc_total_bytes() / 1024 / 1024, c.llc.size_bytes / 1024, c.llc.ways, c.llc.latency), "8 MB (512 KB/tile), 16-way, 3+5-cycle, inclusive".into()],
        vec!["NoC".into(), format!("{:?} mesh, {}-bit flits, {}/{}-cycle router/link", c.mesh_dims(), c.noc.flit_bits, c.noc.router_delay, c.noc.link_delay), "mesh, 128-bit flits, 2/1-cycle".into()],
        vec!["Memory".into(), format!("{} controllers, {}-cycle latency, {} cyc/line (~11.8 GB/s), {}-entry FIFO cache", c.mem.controllers, c.mem.latency, c.mem.cycles_per_line, c.mem.fifo_cache_lines), "4 controllers, 100-cycle, 11.8 GB/s, 32-entry FIFO".into()],
    ];
    table_report(ctx, &["component", "simulated", "paper"], &rows);

    header(
        "Table I — NDC taxonomy (implemented paradigms)",
        "all four paradigms run on the same hardware",
    );
    table(
        &[
            "paradigm",
            "small tasks?",
            "talks to cores?",
            "mechanism here",
        ],
        &[
            vec![
                "Task offload".into(),
                "yes".into(),
                "yes".into(),
                "invoke instr + engine task contexts + DYNAMIC scheduling".into(),
            ],
            vec![
                "Long-lived".into(),
                "no".into(),
                "no".into(),
                "spawn_long_lived / stream producers on engines".into(),
            ],
            vec![
                "Data-triggered".into(),
                "yes".into(),
                "no".into(),
                "Morph ctors/dtors on cache insertion/eviction".into(),
            ],
            vec![
                "Streaming".into(),
                "no".into(),
                "yes".into(),
                "ring buffer + phantom consumption + push/pop".into(),
            ],
        ],
    );

    header(
        "Table II — actions per paradigm",
        "see leviathan crate docs",
    );
    table(
        &["paradigm", "actions"],
        &[
            vec![
                "Task offload".into(),
                "arbitrary actor-specific function".into(),
            ],
            vec![
                "Long-lived".into(),
                "arbitrary actor-specific function".into(),
            ],
            vec![
                "Data-triggered".into(),
                "actor constructor & destructor".into(),
            ],
            vec![
                "Streaming".into(),
                "actor-specific producer function (genStream)".into(),
            ],
        ],
    );

    header("Table III — per-paradigm microarchitecture support", "");
    table(
        &["paradigm", "core", "cache", "engine"],
        &[
            vec![
                "Task offload".into(),
                "invoke instr & buffer".into(),
                "n/a".into(),
                "DYNAMIC scheduling".into(),
            ],
            vec![
                "Data-triggered".into(),
                "flush instr, TLB bits".into(),
                "tag bits".into(),
                "actor buffer, vtable map".into(),
            ],
            vec![
                "Streaming".into(),
                "pop instr".into(),
                "n/a".into(),
                "push instr, stream metadata".into(),
            ],
        ],
    );
}
