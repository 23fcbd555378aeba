//! Machine configuration.
//!
//! [`MachineConfig::paper_default`] reproduces Table V of the paper: a
//! 16-tile multicore with private L1/L2, a shared inclusive NUCA LLC
//! (one 512 KB bank per tile), a 4×4 mesh NoC, four memory controllers,
//! and a Leviathan engine pair (L2 + LLC) per tile.

use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::xlat::MAX_TENANTS;

/// Cache line size in bytes. Fixed at 64 B across the hierarchy, as in the
/// paper's evaluation.
pub const LINE_SIZE: u64 = 64;

/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (per bank for the LLC).
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in cycles (tag + data, loaded on a hit).
    pub latency: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Number of sets implied by size, line size, and ways.
    pub fn sets(&self) -> u64 {
        self.size_bytes / LINE_SIZE / self.ways as u64
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_SIZE
    }
}

/// Cache replacement policies supported by [`crate::cache::CacheBank`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used.
    Lru,
    /// Static re-reference interval prediction (2-bit SRRIP), standing in
    /// for the paper's (D)RRIP ("t̄r̄ip repl.").
    Srrip,
}

/// Core (OOO-approximating) model parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued per cycle when dependencies allow.
    pub issue_width: u32,
    /// Maximum outstanding L1 misses (MSHRs); bounds memory-level
    /// parallelism.
    pub mshrs: u32,
    /// Penalty in cycles for a mispredicted branch.
    pub mispredict_penalty: u64,
    /// log2 of the gshare predictor's table size.
    pub predictor_bits: u32,
    /// Entries in the invoke buffer (Sec. VI-B1; Fig. 22 sweeps this).
    pub invoke_buffer: u32,
    /// Latency of an integer multiply.
    pub mul_latency: u64,
    /// Latency of an integer divide.
    pub div_latency: u64,
}

/// Near-data engine (dataflow fabric) parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Integer functional units available per cycle (paper: 15).
    pub int_fus: u32,
    /// Memory functional units available per cycle (paper: 10).
    pub mem_fus: u32,
    /// Per-PE latency in cycles (paper: 1).
    pub pe_latency: u64,
    /// Task contexts per engine (paper: 32, split evenly between offloaded
    /// and data-triggered actions to avoid deadlock).
    pub contexts: u32,
    /// Engine L1d capacity in bytes (paper: 8 KB).
    pub l1d_bytes: u64,
    /// Engine L1d latency.
    pub l1d_latency: u64,
    /// When true, the engine is *idealized*: unlimited 0-cycle FUs and free
    /// instructions; only memory latency and data dependencies remain.
    pub idealized: bool,
}

/// Mesh network-on-chip parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Flit width in bits (paper: 128).
    pub flit_bits: u32,
    /// Per-hop router delay in cycles (paper: 2).
    pub router_delay: u64,
    /// Per-hop link delay in cycles (paper: 1).
    pub link_delay: u64,
}

/// Memory (DRAM) system parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of memory controllers (paper: 4).
    pub controllers: u32,
    /// Fixed access latency in cycles (paper: 100).
    pub latency: u64,
    /// Cycles one controller is occupied per 64 B line, derived from the
    /// paper's 11.8 GB/s per controller at 2.4 GHz ⇒ ~13 cycles/line.
    pub cycles_per_line: u64,
    /// Entries in the per-controller FIFO line cache (paper: 32), used by
    /// Leviathan's DRAM object compaction.
    pub fifo_cache_lines: u32,
    /// Latency of a FIFO-cache hit.
    pub fifo_hit_latency: u64,
}

/// Per-event dynamic energy parameters, in picojoules.
///
/// Absolute values are representative of the literature the paper cites
/// (Jenga \[75\] for core/cache/NoC/DRAM, Repetti et al. \[60\] for the
/// engines); the evaluation only relies on *relative* energy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyConfig {
    /// Per retired core instruction (fetch/decode/OOO overheads included).
    pub core_inst_pj: f64,
    /// Per engine (dataflow PE) instruction.
    pub engine_inst_pj: f64,
    /// Per L1 access.
    pub l1_pj: f64,
    /// Per L2 access.
    pub l2_pj: f64,
    /// Per LLC bank access.
    pub llc_pj: f64,
    /// Per directory lookup/update.
    pub dir_pj: f64,
    /// Per NoC flit-hop.
    pub noc_flit_hop_pj: f64,
    /// Per DRAM line (64 B) access.
    pub dram_line_pj: f64,
    /// Per memory-controller FIFO-cache hit.
    pub mc_cache_pj: f64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            // An OOO core burns ~0.25 nJ of dynamic energy per retired
            // instruction (fetch/decode/rename/issue overheads dominate);
            // the dataflow engines are ~30x cheaper per op [60, 66].
            core_inst_pj: 250.0,
            engine_inst_pj: 8.0,
            l1_pj: 10.0,
            l2_pj: 30.0,
            llc_pj: 100.0,
            dir_pj: 10.0,
            noc_flit_hop_pj: 15.0,
            dram_line_pj: 15_000.0,
            mc_cache_pj: 50.0,
        }
    }
}

/// Complete machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of tiles (= cores = LLC banks). Must be a power of two whose
    /// square root is an integer or a 2:1 rectangle (mesh layout).
    pub tiles: u32,
    /// L1 data cache (per tile).
    pub l1: CacheConfig,
    /// L2 cache (per tile, private).
    pub l2: CacheConfig,
    /// LLC bank (per tile, shared & inclusive).
    pub llc: CacheConfig,
    /// Core model.
    pub core: CoreConfig,
    /// Engine model (one engine at the L2 and one at the LLC bank of every
    /// tile).
    pub engine: EngineConfig,
    /// NoC model.
    pub noc: NocConfig,
    /// Memory system.
    pub mem: MemConfig,
    /// Energy parameters.
    pub energy: EnergyConfig,
    /// Enable the L2 strided prefetcher.
    pub prefetcher: bool,
    /// Degree (lines fetched ahead) of the strided prefetcher.
    pub prefetch_degree: u32,
    /// Run-ahead quantum: how many cycles an actor may advance past the
    /// global clock before yielding. Smaller is more accurate, larger is
    /// faster.
    pub quantum: u64,
    /// Enable the structured event tracer ([`crate::trace::Tracer`]).
    /// Observational only: recorded cycles are identical either way.
    pub trace: bool,
    /// Ring-buffer capacity (events) when tracing is enabled.
    pub trace_capacity: usize,
    /// Also record invoke-scheduler decisions
    /// ([`TraceCategory::Sched`](crate::trace::TraceCategory)): placement
    /// (`sched.place`), NACKs (`sched.nack`), and the 1/32 migrate-local
    /// policy (`sched.migrate_local`). Off by default — and gated
    /// separately from [`MachineConfig::trace`] — so default traced runs
    /// stay byte-identical across simulator versions. Has no effect
    /// unless `trace` is also enabled.
    pub trace_sched: bool,
    /// Record causal invoke-lifecycle spans
    /// ([`crate::span::SpanTable`]): per-invoke stage cycle marks for the
    /// post-run critical-path analyzer, plus `span.*` stage events in the
    /// tracer (when `trace` is also on) joined by Perfetto flow arrows.
    /// Off by default — and gated separately from
    /// [`MachineConfig::trace`] — so default runs (traced or not) stay
    /// byte-identical across simulator versions. The span table retains
    /// at most [`crate::span::DEFAULT_SPAN_CAPACITY`] spans.
    pub trace_spans: bool,
    /// Time-series sampling interval in cycles
    /// ([`crate::stats::TimeSeries`]); 0 disables sampling.
    pub sample_interval: u64,
    /// Deterministic fault-injection schedule
    /// ([`crate::fault::FaultPlan`]); `None` (the default) injects nothing
    /// and leaves every simulator code path untouched.
    pub fault_plan: Option<FaultPlan>,
    /// Watchdog: abort the run with
    /// [`RunError::Watchdog`](crate::machine::RunError::Watchdog) if the
    /// simulated clock passes this many cycles. 0 (the default) disables
    /// the watchdog.
    pub max_cycles: u64,
    /// Take a full machine checkpoint every this many cycles (0, the
    /// default, disables checkpointing; the scheduler hook is then a
    /// single always-false compare). The most recent checkpoint is kept
    /// in [`Machine::last_checkpoint`](crate::Machine::last_checkpoint).
    pub checkpoint_every: u64,
    /// After a successful run that captured at least one mid-run
    /// checkpoint, restore a replica from the latest checkpoint, run it
    /// to completion, and fail with
    /// [`RunError::SnapshotDivergence`](crate::RunError) unless the
    /// replica's final cycle count and stats digest match the primary
    /// run exactly. Off by default; costs roughly one partial re-run.
    pub checkpoint_verify: bool,
    /// Address-translation model ([`crate::xlat`]): per-tile TLBs plus
    /// timed page walks charged through the NoC and DRAM. `None` (the
    /// default) leaves the probe paths untouched — a single predictable
    /// branch, like the checkpoint hook.
    pub xlat: Option<crate::xlat::XlatConfig>,
    /// Multi-tenant sharing ([`crate::xlat`]): tiles split into equal
    /// contiguous blocks that share the LLC and invoke engines under a
    /// [`TenantPolicy`](crate::xlat::TenantPolicy). `None` (the default)
    /// models a single tenant owning the machine.
    pub tenants: Option<crate::xlat::TenantConfig>,
}

impl MachineConfig {
    /// The paper's Table V configuration (16 tiles).
    pub fn paper_default() -> Self {
        Self::with_tiles(16)
    }

    /// Table V scaled to a different tile count (Fig. 25 sweeps this).
    pub fn with_tiles(tiles: u32) -> Self {
        assert!(tiles.is_power_of_two(), "tile count must be a power of two");
        MachineConfig {
            tiles,
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                latency: 2,
                replacement: Replacement::Lru,
            },
            l2: CacheConfig {
                size_bytes: 128 * 1024,
                ways: 8,
                latency: 6, // 2-cycle tag + 4-cycle data
                replacement: Replacement::Srrip,
            },
            llc: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 16,
                latency: 8, // 3-cycle tag + 5-cycle data
                replacement: Replacement::Srrip,
            },
            core: CoreConfig {
                issue_width: 4,
                mshrs: 10,
                mispredict_penalty: 14,
                predictor_bits: 12,
                invoke_buffer: 4,
                mul_latency: 3,
                div_latency: 20,
            },
            engine: EngineConfig {
                int_fus: 15,
                mem_fus: 10,
                pe_latency: 1,
                contexts: 32,
                l1d_bytes: 8 * 1024,
                l1d_latency: 1,
                idealized: false,
            },
            noc: NocConfig {
                flit_bits: 128,
                router_delay: 2,
                link_delay: 1,
            },
            mem: MemConfig {
                controllers: 4,
                latency: 100,
                cycles_per_line: 13,
                fifo_cache_lines: 32,
                fifo_hit_latency: 6,
            },
            energy: EnergyConfig::default(),
            prefetcher: true,
            prefetch_degree: 2,
            quantum: 64,
            trace: false,
            trace_capacity: crate::trace::DEFAULT_TRACE_CAPACITY,
            trace_sched: false,
            trace_spans: false,
            sample_interval: 0,
            fault_plan: None,
            max_cycles: 0,
            checkpoint_every: 0,
            checkpoint_verify: false,
            xlat: None,
            tenants: None,
        }
    }

    /// Mesh dimensions `(cols, rows)` for the tile count.
    pub fn mesh_dims(&self) -> (u32, u32) {
        let mut cols = 1u32;
        while cols * cols < self.tiles {
            cols *= 2;
        }
        let rows = self.tiles / cols;
        (cols, rows)
    }

    /// Total LLC capacity across banks.
    pub fn llc_total_bytes(&self) -> u64 {
        self.llc.size_bytes * self.tiles as u64
    }

    /// Switches both engines on every tile into idealized mode.
    pub fn idealized(mut self) -> Self {
        self.engine.idealized = true;
        self
    }

    /// Enables the structured event tracer (default ring capacity).
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables the tracer *and* the invoke-scheduler decision events
    /// (`sched.place` / `sched.nack` / `sched.migrate_local` in the
    /// `sched` category).
    pub fn sched_traced(mut self) -> Self {
        self.trace = true;
        self.trace_sched = true;
        self
    }

    /// Enables the tracer *and* causal invoke-lifecycle spans: the
    /// [`SpanTable`](crate::span::SpanTable) fills for the critical-path
    /// analyzer and `span.*` stage events land in the `span` trace
    /// category, flow-linked in the Perfetto export.
    pub fn span_traced(mut self) -> Self {
        self.trace = true;
        self.trace_spans = true;
        self
    }

    /// Enables time-series sampling every `interval` cycles.
    pub fn sampled(mut self, interval: u64) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Attaches a deterministic fault-injection plan.
    pub fn faulted(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the forward-progress watchdog: runs abort with
    /// [`RunError::Watchdog`](crate::machine::RunError::Watchdog) past
    /// `max_cycles` simulated cycles.
    pub fn watchdog(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Enables periodic checkpointing every `cycles` simulated cycles
    /// (0 disables it). See
    /// [`Machine::checkpoint`](crate::Machine::checkpoint).
    pub fn checkpoint_every(mut self, cycles: u64) -> Self {
        self.checkpoint_every = cycles;
        self
    }

    /// Enables post-run checkpoint verification: restore a replica from
    /// the latest mid-run checkpoint, run it to completion, and fail on
    /// any divergence from the primary run.
    pub fn checkpoint_verified(mut self) -> Self {
        self.checkpoint_verify = true;
        self
    }

    /// Enables the address-translation model: per-tile TLBs with timed
    /// page walks (see [`crate::xlat`]).
    pub fn xlat(mut self, x: crate::xlat::XlatConfig) -> Self {
        self.xlat = Some(x);
        self
    }

    /// Splits the machine between co-running tenants under the given
    /// sharing policy (see [`crate::xlat`]).
    pub fn tenants(mut self, t: crate::xlat::TenantConfig) -> Self {
        self.tenants = Some(t);
        self
    }

    /// Validates the configuration, returning a typed error describing the
    /// first offending field combination.
    ///
    /// [`Machine::try_new`](crate::Machine::try_new) runs this check and
    /// returns the error.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |what: String| Err(SimError::InvalidConfig { what });
        if self.tiles == 0 || !self.tiles.is_power_of_two() {
            return bad(format!("tile count {} must be a power of two", self.tiles));
        }
        for (name, c) in [("L1", &self.l1), ("L2", &self.l2), ("LLC", &self.llc)] {
            if c.ways == 0 {
                return bad(format!("{name} associativity must be positive"));
            }
            let set_bytes = LINE_SIZE * c.ways as u64;
            if c.size_bytes == 0 || c.size_bytes % set_bytes != 0 {
                return bad(format!(
                    "{name} size {} must be a positive multiple of line x ways ({set_bytes} B)",
                    c.size_bytes
                ));
            }
        }
        if self.core.issue_width == 0 {
            return bad("core issue width must be positive".to_string());
        }
        if self.core.mshrs == 0 {
            return bad("core MSHR count must be positive".to_string());
        }
        if self.core.invoke_buffer == 0 {
            return bad("invoke buffer must have at least one entry".to_string());
        }
        if self.engine.int_fus == 0 || self.engine.mem_fus == 0 {
            return bad("engine FU counts must be positive".to_string());
        }
        if self.engine.contexts == 0 {
            return bad("engine context count must be positive".to_string());
        }
        let e_set_bytes = LINE_SIZE * 4; // engine L1d is fixed 4-way
        if self.engine.l1d_bytes == 0 || !self.engine.l1d_bytes.is_multiple_of(e_set_bytes) {
            return bad(format!(
                "engine L1d size {} must be a positive multiple of {e_set_bytes} B",
                self.engine.l1d_bytes
            ));
        }
        if self.noc.flit_bits < 8 || !self.noc.flit_bits.is_multiple_of(8) {
            return bad(format!(
                "NoC flit width {} must be a positive multiple of 8 bits",
                self.noc.flit_bits
            ));
        }
        if self.mem.controllers == 0 {
            return bad("memory controller count must be positive".to_string());
        }
        if self.mem.cycles_per_line == 0 {
            return bad("DRAM cycles-per-line must be positive".to_string());
        }
        if self.quantum == 0 {
            return bad("run-ahead quantum must be positive".to_string());
        }
        if let Some(x) = &self.xlat {
            if x.page_bits < LINE_SHIFT || x.page_bits > 30 {
                return bad(format!(
                    "xlat page_bits {} must lie in {LINE_SHIFT}..=30 (line..1 GiB)",
                    x.page_bits
                ));
            }
            if x.tlb_ways == 0 || x.tlb_entries == 0 || !x.tlb_entries.is_multiple_of(x.tlb_ways) {
                return bad(format!(
                    "TLB geometry {}x{} ways must be positive with ways dividing entries",
                    x.tlb_entries, x.tlb_ways
                ));
            }
            if x.walk_levels == 0 || x.walk_levels > 6 {
                return bad(format!(
                    "xlat walk_levels {} must lie in 1..=6",
                    x.walk_levels
                ));
            }
        }
        if let Some(t) = &self.tenants {
            if !(1..=MAX_TENANTS).contains(&t.count) {
                return bad(format!(
                    "tenant count {} must lie in 1..={MAX_TENANTS}",
                    t.count
                ));
            }
            if !self.tiles.is_multiple_of(t.count) {
                return bad(format!(
                    "tenant count {} must divide the tile count {}",
                    t.count, self.tiles
                ));
            }
            if t.policy == crate::xlat::TenantPolicy::LlcWayPartition
                && !self.llc.ways.is_multiple_of(t.count)
            {
                return bad(format!(
                    "LLC way-partitioning needs tenant count {} to divide LLC ways {}",
                    t.count, self.llc.ways
                ));
            }
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate(self)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_v() {
        let cfg = MachineConfig::paper_default();
        assert_eq!(cfg.tiles, 16);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.ways, 8);
        assert_eq!(cfg.l2.size_bytes, 128 * 1024);
        assert_eq!(cfg.llc.size_bytes, 512 * 1024);
        assert_eq!(cfg.llc.ways, 16);
        assert_eq!(cfg.llc_total_bytes(), 8 * 1024 * 1024, "8 MB LLC");
        assert_eq!(cfg.mem.controllers, 4);
        assert_eq!(cfg.mem.latency, 100);
        assert_eq!(cfg.engine.int_fus, 15);
        assert_eq!(cfg.engine.mem_fus, 10);
        assert_eq!(cfg.engine.contexts, 32);
        assert_eq!(cfg.core.invoke_buffer, 4);
    }

    #[test]
    fn mesh_dims_square_and_rect() {
        assert_eq!(MachineConfig::with_tiles(16).mesh_dims(), (4, 4));
        assert_eq!(MachineConfig::with_tiles(64).mesh_dims(), (8, 8));
        assert_eq!(MachineConfig::with_tiles(8).mesh_dims(), (4, 2));
        assert_eq!(MachineConfig::with_tiles(4).mesh_dims(), (2, 2));
        assert_eq!(MachineConfig::with_tiles(32).mesh_dims(), (8, 4));
    }

    #[test]
    fn cache_geometry() {
        let cfg = MachineConfig::paper_default();
        assert_eq!(cfg.l1.sets(), 64);
        assert_eq!(cfg.l1.lines(), 512);
        assert_eq!(cfg.llc.sets(), 512);
        assert_eq!(cfg.llc.lines(), 8192, "8K lines per bank (Table IV)");
    }

    #[test]
    fn idealized_flag() {
        let cfg = MachineConfig::paper_default().idealized();
        assert!(cfg.engine.idealized);
    }

    #[test]
    fn tracing_builders() {
        let cfg = MachineConfig::with_tiles(4);
        assert!(!cfg.trace && !cfg.trace_sched && !cfg.trace_spans);
        let cfg = MachineConfig::with_tiles(4).span_traced();
        assert!(cfg.trace && cfg.trace_spans && !cfg.trace_sched);
        let cfg = MachineConfig::with_tiles(4).sched_traced();
        assert!(cfg.trace && cfg.trace_sched && !cfg.trace_spans);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_tiles_rejected() {
        MachineConfig::with_tiles(12);
    }

    #[test]
    fn validate_accepts_defaults_and_catches_bad_fields() {
        assert!(MachineConfig::paper_default().validate().is_ok());
        assert!(MachineConfig::with_tiles(4).idealized().validate().is_ok());

        let mut cfg = MachineConfig::with_tiles(4);
        cfg.core.invoke_buffer = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("invoke buffer"), "{err}");

        let mut cfg = MachineConfig::with_tiles(4);
        cfg.quantum = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::with_tiles(4);
        cfg.l1.size_bytes = 1000; // not a multiple of line x ways
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::with_tiles(4);
        cfg.noc.flit_bits = 12;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::with_tiles(4);
        cfg.mem.controllers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_plan_builder_and_validation() {
        use crate::fault::{CycleWindow, FaultPlan};
        let cfg = MachineConfig::with_tiles(4)
            .faulted(FaultPlan::new(7).add_invoke_squeeze(CycleWindow::new(0, 100), 1))
            .watchdog(1_000_000);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.max_cycles, 1_000_000);
        assert_eq!(cfg.fault_plan.as_ref().unwrap().seed, 7);

        // An invalid plan makes the whole config invalid.
        let cfg = MachineConfig::with_tiles(4).faulted(FaultPlan::new(0).add_dram_fault(
            99,
            CycleWindow::new(0, 10),
            2,
        ));
        assert!(cfg.validate().is_err());
    }
}
