//! The hardware core of the simulator: the cache-hierarchy *walk*.
//!
//! Every memory access — from a core or an engine — is resolved by walking
//! the hierarchy synchronously, reserving contended resources (cache banks,
//! NoC links, DRAM controllers) at future times and updating cache and
//! directory state along the way. The walk is where Leviathan's
//! polymorphism lives: misses in Morph-registered phantom ranges trigger
//! constructor actions on the nearby engine instead of fetching from the
//! next level, and evictions of destructor-tagged lines trigger destructor
//! actions (paper Secs. V-B2, VI-B2).
//!
//! The walk is decomposed into four stages, one per submodule:
//!
//! * [`probe`](self) — the private-cache probes on the core and engine
//!   paths ([`Hw::access_core`], [`Hw::access_engine`]) plus the L2
//!   stride prefetcher,
//! * `directory` — the shared-LLC stage: bank lookup, in-tag directory
//!   coherence actions, and DRAM fetches,
//! * `phantom` — data-triggered fills: Morph constructor execution and
//!   the inline-action interpreter,
//! * `evict` — fills into the private hierarchy, victim handling at every
//!   level (writebacks, destructor dispatch), and range flushes.
//!
//! The submodules are an implementation detail: everything is a method on
//! [`Hw`], and the public paths (`crate::hw::Hw`, [`Walk`],
//! [`AccessKind`], the message-size constants) are unchanged from when
//! this was a single file.

mod directory;
mod evict;
mod phantom;
mod probe;

use levi_isa::Addr;

use crate::cache::CacheBank;
use crate::config::{MachineConfig, LINE_SHIFT};
use crate::dram::{Dram, Translator};
use crate::engine::{EngineId, EngineLevel, EngineState};
use crate::error::SimError;
use crate::fault::FaultState;
use crate::ndc::{MorphLevel, NdcState, WaitCond};
use crate::noc::Noc;
use crate::stats::Stats;
use crate::trace::Tracer;

/// Control message payload bytes (request headers, invalidations, acks).
pub const CTRL_MSG: u32 = 16;
/// Data message payload bytes (a line plus header).
pub const DATA_MSG: u32 = 72;
/// Invalidation message bytes.
pub const INVAL_MSG: u32 = 8;

/// What an access wants from the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Read (shared permission suffices).
    Read,
    /// Write (requires ownership; write-allocate).
    Write,
    /// Atomic read-modify-write (requires ownership).
    Rmw,
}

impl AccessKind {
    /// True if the access needs exclusive ownership.
    pub fn wants_ownership(self) -> bool {
        !matches!(self, AccessKind::Read)
    }
}

/// Result of a walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Walk {
    /// The access completes at this cycle.
    Done {
        /// Completion cycle.
        at: u64,
    },
    /// The access cannot proceed; the context must park on the condition.
    Blocked(WaitCond),
}

/// Per-tile stride prefetcher state (L2, degree-N).
#[derive(Clone, Copy, Debug, Default)]
pub struct StridePf {
    last_line: u64,
    stride: i64,
    confidence: u8,
}

impl StridePf {
    /// Observes a miss line; returns a confirmed stride if confident.
    pub(crate) fn observe(&mut self, line: u64) -> Option<i64> {
        let stride = line as i64 - self.last_line as i64;
        if stride != 0 && stride == self.stride {
            self.confidence = (self.confidence + 1).min(3);
        } else {
            self.stride = stride;
            self.confidence = 0;
        }
        self.last_line = line;
        if self.confidence >= 2 && self.stride.abs() <= 8 {
            Some(self.stride)
        } else {
            None
        }
    }
}

/// All hardware state below the execution contexts.
#[derive(Debug)]
pub struct Hw {
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Per-tile L1 data caches.
    pub l1: Vec<CacheBank>,
    /// Per-tile private L2 caches.
    pub l2: Vec<CacheBank>,
    /// Per-tile LLC banks (shared, inclusive, with in-tag directory).
    pub llc: Vec<CacheBank>,
    /// Engines, two per tile (see [`EngineId::index`]).
    pub engines: Vec<EngineState>,
    /// The mesh NoC.
    pub noc: Noc,
    /// DRAM subsystem.
    pub dram: Dram,
    /// Cache↔DRAM compaction translator.
    pub translator: Translator,
    /// NDC architectural state.
    pub ndc: NdcState,
    /// Statistics.
    pub stats: Stats,
    /// Injected-fault state (engine refusal windows, invoke squeezes, and
    /// the retry/backoff policy). Empty unless the config carried a
    /// [`crate::fault::FaultPlan`].
    pub faults: FaultState,
    /// Address-translation state (per-tile TLBs); `None` unless the
    /// config enabled [`crate::xlat`].
    pub xlat: Option<crate::xlat::XlatState>,
    /// Derived tenant topology; `None` unless the config enabled
    /// multi-tenant sharing.
    pub tenants: Option<crate::xlat::TenantMap>,
    /// A fatal simulation error raised mid-actor (e.g. an invoke of an
    /// unregistered action); `Machine::run` drains it into
    /// `RunError::Fault`.
    pub(crate) fatal: Option<SimError>,
    /// Per-tile prefetchers.
    prefetchers: Vec<StridePf>,
    /// Lines with in-flight fills (MSHR/line-buffer protection): never
    /// chosen as victims while a walk that fills them is in progress.
    pins: Vec<u64>,
    /// Nesting depth of inline (data-triggered) action execution.
    inline_depth: u32,
    /// The register state inline actions share, all zero between actions;
    /// `None` only while one runs. Never serialized.
    inline_regs: Option<Box<phantom::InlineRegs>>,
    /// Destructor work deferred from within inline actions (the engine's
    /// actor buffer): drained iteratively once the current action ends,
    /// preventing unbounded eviction cascades.
    pending_dtors: Vec<PendingDtor>,
    /// Scratch arena for drained lines in `flush_range` — reused across
    /// calls so flushes don't allocate. Always empty between calls; never
    /// serialized.
    scratch_lines: Vec<crate::cache::Line>,
    /// Scratch arena for the sorted dirty-line set in `flush_range`. Always
    /// empty between calls; never serialized.
    scratch_dirty: Vec<u64>,
}

/// A deferred destructor invocation (see [`Hw::pending_dtors`]).
#[derive(Clone, Copy, Debug)]
struct PendingDtor {
    eid: EngineId,
    line: u64,
    dirty: bool,
    at: u64,
    level: MorphLevel,
    home: u32,
}

impl Hw {
    /// Builds the hardware from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let tiles = cfg.tiles as usize;
        let (cols, rows) = cfg.mesh_dims();
        let mut engines = Vec::with_capacity(tiles * 2);
        for t in 0..cfg.tiles {
            engines.push(EngineState::new(
                EngineId {
                    tile: t,
                    level: EngineLevel::L2,
                },
                &cfg.engine,
            ));
            engines.push(EngineState::new(
                EngineId {
                    tile: t,
                    level: EngineLevel::Llc,
                },
                &cfg.engine,
            ));
        }
        let mut stats = Stats::new();
        stats.trace = Tracer::new(cfg.trace);
        stats.spans = crate::span::SpanTable::new(cfg.trace, crate::span::DEFAULT_SPAN_CAPACITY);
        stats.timeline = crate::stats::TimeSeries::new(cfg.sample_interval);
        let mut noc = Noc::new(cols, rows, cfg.noc);
        let mut dram = Dram::new(cfg.mem);
        let mut faults = FaultState::default();
        if let Some(plan) = &cfg.fault_plan {
            noc.install_faults(plan.link_faults.clone());
            dram.install_faults(plan.dram_faults.clone());
            stats.faults_injected = plan.total_faults();
            faults = FaultState::from_plan(plan);
        }
        let xlat = cfg.xlat.map(|x| crate::xlat::XlatState::new(x, cfg.tiles));
        let tenants = cfg
            .tenants
            .as_ref()
            .map(|t| crate::xlat::TenantMap::new(t, &cfg));
        if let Some(tm) = &tenants {
            stats.tenant_llc_misses = vec![0; tm.count as usize];
            stats.tenant_invokes = vec![0; tm.count as usize];
            stats.tenant_finish = vec![0; tm.count as usize];
        }
        Hw {
            l1: (0..tiles).map(|_| CacheBank::new(&cfg.l1)).collect(),
            l2: (0..tiles).map(|_| CacheBank::new(&cfg.l2)).collect(),
            llc: (0..tiles).map(|_| CacheBank::new(&cfg.llc)).collect(),
            engines,
            noc,
            dram,
            translator: Translator::new(),
            ndc: NdcState::default(),
            stats,
            faults,
            xlat,
            tenants,
            fatal: None,
            prefetchers: vec![StridePf::default(); tiles],
            pins: Vec::new(),
            inline_depth: 0,
            inline_regs: Some(phantom::InlineRegs::new()),
            pending_dtors: Vec::new(),
            scratch_lines: Vec::new(),
            scratch_dirty: Vec::new(),
            cfg,
        }
    }

    /// Takes a time-series sample if one is due at cycle `now`, reading
    /// instantaneous engine-context occupancy and stream buffer depth.
    pub fn maybe_sample(&mut self, now: u64) {
        if !self.stats.timeline.due(now) {
            return;
        }
        let ctxs: u32 = self.engines.iter().map(|e| e.ctxs_in_use()).sum();
        let depth = self.ndc.buffered_entries();
        self.stats.take_sample(now, ctxs, depth);
    }

    /// Pins `line` against eviction for the duration of a walk.
    fn pin(&mut self, line: u64) {
        self.pins.push(line);
    }

    /// Releases the most recent pin.
    fn unpin(&mut self) {
        self.pins.pop().expect("unbalanced unpin");
    }

    /// The LLC bank holding `addr`, honoring Leviathan's bank-mapping
    /// overrides for large objects.
    pub fn bank_of(&self, addr: Addr) -> u32 {
        let line = addr >> LINE_SHIFT;
        let ignore = self.ndc.bank_ignore_bits(addr);
        ((line >> ignore) % self.cfg.tiles as u64) as u32
    }
}

levi_isa::codec_struct!(StridePf {
    last_line,
    stride,
    confidence,
});
levi_isa::codec_struct!(PendingDtor {
    eid,
    line,
    dirty,
    at,
    level,
    home,
});
// The `HWPR` section (see [`crate::snapshot`]): the private fields. Of the
// `kept` ones, the public members have sections of their own, and the rest
// are config-derived or empty between actions.
levi_isa::codec_struct! {
    in_place Hw {
        prefetchers: levi_isa::codec::Fixed("prefetcher count"),
        pins,
        inline_depth,
        pending_dtors,
    }
    kept {
        cfg, l1, l2, llc, engines, noc, dram, translator, ndc, stats, faults, xlat,
        tenants, fatal, inline_regs, scratch_lines, scratch_dirty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PrivState;
    use crate::config::LINE_SIZE;
    use levi_isa::{Memory, PagedMem};

    fn hw() -> Hw {
        let mut cfg = MachineConfig::paper_default();
        cfg.prefetcher = false;
        Hw::new(cfg)
    }

    fn done(w: Walk) -> u64 {
        match w {
            Walk::Done { at } => at,
            Walk::Blocked(c) => panic!("unexpectedly blocked: {c:?}"),
        }
    }

    #[test]
    fn first_access_misses_to_dram_then_hits_l1() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        let t1 = done(h.access_core(&mut mem, 0, AccessKind::Read, 0x1000, 0, true));
        assert!(t1 >= h.cfg.mem.latency, "cold miss reaches DRAM: {t1}");
        assert_eq!(h.stats.dram_accesses, 1);
        let t2 = done(h.access_core(&mut mem, 0, AccessKind::Read, 0x1008, t1, true));
        assert_eq!(t2, t1 + h.cfg.l1.latency, "same line now hits L1");
        assert_eq!(h.stats.l1.hits, 1);
    }

    #[test]
    fn read_read_shares_write_invalidates() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        let addr = 0x2000;
        done(h.access_core(&mut mem, 0, AccessKind::Read, addr, 0, true));
        done(h.access_core(&mut mem, 1, AccessKind::Read, addr, 1000, true));
        let bank = h.bank_of(addr) as usize;
        let line = addr >> LINE_SHIFT;
        let l = h.llc[bank].peek(line).unwrap();
        assert_eq!(l.sharers & 0b11, 0b11, "both tiles share");
        assert_eq!(h.stats.invalidations, 0);

        done(h.access_core(&mut mem, 2, AccessKind::Write, addr, 2000, true));
        assert_eq!(h.stats.invalidations, 2, "both sharers invalidated");
        let l = h.llc[bank].peek(line).unwrap();
        assert_eq!(l.owner, Some(2));
        assert!(!h.l1[0].contains(line));
        assert!(!h.l2[1].contains(line));
    }

    #[test]
    fn rmw_ping_pong_transfers_ownership() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        let addr = 0x3000;
        done(h.access_core(&mut mem, 0, AccessKind::Rmw, addr, 0, true));
        done(h.access_core(&mut mem, 1, AccessKind::Rmw, addr, 1000, true));
        done(h.access_core(&mut mem, 0, AccessKind::Rmw, addr, 2000, true));
        assert!(h.stats.ownership_transfers >= 2, "ping-pong counted");
        assert!(h.stats.invalidations >= 2);
    }

    #[test]
    fn owned_then_remote_read_downgrades() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        let addr = 0x4000;
        done(h.access_core(&mut mem, 3, AccessKind::Write, addr, 0, true));
        done(h.access_core(&mut mem, 4, AccessKind::Read, addr, 1000, true));
        let bank = h.bank_of(addr) as usize;
        let line = addr >> LINE_SHIFT;
        let l = h.llc[bank].peek(line).unwrap();
        assert_eq!(l.owner, None, "owner downgraded");
        assert!(l.sharers & (1 << 3) != 0);
        assert!(l.sharers & (1 << 4) != 0);
        assert_eq!(
            h.l2[3].peek(line).unwrap().state,
            PrivState::Shared,
            "old owner now shared"
        );
    }

    #[test]
    fn engine_llc_access_local_vs_remote_bank() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        // Bank of 0x0000 line 0 -> bank 0.
        let local = EngineId {
            tile: 0,
            level: EngineLevel::Llc,
        };
        let t_local = done(h.access_engine(&mut mem, local, AccessKind::Read, 0x0, 0, true));
        // Line 1 -> bank 1: remote from tile 0's engine.
        let t_remote = done(h.access_engine(&mut mem, local, AccessKind::Read, 0x40, 0, true));
        assert!(
            t_remote > t_local,
            "remote bank access pays NoC: {t_local} vs {t_remote}"
        );
    }

    #[test]
    fn engine_l1d_caches_reads() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        let eid = EngineId {
            tile: 0,
            level: EngineLevel::Llc,
        };
        let t1 = done(h.access_engine(&mut mem, eid, AccessKind::Read, 0x0, 0, true));
        let t2 = done(h.access_engine(&mut mem, eid, AccessKind::Read, 0x8, t1, true));
        assert_eq!(t2, t1 + h.cfg.engine.l1d_latency);
        assert_eq!(h.stats.engine_l1.hits, 1);
    }

    #[test]
    fn default_ctor_zero_fills_phantom() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        // Pre-pollute memory so the zero-fill is observable.
        mem.write_u64(0x10_0000, 0xDEAD);
        h.ndc.register_morph(crate::ndc::MorphRegion {
            base: 0x10_0000,
            bound: 0x10_1000,
            level: MorphLevel::Llc,
            obj_size: 8,
            ctor: None,
            dtor: None,
            view: 0,
            stream: None,
        });
        let eid = EngineId {
            tile: h.bank_of(0x10_0000),
            level: EngineLevel::Llc,
        };
        let _ = eid;
        done(h.access_engine(
            &mut mem,
            EngineId {
                tile: h.bank_of(0x10_0000),
                level: EngineLevel::Llc,
            },
            AccessKind::Rmw,
            0x10_0000,
            0,
            true,
        ));
        assert_eq!(mem.read_u64(0x10_0000), 0, "constructor zero-filled");
        assert!(h.stats.ctor_actions >= 1);
        assert_eq!(h.stats.dram_accesses, 0, "phantom data never touches DRAM");
    }

    #[test]
    fn bank_mapping_keeps_multiline_object_together() {
        let mut h = hw();
        let base = 0x20_0000u64;
        // Without mapping, lines 0 and 1 of an object go to different banks.
        assert_ne!(h.bank_of(base), h.bank_of(base + 64));
        h.ndc.bank_maps.push(crate::ndc::BankMapRange {
            base,
            bound: base + 0x1000,
            ignore_line_bits: 1,
        });
        assert_eq!(h.bank_of(base), h.bank_of(base + 64));
        assert_ne!(h.bank_of(base), h.bank_of(base + 128));
    }

    #[test]
    fn flush_runs_destructors_for_tagged_lines() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        h.ndc.register_morph(crate::ndc::MorphRegion {
            base: 0x30_0000,
            bound: 0x30_1000,
            level: MorphLevel::Llc,
            obj_size: 8,
            ctor: None,
            dtor: None,
            view: 0,
            stream: None,
        });
        let eid = EngineId {
            tile: h.bank_of(0x30_0000),
            level: EngineLevel::Llc,
        };
        done(h.access_engine(&mut mem, eid, AccessKind::Write, 0x30_0000, 0, true));
        let bank = h.bank_of(0x30_0000) as usize;
        assert!(h.llc[bank].contains(0x30_0000 >> LINE_SHIFT));
        h.flush_range(&mut mem, 0x30_0000, 0x1000, 100);
        assert!(!h.llc[bank].contains(0x30_0000 >> LINE_SHIFT));
    }

    #[test]
    fn llc_capacity_eviction_writes_back_dirty() {
        let mut h = hw();
        let mut mem = PagedMem::new();
        // Fill one LLC set beyond capacity with dirty lines from tile 0.
        // Set index repeats every sets*banks lines for bank 0.
        let sets = h.cfg.llc.sets();
        let stride = sets * h.cfg.tiles as u64 * LINE_SIZE; // same bank, same set
        let mut t = 0;
        for i in 0..(h.cfg.llc.ways as u64 + 2) {
            let addr = 0x100_0000 + i * stride;
            assert_eq!(h.bank_of(addr), h.bank_of(0x100_0000));
            t = done(h.access_core(&mut mem, 0, AccessKind::Write, addr, t, true)) + 1;
        }
        assert!(h.stats.llc.writebacks >= 1, "dirty victims written back");
        assert!(
            h.stats.dram_accesses > h.cfg.llc.ways as u64,
            "writebacks reach DRAM"
        );
    }
}
