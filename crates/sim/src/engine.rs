//! Near-data engine hardware model.
//!
//! Every tile has two engines (paper Sec. VII: "our simulator models
//! engines at both the L2 and LLC bank"). An engine is a dataflow fabric:
//! instructions issue when their operands are ready, subject to per-cycle
//! functional-unit limits (15 integer + 10 memory FUs by default), plus a
//! small coherent L1d, an rTLB, and a task-context buffer.

use std::fmt;

use levi_isa::codec::Fixed;

use crate::cache::CacheBank;
use crate::config::{CacheConfig, EngineConfig, Replacement};

/// Which of a tile's two engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EngineLevel {
    /// The engine attached to the tile's private L2.
    L2,
    /// The engine attached to the tile's LLC bank.
    Llc,
}

/// Identifies one engine: a tile and a level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EngineId {
    /// Tile index.
    pub tile: u32,
    /// L2 or LLC engine.
    pub level: EngineLevel,
}

impl EngineId {
    /// Flat index for `2 * tiles` storage (L2 engines first per tile).
    pub fn index(self) -> usize {
        self.tile as usize * 2
            + match self.level {
                EngineLevel::L2 => 0,
                EngineLevel::Llc => 1,
            }
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine[{}.{:?}]", self.tile, self.level)
    }
}

/// Per-cycle resource reservation cursor.
///
/// Models "at most `limit` operations per cycle" for a resource whose
/// reservations arrive in roughly (but not exactly) increasing time order:
/// requests earlier than the cursor are granted optimistically at their own
/// time, which keeps the model deterministic and monotonic per resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuCursor {
    cycle: u64,
    used: u32,
    limit: u32,
}

impl FuCursor {
    /// Creates a cursor with the given per-cycle limit.
    ///
    /// # Panics
    /// Panics if `limit` is zero.
    pub fn new(limit: u32) -> Self {
        assert!(limit > 0, "FU limit must be positive");
        FuCursor {
            cycle: 0,
            used: 0,
            limit,
        }
    }

    /// Reserves one slot at or after `t`; returns the granted cycle.
    pub fn reserve(&mut self, t: u64) -> u64 {
        if t > self.cycle {
            self.cycle = t;
            self.used = 1;
            t
        } else {
            // Late (out-of-order) requests are granted at the cursor.
            if self.used < self.limit {
                self.used += 1;
                self.cycle
            } else {
                self.cycle += 1;
                self.used = 1;
                self.cycle
            }
        }
    }

    /// How many late grants (requests at or before the cursor) are still
    /// granted a cycle earlier than `t`: `t·W − (cycle·W + used)`, floored
    /// at zero.
    pub(crate) fn late_grants_before(&self, t: u64) -> u64 {
        let limit = self.limit as u64;
        (t * limit).saturating_sub(self.cycle * limit + self.used as u64)
    }

    /// Applies `n` late grants at once: the state `n` calls to
    /// [`FuCursor::reserve`] with a request time at or before the cursor
    /// leave behind.
    pub(crate) fn skip_late_grants(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let limit = self.limit as u64;
        let pos = self.used as u64 + n - 1;
        self.cycle += pos / limit;
        self.used = (pos % limit) as u32 + 1;
    }
}

/// Sliding-window per-cycle FU reservation.
///
/// Unlike [`FuCursor`], which is strictly monotonic, `WindowFu` keeps a
/// short history window so requests that arrive out of order (inline
/// actions and offloaded tasks interleave non-monotonically) can fill idle
/// slots in the recent past instead of being pushed behind the newest
/// reservation.
#[derive(Clone, Debug)]
pub struct WindowFu {
    start: u64,
    used: Vec<u16>,
    limit: u32,
}

/// History window length in cycles.
const FU_WINDOW: usize = 1024;

impl WindowFu {
    /// Creates a window with the given per-cycle limit.
    ///
    /// # Panics
    /// Panics if `limit` is zero.
    pub fn new(limit: u32) -> Self {
        assert!(limit > 0);
        WindowFu {
            start: 0,
            used: vec![0; FU_WINDOW],
            limit,
        }
    }

    /// Reserves one slot at or after `t`; returns the granted cycle.
    pub fn reserve(&mut self, t: u64) -> u64 {
        let mut t = t.max(self.start);
        loop {
            // Slide the window forward if `t` runs past it.
            if t >= self.start + FU_WINDOW as u64 {
                let new_start = t - (FU_WINDOW as u64) / 2;
                // Cycles `start..new_start` leave the window: free their
                // slots, a ring range that wraps at most once.
                let gone = (new_start - self.start).min(FU_WINDOW as u64) as usize;
                let from = (self.start % FU_WINDOW as u64) as usize;
                let wrap = (from + gone).saturating_sub(FU_WINDOW);
                self.used[from..from + gone - wrap].fill(0);
                self.used[..wrap].fill(0);
                self.start = new_start;
            }
            let slot = &mut self.used[(t % FU_WINDOW as u64) as usize];
            if (*slot as u32) < self.limit {
                *slot += 1;
                return t;
            }
            t += 1;
        }
    }
}

/// Timing and resource state of one engine.
#[derive(Clone, Debug)]
pub struct EngineState {
    /// This engine's identity.
    pub id: EngineId,
    /// Integer-FU issue window.
    pub int_fus: WindowFu,
    /// Memory-FU issue window.
    pub mem_fus: WindowFu,
    /// The engine's small coherent L1d.
    pub l1d: CacheBank,
    /// L1d hit latency.
    pub l1d_latency: u64,
    /// Per-PE latency.
    pub pe_latency: u64,
    /// Free task contexts for *offloaded* tasks (half the context buffer;
    /// the other half is reserved for data-triggered actions, which this
    /// model executes inline — see DESIGN.md).
    pub offload_ctxs_free: u32,
    /// Total offloaded-task context capacity.
    pub offload_ctxs_cap: u32,
    /// True when the engine is idealized (0-cycle, unlimited FUs, free).
    pub idealized: bool,
}

impl EngineState {
    /// Builds an engine from the config.
    pub fn new(id: EngineId, cfg: &EngineConfig) -> Self {
        let l1_cfg = CacheConfig {
            size_bytes: cfg.l1d_bytes,
            ways: 4,
            latency: cfg.l1d_latency,
            replacement: Replacement::Lru,
        };
        let offload = (cfg.contexts / 2).max(1);
        EngineState {
            id,
            int_fus: WindowFu::new(cfg.int_fus),
            mem_fus: WindowFu::new(cfg.mem_fus),
            l1d: CacheBank::new(&l1_cfg),
            l1d_latency: cfg.l1d_latency,
            pe_latency: cfg.pe_latency,
            offload_ctxs_free: offload,
            offload_ctxs_cap: offload,
            idealized: cfg.idealized,
        }
    }

    /// Reserves an integer FU slot at or after `t`.
    pub fn reserve_int(&mut self, t: u64) -> u64 {
        if self.idealized {
            t
        } else {
            self.int_fus.reserve(t)
        }
    }

    /// Reserves a memory FU slot at or after `t`.
    pub fn reserve_mem(&mut self, t: u64) -> u64 {
        if self.idealized {
            t
        } else {
            self.mem_fus.reserve(t)
        }
    }

    /// Instruction latency through a PE.
    pub fn latency(&self) -> u64 {
        if self.idealized {
            0
        } else {
            self.pe_latency
        }
    }

    /// Tries to reserve an offloaded-task context; returns false (NACK) if
    /// none is free. Idealized engines have unlimited contexts.
    pub fn try_reserve_ctx(&mut self) -> bool {
        if self.idealized {
            return true;
        }
        if self.offload_ctxs_free > 0 {
            self.offload_ctxs_free -= 1;
            true
        } else {
            false
        }
    }

    /// Releases an offloaded-task context.
    pub fn release_ctx(&mut self) {
        if self.idealized {
            return;
        }
        assert!(
            self.offload_ctxs_free < self.offload_ctxs_cap,
            "context double-release on {}",
            self.id
        );
        self.offload_ctxs_free += 1;
    }

    /// Offloaded-task contexts currently occupied (for occupancy sampling).
    pub fn ctxs_in_use(&self) -> u32 {
        self.offload_ctxs_cap - self.offload_ctxs_free
    }
}

levi_isa::codec_enum!(EngineLevel "engine level" { 0 => L2, 1 => Llc });
levi_isa::codec_struct!(EngineId { tile, level });
levi_isa::codec_struct! {
    FuCursor { cycle, used, limit }
    ensure limit != 0 => "fu cursor limit";
}
levi_isa::codec_struct! {
    in_place WindowFu { start, limit, used: Fixed("fu window length") }
    ensure *limit != 0 => "fu window limit";
}
// Identity and static parameters come from the config at restore time.
levi_isa::codec_struct! {
    in_place EngineState { int_fus, mem_fus, l1d, offload_ctxs_free }
    kept { id, l1d_latency, pe_latency, offload_ctxs_cap, idealized }
    ensure offload_ctxs_free <= offload_ctxs_cap => "engine free contexts";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn engine_id_indexing() {
        let a = EngineId {
            tile: 0,
            level: EngineLevel::L2,
        };
        let b = EngineId {
            tile: 0,
            level: EngineLevel::Llc,
        };
        let c = EngineId {
            tile: 3,
            level: EngineLevel::L2,
        };
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 6);
    }

    #[test]
    fn fu_cursor_limits_per_cycle() {
        let mut fu = FuCursor::new(2);
        assert_eq!(fu.reserve(10), 10);
        assert_eq!(fu.reserve(10), 10);
        assert_eq!(fu.reserve(10), 11, "third op in cycle 10 spills to 11");
        assert_eq!(fu.reserve(11), 11, "cycle 11 has one free slot");
        assert_eq!(fu.reserve(11), 12, "cycle 11 now full");
        assert_eq!(fu.reserve(20), 20);
    }

    #[test]
    fn fu_cursor_late_requests_granted_at_cursor() {
        let mut fu = FuCursor::new(1);
        assert_eq!(fu.reserve(100), 100);
        // A request "in the past" is granted at/after the cursor.
        let t = fu.reserve(50);
        assert!(t >= 100);
    }

    #[test]
    fn late_grant_closed_forms_match_reserve() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x1e57);
        for _ in 0..2_000 {
            let limit = rng.gen_range(1u32..9);
            let mut fu = FuCursor::new(limit);
            // Reach a sampled (cycle, used) state, then a sampled target.
            for _ in 0..rng.gen_range(0u32..40) {
                fu.reserve(rng.gen_range(0u64..64));
            }
            let t = rng.gen_range(0u64..96);
            let n = rng.gen_range(0u64..200);

            let mut refused = 0;
            let mut stepped = fu;
            while stepped.reserve(0) < t {
                refused += 1;
            }
            assert_eq!(fu.late_grants_before(t), refused, "{fu:?} before {t}");

            let mut stepped = fu;
            for _ in 0..n {
                stepped.reserve(0);
            }
            let mut skipped = fu;
            skipped.skip_late_grants(n);
            assert_eq!(skipped, stepped, "{fu:?} after {n} grants");
        }
    }

    /// The window slide frees exactly the slots the per-cycle loop it
    /// replaced did: grants and window state agree on sampled request
    /// streams that mix nearby requests with jumps past the window.
    #[test]
    fn window_slide_matches_per_cycle_reference() {
        fn reference_reserve(fu: &mut WindowFu, t: u64) -> u64 {
            let w = FU_WINDOW as u64;
            let mut t = t.max(fu.start);
            loop {
                if t >= fu.start + w {
                    let new_start = t - w / 2;
                    for c in fu.start..new_start.min(fu.start + w) {
                        fu.used[(c % w) as usize] = 0;
                    }
                    if new_start >= fu.start + w {
                        fu.used.iter_mut().for_each(|u| *u = 0);
                    }
                    fu.start = new_start;
                }
                let slot = &mut fu.used[(t % w) as usize];
                if (*slot as u32) < fu.limit {
                    *slot += 1;
                    return t;
                }
                t += 1;
            }
        }
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x5115e);
        let mut slides = 0;
        for _ in 0..200 {
            let limit = rng.gen_range(1u32..5);
            let (mut fu, mut reference) = (WindowFu::new(limit), WindowFu::new(limit));
            let mut t = 0u64;
            for _ in 0..400 {
                t += match rng.gen_range(0u32..10) {
                    0 => rng.gen_range(0u64..4 * FU_WINDOW as u64),
                    1 => rng.gen_range(FU_WINDOW as u64 / 2..FU_WINDOW as u64 + 64),
                    _ => rng.gen_range(0u64..8),
                };
                let ask = t.saturating_sub(rng.gen_range(0u64..64));
                let start = fu.start;
                assert_eq!(fu.reserve(ask), reference_reserve(&mut reference, ask));
                assert_eq!((fu.start, &fu.used), (reference.start, &reference.used));
                slides += u32::from(fu.start != start);
            }
        }
        assert!(slides > 1000, "only {slides} slides sampled");
    }

    #[test]
    fn context_reservation() {
        let cfg = MachineConfig::paper_default().engine;
        let id = EngineId {
            tile: 0,
            level: EngineLevel::Llc,
        };
        let mut e = EngineState::new(id, &cfg);
        assert_eq!(e.offload_ctxs_cap, 16, "half of 32 contexts for offload");
        for _ in 0..16 {
            assert!(e.try_reserve_ctx());
        }
        assert!(!e.try_reserve_ctx(), "17th reservation NACKs");
        e.release_ctx();
        assert!(e.try_reserve_ctx());
    }

    #[test]
    fn idealized_engine_is_free() {
        let mut cfg = MachineConfig::paper_default().engine;
        cfg.idealized = true;
        let id = EngineId {
            tile: 1,
            level: EngineLevel::L2,
        };
        let mut e = EngineState::new(id, &cfg);
        assert_eq!(e.reserve_int(7), 7);
        assert_eq!(e.reserve_int(7), 7, "no FU limit");
        assert_eq!(e.latency(), 0);
        for _ in 0..1000 {
            assert!(e.try_reserve_ctx(), "unlimited contexts");
        }
    }

    #[test]
    #[should_panic(expected = "double-release")]
    fn context_double_release_panics() {
        let cfg = MachineConfig::paper_default().engine;
        let id = EngineId {
            tile: 0,
            level: EngineLevel::L2,
        };
        let mut e = EngineState::new(id, &cfg);
        e.release_ctx();
    }
}
