//! levi-xlat: address translation and multi-tenant sharing.
//!
//! Leviathan's evaluation (like most NDC papers) assumes translation is
//! free and a single tenant owns the cache hierarchy. This module models
//! both effects so their cost can be ablated:
//!
//! * **Translation** ([`XlatConfig`], [`XlatState`]): an optional per-tile
//!   TLB in front of the private-cache probe paths. A TLB hit is folded
//!   into the L1 probe (0 extra cycles); a miss triggers a radix page walk
//!   whose per-level page-table references are charged through the *real*
//!   NoC and DRAM timing paths — each level sends a control message to the
//!   page-table line's controller, performs a DRAM line access (the
//!   per-controller FIFO line cache absorbs upper-level locality exactly
//!   like a hardware walk cache), and pays a fixed walker latency.
//! * **Tenancy** ([`TenantConfig`], [`TenantMap`]): the machine's tiles are
//!   split into equal contiguous blocks, one per tenant, which co-run and
//!   share the LLC and invoke engines under a pluggable
//!   [`TenantPolicy`] — unpartitioned interference, LLC way-partitioning
//!   (each tenant's demand fills may only displace its own share of a
//!   set), or engine-slot quotas (a tenant invoking an engine it does not
//!   own NACKs once the engine is `quota`-full, reserving headroom for the
//!   owner).
//!
//! Both features follow the zero-cost disabled pattern (DESIGN.md §9): when
//! the config carries `None`, the hot paths pay exactly one predictable
//! branch and every byte of simulator output is unchanged.

use levi_isa::codec::{Codec, CodecError, Fixed, Reader, Writer};
use levi_isa::Addr;

use crate::engine::EngineId;
use crate::hw::Hw;

/// Page-walk request/response message payload bytes (one PTE plus header).
const WALK_MSG: u32 = 16;

/// Radix fan-out per page-table level (9 bits = 512-entry nodes, as in
/// x86-64 / RISC-V Sv48).
const PT_FANOUT_BITS: u32 = 9;

/// High salt separating synthetic page-table lines from workload lines.
const PT_SALT: u64 = 0x5150_5447_0000_0000;

/// Translation (TLB + page-walk) configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XlatConfig {
    /// log2 of the page size in bytes (12 = 4 KiB, 21 = 2 MiB).
    pub page_bits: u32,
    /// Total TLB entries per tile.
    pub tlb_entries: u32,
    /// TLB associativity (`tlb_ways` must divide `tlb_entries`).
    pub tlb_ways: u32,
    /// Page-table radix depth (levels walked per miss).
    pub walk_levels: u32,
    /// Fixed walker cycles per level, on top of the NoC + DRAM charges.
    pub walk_latency: u64,
}

impl XlatConfig {
    /// A 4 KiB-page, 64-entry 4-way TLB with a 4-level walk — the
    /// conventional baseline the ablation compares against.
    pub fn paper_default() -> Self {
        XlatConfig {
            page_bits: 12,
            tlb_entries: 64,
            tlb_ways: 4,
            walk_levels: 4,
            walk_latency: 4,
        }
    }

    /// Same TLB geometry at a different page size.
    pub fn with_page_bits(page_bits: u32) -> Self {
        XlatConfig {
            page_bits,
            ..Self::paper_default()
        }
    }
}

/// How co-running tenants share the LLC and invoke engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantPolicy {
    /// No isolation: tenants interfere freely (the baseline curve).
    Unpartitioned,
    /// Each tenant's LLC demand fills may only displace lines within its
    /// own `ways / count` share of every set.
    LlcWayPartition,
    /// A tenant invoking an engine outside its tile block NACKs once the
    /// engine's offload contexts are `quota`-full (owner keeps headroom).
    EngineSlotQuota,
}

impl TenantPolicy {
    pub(crate) fn as_u8(self) -> u8 {
        match self {
            TenantPolicy::Unpartitioned => 0,
            TenantPolicy::LlcWayPartition => 1,
            TenantPolicy::EngineSlotQuota => 2,
        }
    }
}

/// Largest supported [`TenantConfig::count`].
pub const MAX_TENANTS: u32 = 8;

/// Multi-tenant sharing configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Number of tenants; must divide the tile count (each tenant owns a
    /// contiguous block of `tiles / count` tiles). At most [`MAX_TENANTS`].
    pub count: u32,
    /// Partitioning policy.
    pub policy: TenantPolicy,
}

impl TenantConfig {
    /// `count` tenants under `policy`.
    pub fn new(count: u32, policy: TenantPolicy) -> Self {
        TenantConfig { count, policy }
    }
}

/// Derived, immutable tenant topology (built once in [`Hw::new`]; carries
/// no mutable state, so it needs no snapshot section).
#[derive(Clone, Copy, Debug)]
pub struct TenantMap {
    /// Number of tenants.
    pub count: u32,
    /// Partitioning policy.
    pub policy: TenantPolicy,
    /// Tiles per tenant block.
    pub tiles_per_tenant: u32,
    /// Per-tenant LLC ways (`ways / count`); 0 unless [`TenantPolicy::LlcWayPartition`].
    pub llc_ways_per_tenant: u32,
    /// Foreign-tenant engine-context cap; 0 unless [`TenantPolicy::EngineSlotQuota`].
    pub slot_quota: u32,
}

impl TenantMap {
    /// Derives the topology from a validated config.
    pub fn new(tc: &TenantConfig, m: &crate::config::MachineConfig) -> Self {
        let offload_cap = (m.engine.contexts / 2).max(1);
        TenantMap {
            count: tc.count,
            policy: tc.policy,
            tiles_per_tenant: m.tiles / tc.count,
            llc_ways_per_tenant: if tc.policy == TenantPolicy::LlcWayPartition {
                m.llc.ways / tc.count
            } else {
                0
            },
            slot_quota: if tc.policy == TenantPolicy::EngineSlotQuota {
                (offload_cap / tc.count).max(1)
            } else {
                0
            },
        }
    }

    /// The tenant owning `tile`.
    #[inline]
    pub fn tenant_of(&self, tile: u32) -> u32 {
        tile / self.tiles_per_tenant
    }

    /// True when an invoke from `from_tile` to `target` must NACK under
    /// the engine-slot quota policy, given the engine's current context
    /// occupancy.
    #[inline]
    pub fn quota_blocks(&self, from_tile: u32, target: EngineId, in_use: u32) -> bool {
        self.slot_quota > 0
            && self.tenant_of(from_tile) != self.tenant_of(target.tile)
            && in_use >= self.slot_quota
    }
}

/// One per-tile, set-associative TLB with exact-LRU replacement.
///
/// Flat-slab layout (DESIGN.md §9): `vpns`/`stamps` are `sets × ways`
/// parallel arrays; a stamp of 0 marks an invalid way, so lookup is a
/// contiguous scan of at most `ways` words.
#[derive(Clone, Debug)]
pub struct Tlb {
    sets: u32,
    ways: u32,
    vpns: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
}

impl Tlb {
    /// An empty TLB with `entries / ways` sets.
    pub fn new(cfg: &XlatConfig) -> Self {
        let sets = (cfg.tlb_entries / cfg.tlb_ways).max(1);
        let n = (sets * cfg.tlb_ways) as usize;
        Tlb {
            sets,
            ways: cfg.tlb_ways,
            vpns: vec![0; n],
            stamps: vec![0; n],
            tick: 0,
        }
    }

    #[inline]
    fn set_base(&self, vpn: u64) -> usize {
        ((vpn % self.sets as u64) as u32 * self.ways) as usize
    }

    /// Probes for `vpn`; refreshes its LRU stamp on hit.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> bool {
        let base = self.set_base(vpn);
        for w in base..base + self.ways as usize {
            if self.stamps[w] != 0 && self.vpns[w] == vpn {
                self.tick += 1;
                self.stamps[w] = self.tick;
                return true;
            }
        }
        false
    }

    /// Installs `vpn`, evicting the LRU way of its set if full.
    pub fn insert(&mut self, vpn: u64) {
        let base = self.set_base(vpn);
        let mut victim = base;
        let mut best = u64::MAX;
        for w in base..base + self.ways as usize {
            if self.stamps[w] < best {
                best = self.stamps[w];
                victim = w;
            }
        }
        self.tick += 1;
        self.vpns[victim] = vpn;
        self.stamps[victim] = self.tick;
    }

    /// Valid entries (for tests and occupancy inspection).
    pub fn occupancy(&self) -> u32 {
        self.stamps.iter().filter(|&&s| s != 0).count() as u32
    }
}

/// Mutable translation state: one [`Tlb`] per tile.
#[derive(Clone, Debug)]
pub struct XlatState {
    /// The (validated) configuration this state was built from.
    pub cfg: XlatConfig,
    tlbs: Vec<Tlb>,
}

impl XlatState {
    /// Cold TLBs for every tile.
    pub fn new(cfg: XlatConfig, tiles: u32) -> Self {
        XlatState {
            cfg,
            tlbs: (0..tiles).map(|_| Tlb::new(&cfg)).collect(),
        }
    }

    /// The given tile's TLB.
    pub fn tlb(&self, tile: u32) -> &Tlb {
        &self.tlbs[tile as usize]
    }
}

levi_isa::codec_struct! {
    in_place Tlb { tick, vpns(stamps): Entries }
    kept { sets, ways }
}
// The `TLBX` section (see [`crate::snapshot`]).
levi_isa::codec_struct! {
    in_place XlatState { tlbs: Fixed("tlb tile count") }
    kept { cfg }
}

/// A TLB's entries: a `u32` count, then each way's vpn and LRU stamp.
struct Entries;

impl Entries {
    fn save(&self, (vpns, stamps): (&[u64], &[u64]), w: &mut Writer) {
        w.u32(vpns.len() as u32);
        for (vpn, stamp) in vpns.iter().zip(stamps) {
            vpn.put(w);
            stamp.put(w);
        }
    }

    fn restore(
        &self,
        (vpns, stamps): (&mut [u64], &mut [u64]),
        r: &mut Reader,
    ) -> Result<(), CodecError> {
        if r.count(16)? != vpns.len() {
            return Err(CodecError::Invalid("tlb entry count"));
        }
        for (vpn, stamp) in vpns.iter_mut().zip(stamps) {
            *vpn = u64::get(r)?;
            *stamp = u64::get(r)?;
        }
        Ok(())
    }
}

impl Hw {
    /// Translates `addr` for an access issued from `tile` at `now`,
    /// returning the cycle at which the physical access may begin.
    ///
    /// With translation disabled this is a single predictable branch —
    /// the zero-cost disabled path the REGISTRY-wide differential test
    /// pins down.
    #[inline]
    pub(crate) fn translate(&mut self, tile: u32, addr: Addr, now: u64) -> u64 {
        if self.xlat.is_none() {
            return now;
        }
        self.translate_miss_path(tile, addr, now)
    }

    fn translate_miss_path(&mut self, tile: u32, addr: Addr, now: u64) -> u64 {
        let x = self.xlat.as_mut().expect("translate checked presence");
        let vpn = addr >> x.cfg.page_bits;
        if x.tlbs[tile as usize].lookup(vpn) {
            self.stats.tlb_hits += 1;
            return now;
        }
        self.stats.tlb_misses += 1;
        // Radix walk: one page-table reference per level, pointer-chased
        // (each level's result gates the next). Upper levels index by a
        // coarser vpn prefix, so nearby pages share page-table lines and
        // the controller FIFO caches absorb them like a walk cache.
        let levels = x.cfg.walk_levels;
        let walk_latency = x.cfg.walk_latency;
        let mut t = now;
        for level in 0..levels {
            let idx = vpn >> (PT_FANOUT_BITS * (levels - 1 - level));
            let pt_line = PT_SALT ^ ((level as u64) << 52) ^ idx;
            let home = (pt_line % self.cfg.tiles as u64) as u32;
            let ta = self.noc.send(tile, home, WALK_MSG, t, &mut self.stats);
            let tb = self.dram.access_line(pt_line, ta, &mut self.stats);
            t = self.noc.send(home, tile, WALK_MSG, tb, &mut self.stats) + walk_latency;
        }
        let x = self.xlat.as_mut().expect("translate checked presence");
        x.tlbs[tile as usize].insert(vpn);
        let walk = t - now;
        self.stats.tlb_walk_cycles += walk;
        self.stats.xlat_walk.record(walk);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::hw::{AccessKind, Walk};
    use levi_isa::codec::Restore;
    use levi_isa::PagedMem;

    fn done(w: Walk) -> u64 {
        match w {
            Walk::Done { at } => at,
            Walk::Blocked(c) => panic!("unexpectedly blocked: {c:?}"),
        }
    }

    #[test]
    fn tlb_hits_after_insert_and_evicts_lru() {
        let cfg = XlatConfig {
            page_bits: 12,
            tlb_entries: 4,
            tlb_ways: 2,
            walk_levels: 4,
            walk_latency: 4,
        };
        let mut tlb = Tlb::new(&cfg);
        assert!(!tlb.lookup(8));
        tlb.insert(8);
        assert!(tlb.lookup(8));
        // Fill the 2-way set holding vpn 1 (sets = 2: vpns 1, 3, 5 share
        // set 1); the LRU entry goes first.
        tlb.insert(1);
        tlb.insert(3);
        assert!(tlb.lookup(1), "refresh 1 so 3 is LRU");
        tlb.insert(5);
        assert!(tlb.lookup(1));
        assert!(tlb.lookup(5));
        assert!(!tlb.lookup(3), "LRU way evicted");
        assert_eq!(tlb.occupancy(), 3);
    }

    #[test]
    fn walk_charges_dram_and_noc_and_fills_tlb() {
        let mut cfg = MachineConfig::paper_default();
        cfg.prefetcher = false;
        cfg.xlat = Some(XlatConfig::paper_default());
        let mut h = Hw::new(cfg);
        let mut mem = PagedMem::new();
        let base_dram = h.stats.dram_accesses;
        let t1 = done(h.access_core(&mut mem, 0, AccessKind::Read, 0x1000, 0, true));
        assert_eq!(h.stats.tlb_misses, 1);
        assert_eq!(h.stats.tlb_hits, 0);
        assert!(h.stats.tlb_walk_cycles > 0, "walk charged cycles");
        assert!(
            h.stats.dram_accesses + h.stats.mc_cache_hits >= base_dram + 5,
            "4 walk levels + the demand fetch touch the controllers"
        );
        // Same page: TLB hit, no further walk.
        let walk_cycles = h.stats.tlb_walk_cycles;
        let t2 = done(h.access_core(&mut mem, 0, AccessKind::Read, 0x1008, t1, true));
        assert_eq!(h.stats.tlb_hits, 1);
        assert_eq!(h.stats.tlb_walk_cycles, walk_cycles);
        assert_eq!(t2, t1 + h.cfg.l1.latency, "hit folds into the L1 probe");
        assert_eq!(h.stats.xlat_walk.count(), 1);
    }

    #[test]
    fn disabled_translation_adds_nothing() {
        let mut cfg = MachineConfig::paper_default();
        cfg.prefetcher = false;
        let mut h = Hw::new(cfg);
        let mut mem = PagedMem::new();
        done(h.access_core(&mut mem, 0, AccessKind::Read, 0x1000, 0, true));
        assert_eq!(h.stats.tlb_hits + h.stats.tlb_misses, 0);
        assert_eq!(h.stats.tlb_walk_cycles, 0);
        assert_eq!(h.stats.xlat_walk.count(), 0);
    }

    #[test]
    fn tenant_map_topology_and_quota() {
        let m = MachineConfig::with_tiles(8);
        let tm = TenantMap::new(&TenantConfig::new(4, TenantPolicy::EngineSlotQuota), &m);
        assert_eq!(tm.tiles_per_tenant, 2);
        assert_eq!(tm.tenant_of(0), 0);
        assert_eq!(tm.tenant_of(1), 0);
        assert_eq!(tm.tenant_of(2), 1);
        assert_eq!(tm.tenant_of(7), 3);
        assert!(tm.slot_quota >= 1);
        let foreign = EngineId {
            tile: 2,
            level: crate::engine::EngineLevel::L2,
        };
        let own = EngineId {
            tile: 1,
            level: crate::engine::EngineLevel::L2,
        };
        assert!(tm.quota_blocks(0, foreign, tm.slot_quota));
        assert!(!tm.quota_blocks(0, foreign, tm.slot_quota - 1));
        assert!(!tm.quota_blocks(0, own, u32::MAX), "own engines uncapped");

        let part = TenantMap::new(&TenantConfig::new(4, TenantPolicy::LlcWayPartition), &m);
        assert_eq!(part.llc_ways_per_tenant, m.llc.ways / 4);
        assert_eq!(part.slot_quota, 0);
    }

    #[test]
    fn tlb_snapshot_round_trips() {
        let cfg = XlatConfig::paper_default();
        let mut x = XlatState::new(cfg, 4);
        for t in 0..4u32 {
            for v in 0..10u64 {
                x.tlbs[t as usize].insert(v * 17 + t as u64);
            }
        }
        let mut w = Writer::new();
        x.save(&mut w);
        let bytes = w.into_bytes();
        let mut y = XlatState::new(cfg, 4);
        let mut r = Reader::new(&bytes);
        y.restore(&mut r).expect("round trip");
        let mut w2 = Writer::new();
        y.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "byte-identical re-encode");
        // A truncated payload surfaces as a typed codec error.
        let mut z = XlatState::new(cfg, 4);
        let mut r = Reader::new(&bytes[..bytes.len() / 2]);
        assert!(z.restore(&mut r).is_err());
    }
}
