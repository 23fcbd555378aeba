//! Directory stage: the shared LLC, its in-tag directory, and DRAM
//! fetches.
//!
//! [`Hw::llc_stage`] is the single funnel every private-cache miss flows
//! through (core and engine paths alike): it routes the request to the
//! home bank over the NoC, resolves the line (LLC hit, phantom
//! construction via [`super::phantom`], or DRAM fetch), then enforces
//! coherence against the other tiles' private copies.

use levi_isa::Addr;

use crate::cache::PrivState;
use crate::config::LINE_SHIFT;
use crate::ndc::MorphLevel;
use crate::trace::{TraceEvent, TraceKind, Track};

use super::{AccessKind, Hw, Walk, CTRL_MSG, DATA_MSG, INVAL_MSG};

impl Hw {
    /// Handles the LLC + directory + DRAM stage. `from_tile` is where the
    /// request physically originates (for NoC routing); `new_sharer` is the
    /// tile whose private caches will hold the line afterwards (None for
    /// LLC-engine accesses, which stay at the bank).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn llc_stage(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        from_tile: u32,
        new_sharer: Option<u32>,
        kind: AccessKind,
        addr: Addr,
        now: u64,
        allow_phantom: bool,
    ) -> Walk {
        let line = addr >> LINE_SHIFT;
        let bank = self.bank_of(addr);
        let mut t = self
            .noc
            .send(from_tile, bank, CTRL_MSG, now, &mut self.stats);
        t += self.cfg.llc.latency;
        self.stats.dir_lookups += 1;

        let hit = self.llc[bank as usize].probe(line).is_some();
        if hit {
            self.stats.llc.hits += 1;
        } else {
            self.stats.llc.misses += 1;
            if let Some(tm) = &self.tenants {
                // Per-tenant interference attribution (cold path only).
                let ten = tm.tenant_of(from_tile) as usize;
                if let Some(c) = self.stats.tenant_llc_misses.get_mut(ten) {
                    *c += 1;
                }
            }
            // LLC miss: phantom construction or DRAM fetch.
            if allow_phantom {
                if let Some(mi) = self.ndc.morph_at(addr) {
                    if self.ndc.morphs[mi].level == MorphLevel::Llc {
                        match self.phantom_fill_llc(mem, bank, mi, addr, t) {
                            Walk::Done { at } => t = at,
                            blocked => return blocked,
                        }
                    } else {
                        // L2-level morph data must never reach the LLC.
                        t = self.dram_fetch_into_llc(mem, from_tile, bank, line, t);
                    }
                } else {
                    t = self.dram_fetch_into_llc(mem, from_tile, bank, line, t);
                }
            } else if kind == AccessKind::Write && self.ndc.is_stream_store(addr) {
                // Streaming store: the line will be fully overwritten, so
                // skip the write-allocate fetch (write-combining).
                let (l, victim) = self.llc_fill(from_tile, bank, line);
                l.dirty = true;
                if let Some(v) = victim {
                    self.handle_llc_victim(mem, bank, v, t);
                }
            } else {
                t = self.dram_fetch_into_llc(mem, from_tile, bank, line, t);
            }
        }

        // Directory actions on the (now-present) line.
        t = self.directory_actions(mem, bank, line, new_sharer, kind, t);

        // Data response back to the requester.
        let t = self.noc.send(bank, from_tile, DATA_MSG, t, &mut self.stats);
        Walk::Done { at: t }
    }

    /// Fetches `line` from DRAM and inserts it into `bank` on behalf of
    /// the requester at `from_tile`, handling the victim. Returns the
    /// completion time.
    pub(super) fn dram_fetch_into_llc(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        from_tile: u32,
        bank: u32,
        line: u64,
        now: u64,
    ) -> u64 {
        let t = self
            .dram
            .access_cache_line(&self.translator, line, now, &mut self.stats);
        let (_, victim) = self.llc_fill(from_tile, bank, line);
        if let Some(v) = victim {
            self.handle_llc_victim(mem, bank, v, now);
        }
        t
    }

    /// Inserts a demand fill into an LLC bank, honoring the tenant
    /// way-partition when one is configured (the single-tenant path is
    /// the plain [`crate::cache::CacheBank::insert`]).
    fn llc_fill(
        &mut self,
        from_tile: u32,
        bank: u32,
        line: u64,
    ) -> (&mut crate::cache::Line, Option<crate::cache::Line>) {
        match self.tenants {
            Some(tm) if tm.llc_ways_per_tenant > 0 => self.llc[bank as usize].insert_for_tenant(
                line,
                &self.pins,
                tm.tenant_of(from_tile) as u8,
                tm.llc_ways_per_tenant,
            ),
            _ => self.llc[bank as usize].insert(line, &self.pins),
        }
    }

    /// Enforces coherence for a request on a resident LLC line.
    fn directory_actions(
        &mut self,
        _mem: &mut dyn levi_isa::Memory,
        bank: u32,
        line: u64,
        new_sharer: Option<u32>,
        kind: AccessKind,
        now: u64,
    ) -> u64 {
        let b = bank as usize;
        let (owner, sharers) = match self.llc[b].peek(line) {
            Some(l) => (l.owner, l.sharers),
            None => return now,
        };
        let mut t = now;

        if kind.wants_ownership() {
            // Invalidate every other private copy.
            let mut mask = sharers;
            if let Some(o) = owner {
                mask |= 1 << o;
            }
            if let Some(ns) = new_sharer {
                mask &= !(1u64 << ns);
            }
            let mut t_inv = t;
            let mut any = false;
            for s in 0..self.cfg.tiles {
                if mask & (1 << s) == 0 {
                    continue;
                }
                any = true;
                let ta = self.noc.send(bank, s, INVAL_MSG, t, &mut self.stats);
                let dirty = self.invalidate_private(s, line);
                self.stats.invalidations += 1;
                self.stats.trace.record(|| {
                    TraceEvent::instant(
                        ta,
                        TraceKind::CohInval,
                        Track::Core(s),
                        &[line, dirty as u64],
                    )
                });
                let mut tr = ta + self.cfg.l2.latency;
                if dirty {
                    // Dirty data returns with the ack.
                    tr = self.noc.send(s, bank, DATA_MSG, tr, &mut self.stats);
                    if let Some(l) = self.llc[b].peek_mut(line) {
                        l.dirty = true;
                    }
                } else {
                    tr = self.noc.send(s, bank, INVAL_MSG, tr, &mut self.stats);
                }
                t_inv = t_inv.max(tr);
            }
            if owner.is_some() && owner != new_sharer.map(|x| x as u8) {
                self.stats.ownership_transfers += 1;
                let from = owner.unwrap_or(0) as u64;
                self.stats.trace.record(|| {
                    TraceEvent::instant(t, TraceKind::CohXfer, Track::Core(bank), &[line, from])
                });
            }
            if any {
                t = t_inv;
            }
            if let Some(l) = self.llc[b].peek_mut(line) {
                l.sharers = new_sharer.map_or(0, |ns| 1u64 << ns);
                l.owner = new_sharer.map(|ns| ns as u8);
                if new_sharer.is_none() {
                    // Engine write at the bank: the LLC copy is the only
                    // copy and is now dirty.
                    l.dirty = true;
                }
            }
        } else {
            // Read: downgrade a remote exclusive owner if present.
            if let Some(o) = owner {
                if Some(o as u32) != new_sharer {
                    let ta = self.noc.send(bank, o as u32, CTRL_MSG, t, &mut self.stats);
                    let tb = ta + self.cfg.l2.latency;
                    let tr = self.noc.send(o as u32, bank, DATA_MSG, tb, &mut self.stats);
                    // Downgrade owner to sharer.
                    if let Some(l) = self.l2[o as usize].peek_mut(line) {
                        l.state = PrivState::Shared;
                    }
                    if let Some(l) = self.l1[o as usize].peek_mut(line) {
                        l.state = PrivState::Shared;
                    }
                    self.stats.ownership_transfers += 1;
                    self.stats.trace.record(|| {
                        TraceEvent::instant(
                            tr,
                            TraceKind::CohXfer,
                            Track::Core(bank),
                            &[line, o as u64],
                        )
                    });
                    if let Some(l) = self.llc[b].peek_mut(line) {
                        l.dirty = true;
                        l.sharers |= 1 << o;
                        l.owner = None;
                    }
                    t = tr;
                }
            }
            if let Some(ns) = new_sharer {
                if let Some(l) = self.llc[b].peek_mut(line) {
                    l.sharers |= 1u64 << ns;
                    if l.owner == Some(ns as u8) {
                        l.owner = None;
                    }
                }
            }
        }
        t
    }

    /// Invalidates `line` from tile `s`'s L1+L2; returns whether a dirty
    /// copy existed.
    pub(super) fn invalidate_private(&mut self, s: u32, line: u64) -> bool {
        let mut dirty = false;
        if let Some(l) = self.l1[s as usize].invalidate(line) {
            dirty |= l.dirty;
        }
        if let Some(l) = self.l2[s as usize].invalidate(line) {
            dirty |= l.dirty;
        }
        dirty
    }
}
