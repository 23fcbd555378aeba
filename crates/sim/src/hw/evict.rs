//! Evict stage: private-hierarchy fills, victim handling, destructor
//! dispatch, and range flushes.
//!
//! Fills keep the hierarchy inclusive (L1 ⊆ L2 ⊆ LLC for cacheable data);
//! victims propagate dirty bits downward and, for destructor-tagged Morph
//! lines, hand the line to the engine's destructor action. Destructors
//! triggered from *within* an inline action are deferred to the engine's
//! actor buffer ([`Hw::dtor_or_queue`]) and drained iteratively, so
//! eviction cascades cannot recurse unboundedly.

use levi_isa::Addr;

use crate::cache::PrivState;
use crate::config::{LINE_SHIFT, LINE_SIZE};
use crate::engine::{EngineId, EngineLevel};
use crate::ndc::MorphLevel;
use crate::trace::{TraceEvent, TraceKind, Track};

use super::{AccessKind, Hw, PendingDtor, DATA_MSG, INVAL_MSG};

impl Hw {
    pub(super) fn fill_l1(
        &mut self,
        _mem: &mut dyn levi_isa::Memory,
        tile: u32,
        line: u64,
        state: PrivState,
        kind: AccessKind,
        now: u64,
    ) {
        let t = tile as usize;
        if let Some(l) = self.l1[t].peek_mut(line) {
            l.state = state;
            if kind.wants_ownership() {
                l.dirty = true;
            }
            return;
        }
        let (l, victim) = self.l1[t].insert(line, &self.pins);
        l.state = state;
        l.dirty = kind.wants_ownership();
        if let Some(v) = victim {
            if v.dirty {
                // Write into the L2 copy.
                if let Some(l2l) = self.l2[t].peek_mut(v.line) {
                    l2l.dirty = true;
                } else {
                    // L2 already lost it; fold into LLC if present.
                    let bank = self.bank_of(v.line << LINE_SHIFT) as usize;
                    if let Some(ll) = self.llc[bank].peek_mut(v.line) {
                        ll.dirty = true;
                    }
                }
            }
        }
        let _ = now;
    }

    pub(super) fn fill_l2(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        tile: u32,
        line: u64,
        state: PrivState,
        kind: AccessKind,
        now: u64,
    ) {
        let t = tile as usize;
        if let Some(l) = self.l2[t].peek_mut(line) {
            l.state = state;
            if kind.wants_ownership() {
                l.dirty = true;
            }
            return;
        }
        let (l, victim) = self.l2[t].insert(line, &self.pins);
        l.state = state;
        l.dirty = kind.wants_ownership();
        if let Some(v) = victim {
            self.handle_l2_victim(mem, tile, v, now);
        }
    }

    /// Handles an L2 eviction: destructor-tagged lines run their Morph
    /// destructor on the tile's L2 engine; dirty lines write back to the
    /// LLC (or DRAM if the LLC no longer holds them).
    pub fn handle_l2_victim(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        tile: u32,
        victim: crate::cache::Line,
        now: u64,
    ) -> u64 {
        // Keep L1 inclusive with L2.
        let l1_dirty = self.l1[tile as usize]
            .invalidate(victim.line)
            .is_some_and(|l| l.dirty);
        let dirty = victim.dirty || l1_dirty;

        if victim.dtor {
            let eid = EngineId {
                tile,
                level: EngineLevel::L2,
            };
            return self.dtor_or_queue(mem, eid, victim.line, dirty, now, MorphLevel::L2, tile);
        }
        if dirty {
            // L2-level phantom data never leaves the private caches.
            if self
                .ndc
                .morph_at(victim.line << LINE_SHIFT)
                .is_some_and(|mi| self.ndc.morphs[mi].level == MorphLevel::L2)
            {
                return now;
            }
            self.stats.l2.writebacks += 1;
            let addr = victim.line << LINE_SHIFT;
            let bank = self.bank_of(addr);
            let t = self.noc.send(tile, bank, DATA_MSG, now, &mut self.stats);
            self.stats.llc.hits += 1; // writeback access at the bank
            if let Some(l) = self.llc[bank as usize].peek_mut(victim.line) {
                l.dirty = true;
                if l.owner == Some(tile as u8) {
                    l.owner = None;
                }
                l.sharers &= !(1u64 << tile);
                return t + self.cfg.llc.latency;
            }
            // Not in LLC (phantom or already evicted): write to DRAM.
            return self
                .dram
                .access_cache_line(&self.translator, victim.line, t, &mut self.stats);
        }
        now
    }

    /// Handles an LLC eviction: invalidates private copies (inclusion),
    /// invalidates the bank engine's L1d, runs destructors for
    /// destructor-tagged lines, and writes back dirty data.
    pub fn handle_llc_victim(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        bank: u32,
        victim: crate::cache::Line,
        now: u64,
    ) -> u64 {
        let mut t = now;
        let mut dirty = victim.dirty;
        // Inclusion: strip private copies.
        let mut mask = victim.sharers;
        if let Some(o) = victim.owner {
            mask |= 1 << o;
        }
        for s in 0..self.cfg.tiles {
            if mask & (1 << s) == 0 {
                continue;
            }
            let ta = self.noc.send(bank, s, INVAL_MSG, t, &mut self.stats);
            self.stats.invalidations += 1;
            let was_dirty = self.invalidate_private(s, victim.line);
            dirty |= was_dirty;
            let line = victim.line;
            self.stats.trace.record(|| {
                TraceEvent::instant(
                    ta,
                    TraceKind::CohInval,
                    Track::Core(s),
                    &[line, was_dirty as u64],
                )
            });
            t = t.max(ta + self.cfg.l2.latency);
        }
        // The bank engine's L1d must not outlive the LLC copy (it would
        // see stale phantom data after a destructor runs).
        let eid = EngineId {
            tile: bank,
            level: EngineLevel::Llc,
        };
        self.engines[eid.index()].l1d.invalidate(victim.line);

        if victim.dtor {
            return self.dtor_or_queue(mem, eid, victim.line, dirty, t, MorphLevel::Llc, bank);
        }
        if dirty {
            // Phantom (Morph) data has no DRAM backing: a dirty phantom
            // line without a destructor is simply dropped.
            if self.ndc.morph_at(victim.line << LINE_SHIFT).is_some() {
                return t;
            }
            self.stats.llc.writebacks += 1;
            return self
                .dram
                .access_cache_line(&self.translator, victim.line, t, &mut self.stats);
        }
        t
    }

    /// Runs the Morph destructor(s) for an evicted line: one per object for
    /// sub-line objects, or a single destructor (after gathering all of the
    /// object's lines) for multi-line objects.
    #[allow(clippy::too_many_arguments)]
    fn run_dtors_for_line(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        eid: EngineId,
        line: u64,
        dirty: bool,
        now: u64,
        level: MorphLevel,
        home: u32,
    ) -> u64 {
        crate::perf::prof_scope!(crate::perf::Phase::Inline);
        let addr = line << LINE_SHIFT;
        let Some(mi) = self.ndc.morph_at(addr) else {
            // Morph was unregistered; drop the line.
            return now;
        };
        let m = self.ndc.morphs[mi].clone();
        debug_assert_eq!(m.level, level);
        let Some(aref) = m.dtor.and_then(|dtor| self.morph_action(dtor)) else {
            return now;
        };
        let mut t = now;
        if m.is_multiline() {
            // Evict the object's other lines too, then run one destructor.
            let obj = m.obj_base(addr);
            let lines = m.obj_size / LINE_SIZE;
            let mut any_dirty = dirty;
            for k in 0..lines {
                let l = (obj >> LINE_SHIFT) + k;
                if l == line {
                    continue;
                }
                match level {
                    MorphLevel::Llc => {
                        let b = self.bank_of(l << LINE_SHIFT);
                        if let Some(v) = self.llc[b as usize].invalidate(l) {
                            any_dirty |= v.dirty;
                            // Inclusion: strip private copies of the sibling.
                            let mut mask = v.sharers;
                            if let Some(o) = v.owner {
                                mask |= 1 << o;
                            }
                            for sh in 0..self.cfg.tiles {
                                if mask & (1 << sh) != 0 {
                                    let was_dirty = self.invalidate_private(sh, l);
                                    any_dirty |= was_dirty;
                                    self.stats.invalidations += 1;
                                    self.stats.trace.record(|| {
                                        TraceEvent::instant(
                                            t,
                                            TraceKind::CohInval,
                                            Track::Core(sh),
                                            &[l, was_dirty as u64],
                                        )
                                    });
                                }
                            }
                            let e2 = EngineId {
                                tile: b,
                                level: EngineLevel::Llc,
                            };
                            self.engines[e2.index()].l1d.invalidate(l);
                        }
                    }
                    MorphLevel::L2 => {
                        if let Some(v) = self.l2[home as usize].invalidate(l) {
                            any_dirty |= v.dirty;
                        }
                        self.l1[home as usize].invalidate(l);
                    }
                }
            }
            self.stats.dtor_actions += 1;
            let span = (obj, obj + m.obj_size.max(LINE_SIZE));
            t = self.run_inline_action(
                mem,
                eid,
                &aref,
                &[obj, m.view, any_dirty as u64],
                t,
                Some(span),
            );
        } else {
            // Sub-line objects: the scheduler runs all the line's object
            // destructors in parallel (FU limits still apply through the
            // engine cursors).
            let objs = LINE_SIZE / m.obj_size;
            let mut t_max = now;
            for k in 0..objs {
                let obj = addr + k * m.obj_size;
                if obj >= m.bound {
                    break;
                }
                self.stats.dtor_actions += 1;
                let span = (addr, addr + LINE_SIZE);
                t_max = t_max.max(self.run_inline_action(
                    mem,
                    eid,
                    &aref,
                    &[obj, m.view, dirty as u64],
                    now,
                    Some(span),
                ));
            }
            t = t_max;
        }
        t
    }

    /// Iteratively runs all deferred destructors (each may defer more).
    pub(super) fn drain_pending_dtors(&mut self, mem: &mut dyn levi_isa::Memory) {
        while let Some(p) = self.pending_dtors.pop() {
            self.run_dtors_for_line(mem, p.eid, p.line, p.dirty, p.at, p.level, p.home);
        }
    }

    /// Flushes `[base, base+len)` from every cache, running destructors for
    /// tagged lines. Returns the completion time. Used by Morph
    /// unregistration (`flush` instruction).
    pub fn flush_range(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        base: Addr,
        len: u64,
        now: u64,
    ) -> u64 {
        let bound = base + len;
        let mut t = now;
        // Scratch arenas reused across calls. Taken (not borrowed) so the
        // victim handlers below can re-enter `flush_range` from inline
        // destructor actions — a nested call just sees empty arenas.
        let mut drained = std::mem::take(&mut self.scratch_lines);
        let mut l1_dirty = std::mem::take(&mut self.scratch_dirty);
        for tile in 0..self.cfg.tiles {
            self.l1[tile as usize].drain_range_into(base, bound, &mut drained);
            l1_dirty.clear();
            // `drained` is sorted by line, so `l1_dirty` is too: membership
            // below is a binary search.
            l1_dirty.extend(drained.iter().filter(|l| l.dirty).map(|l| l.line));
            self.l2[tile as usize].drain_range_into(base, bound, &mut drained);
            for v in &drained {
                let mut v = *v;
                v.dirty |= l1_dirty.binary_search(&v.line).is_ok();
                t = t.max(self.handle_l2_victim_flush(mem, tile, v, now));
            }
        }
        for bank in 0..self.cfg.tiles {
            self.llc[bank as usize].drain_range_into(base, bound, &mut drained);
            for v in &drained {
                t = t.max(self.handle_llc_victim(mem, bank, *v, now));
            }
            let eid = EngineId {
                tile: bank,
                level: EngineLevel::Llc,
            };
            self.engines[eid.index()]
                .l1d
                .drain_range_into(base, bound, &mut drained);
            let eid2 = EngineId {
                tile: bank,
                level: EngineLevel::L2,
            };
            self.engines[eid2.index()]
                .l1d
                .drain_range_into(base, bound, &mut drained);
        }
        drained.clear();
        l1_dirty.clear();
        self.scratch_lines = drained;
        self.scratch_dirty = l1_dirty;
        t
    }

    /// L2 victim handling for flush paths, where the L1 copy was already
    /// drained.
    fn handle_l2_victim_flush(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        tile: u32,
        victim: crate::cache::Line,
        now: u64,
    ) -> u64 {
        if victim.dtor {
            let eid = EngineId {
                tile,
                level: EngineLevel::L2,
            };
            return self.dtor_or_queue(
                mem,
                eid,
                victim.line,
                victim.dirty,
                now,
                MorphLevel::L2,
                tile,
            );
        }
        if victim.dirty {
            self.stats.l2.writebacks += 1;
        }
        now
    }

    /// Runs a victim's destructor(s) now, or — when already inside an
    /// inline action — defers them to the engine's actor buffer so
    /// eviction cascades resolve iteratively instead of recursively.
    #[allow(clippy::too_many_arguments)]
    fn dtor_or_queue(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        eid: EngineId,
        line: u64,
        dirty: bool,
        now: u64,
        level: MorphLevel,
        home: u32,
    ) -> u64 {
        if self.inline_depth > 0 {
            self.pending_dtors.push(PendingDtor {
                eid,
                line,
                dirty,
                at: now,
                level,
                home,
            });
            return now;
        }
        let mut t = self.run_dtors_for_line(mem, eid, line, dirty, now, level, home);
        while let Some(p) = self.pending_dtors.pop() {
            t = t.max(self.run_dtors_for_line(mem, p.eid, p.line, p.dirty, p.at, p.level, p.home));
        }
        t
    }
}
