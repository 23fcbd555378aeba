//! Phantom stage: data-triggered fills and the inline-action interpreter.
//!
//! Misses inside a Morph-registered phantom range do not fetch from the
//! next level — they run the Morph's constructor action on the nearby
//! engine and install the constructed line(s) directly (paper Secs. V-B2,
//! VI-B2). This module holds the L2- and LLC-level phantom fill paths,
//! constructor dispatch (including the built-in stream and zero-fill
//! constructors), and [`Hw::run_inline_action`] — the synchronous
//! interpreter that executes short ctor/dtor actions on an engine's
//! dataflow fabric, charging FU slots and hierarchy walks as it goes.
//!
//! An inline action that cannot finish (it is not registered, never
//! halts, issues an NDC operation, or trips the interpreter) does not
//! panic: it sets `Hw::fatal`, and the scheduler ends the run with
//! [`RunError::Fault`](crate::machine::RunError::Fault).

use levi_isa::{
    exec, ActionId, Addr, ExecCtx, InstClass, MemEffect, Memory, NdcHost, NdcRequest, Poll,
    Program, NUM_REGS,
};

use crate::cache::PrivState;
use crate::config::{LINE_SHIFT, LINE_SIZE};
use crate::engine::{EngineId, EngineLevel};
use crate::error::{InlineFault, SimError};
use crate::ndc::{ActionRef, WaitCond};

/// Instructions an inline action may retire before it is declared hung.
const INLINE_FUEL: u64 = 5_000_000;

/// The register state every inline action runs in, owned by [`Hw`] and
/// reused so that an action costs no set-up beyond loading its arguments.
/// Every register and every `ready` entry is zero between actions, and a
/// zero `ready` entry behaves like the action's start cycle, because
/// [`levi_isa::InstMeta::ready`] takes the later of the two. One is enough:
/// inline actions never nest (phantom fills are off inside one, and the
/// destructors its evictions trigger are deferred until it ends).
#[derive(Debug)]
pub(super) struct InlineRegs {
    ctx: ExecCtx,
    /// The cycle each register's value is ready; 0 if not yet written.
    ready: [u64; NUM_REGS],
}

impl InlineRegs {
    pub(super) fn new() -> Box<Self> {
        Box::new(InlineRegs {
            ctx: ExecCtx::new(levi_isa::FuncId(0), &[]),
            ready: [0; NUM_REGS],
        })
    }
}

/// The NDC host of an inline action. It runs inside a cache walk, so it
/// can issue no NDC operation: each one is refused and remembered, and
/// [`Hw::run_inline_action`] ends the run with [`InlineFault::NdcOp`].
#[derive(Default)]
struct InlineHost {
    refused: Option<&'static str>,
}

impl NdcHost for InlineHost {
    fn invoke(&mut self, _mem: &mut dyn Memory, _req: NdcRequest) -> Poll<()> {
        self.refused = Some("invoke");
        Poll::Pending
    }
    fn future_wait(&mut self, _mem: &mut dyn Memory, _fut: Addr) -> Poll<u64> {
        self.refused = Some("future_wait");
        Poll::Pending
    }
    fn future_send(&mut self, _mem: &mut dyn Memory, _fut: Addr, _val: u64) {
        self.refused = Some("future_send");
    }
    fn push(&mut self, _mem: &mut dyn Memory, _stream: u64, _val: u64) -> Poll<()> {
        self.refused = Some("push");
        Poll::Pending
    }
    fn pop(&mut self, _mem: &mut dyn Memory, _stream: u64) {
        self.refused = Some("pop");
    }
    fn flush(&mut self, _mem: &mut dyn Memory, _addr: Addr, _len: u64) {
        self.refused = Some("flush");
    }
}

use super::{AccessKind, Hw, Walk};

impl Hw {
    /// L2-level phantom miss: run constructors on the tile's L2 engine and
    /// install the object's line(s) into L2 (and the missed line into L1).
    pub(super) fn phantom_fill_l2(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        tile: u32,
        mi: usize,
        addr: Addr,
        kind: AccessKind,
        now: u64,
    ) -> Walk {
        let m = self.ndc.morphs[mi].clone();
        // Stream-backed phantoms stall when the producer has not yet
        // pushed the entry being read (paper Sec. VI-B3).
        if let Some(sid) = m.stream {
            let s = self.ndc.stream(sid);
            if s.is_empty() && !s.closed {
                return Walk::Blocked(WaitCond::StreamData(sid));
            }
        }
        let eid = EngineId {
            tile,
            level: EngineLevel::L2,
        };
        let mut t = now;
        let (obj, lines) = if m.is_multiline() {
            (m.obj_base(addr), m.obj_size / LINE_SIZE)
        } else {
            (addr & !(LINE_SIZE - 1), 1)
        };

        t = self.run_ctors(mem, eid, &m, obj, t);

        // Install all lines of the object (or the one line) into L2.
        let has_dtor = m.dtor.is_some();
        for k in 0..lines {
            let line = (obj >> LINE_SHIFT) + k;
            if self.l2[tile as usize].contains(line) {
                continue;
            }
            let (l, victim) = self.l2[tile as usize].insert(line, &self.pins);
            l.state = PrivState::Owned;
            l.dtor = has_dtor;
            l.dirty = false;
            if let Some(v) = victim {
                self.handle_l2_victim(mem, tile, v, t);
            }
        }
        self.fill_l1(mem, tile, addr >> LINE_SHIFT, PrivState::Owned, kind, t);
        if kind.wants_ownership() {
            if let Some(l) = self.l2[tile as usize].peek_mut(addr >> LINE_SHIFT) {
                l.dirty = true;
            }
        }
        Walk::Done {
            at: t + self.cfg.l2.latency,
        }
    }

    /// LLC-level phantom miss: run constructors on the bank's engine and
    /// install the object's line(s) into the LLC.
    pub(super) fn phantom_fill_llc(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        bank: u32,
        mi: usize,
        addr: Addr,
        now: u64,
    ) -> Walk {
        let m = self.ndc.morphs[mi].clone();
        if let Some(sid) = m.stream {
            let s = self.ndc.stream(sid);
            if s.is_empty() && !s.closed {
                return Walk::Blocked(WaitCond::StreamData(sid));
            }
        }
        let eid = EngineId {
            tile: bank,
            level: EngineLevel::Llc,
        };
        let (obj, lines) = if m.is_multiline() {
            (m.obj_base(addr), m.obj_size / LINE_SIZE)
        } else {
            (addr & !(LINE_SIZE - 1), 1)
        };
        let t = self.run_ctors(mem, eid, &m, obj, now);
        let has_dtor = m.dtor.is_some();
        for k in 0..lines {
            let line = (obj >> LINE_SHIFT) + k;
            let b = self.bank_of(line << LINE_SHIFT) as usize;
            if self.llc[b].contains(line) {
                continue;
            }
            let (l, victim) = self.llc[b].insert(line, &self.pins);
            l.dtor = has_dtor;
            l.dirty = false;
            if let Some(v) = victim {
                self.handle_llc_victim(mem, b as u32, v, t);
            }
        }
        Walk::Done { at: t }
    }

    /// Runs the constructor(s) covering the line/object at `obj`.
    fn run_ctors(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        eid: EngineId,
        m: &crate::ndc::MorphRegion,
        obj: Addr,
        now: u64,
    ) -> u64 {
        crate::perf::prof_scope!(crate::perf::Phase::Inline);
        let mut t = now;
        match m.ctor {
            Some(ctor) => {
                let Some(aref) = self.morph_action(ctor) else {
                    return t;
                };
                if m.is_multiline() {
                    self.stats.ctor_actions += 1;
                    let span = (obj, obj + m.obj_size);
                    t = self.run_inline_action(mem, eid, &aref, &[obj, m.view], t, Some(span));
                } else {
                    // Parallel per-object constructors (see destructors).
                    let span = (obj, obj + LINE_SIZE);
                    let objs = LINE_SIZE / m.obj_size.min(LINE_SIZE);
                    let mut t_max = t;
                    for k in 0..objs.max(1) {
                        let oa = obj + k * m.obj_size;
                        if oa >= m.bound {
                            break;
                        }
                        self.stats.ctor_actions += 1;
                        t_max = t_max.max(self.run_inline_action(
                            mem,
                            eid,
                            &aref,
                            &[oa, m.view],
                            t,
                            Some(span),
                        ));
                    }
                    t = t_max;
                }
            }
            None => {
                if m.stream.is_some() {
                    // Built-in stream constructor: read the buffer line
                    // through the hierarchy and copy it into the phantom
                    // line (2 engine memory ops per word).
                    self.stats.ctor_actions += 1;
                    let words = LINE_SIZE / 8;
                    let mut done = t;
                    for _ in 0..words {
                        let slot = self.engines[eid.index()].reserve_mem(t);
                        done = done.max(slot + self.engines[eid.index()].latency());
                        self.stats.engine_instrs += 2;
                    }
                    // One read of the underlying buffer line (the phantom
                    // range *is* the ring buffer).
                    if let Walk::Done { at } =
                        self.access_engine(mem, eid, AccessKind::Read, obj, t, false)
                    {
                        done = done.max(at);
                    }
                    t = done;
                } else {
                    // Default constructor: zero-fill the constructed
                    // span, clamped to the Morph's bound (the tail line
                    // may be shared with unrelated allocations).
                    let span = m.obj_size.max(LINE_SIZE).min(m.bound.saturating_sub(obj));
                    mem.fill(obj, span, 0);
                    self.stats.ctor_actions += 1;
                    let slot = self.engines[eid.index()].reserve_mem(t);
                    t = slot + self.engines[eid.index()].latency();
                    self.stats.engine_instrs += LINE_SIZE / 8;
                }
            }
        }
        t
    }

    // ------------------------------------------------------------------
    // Inline action execution (data-triggered ctors/dtors)
    // ------------------------------------------------------------------

    /// Executes a short action to completion on `eid`'s dataflow fabric,
    /// charging FU slots and walking the hierarchy for its memory accesses
    /// (with phantom triggering disabled — data-triggered actions must not
    /// nest). Returns the completion time.
    ///
    /// `local` is the byte range of the line(s) being constructed or
    /// destructed: accesses inside it hit the engine's line buffer
    /// directly (the data is in flight through the engine) instead of
    /// walking the hierarchy.
    ///
    /// An action that stops short of its `halt` sets `Hw::fatal` (see
    /// [`InlineFault`]); once it is set, later actions do not run.
    ///
    /// The action runs in the shared `InlineRegs`: it loads only its
    /// arguments and entry state, and on the way out zeroes just the
    /// registers it wrote.
    pub fn run_inline_action(
        &mut self,
        mem: &mut dyn levi_isa::Memory,
        eid: EngineId,
        aref: &ActionRef,
        args: &[u64],
        start: u64,
        local: Option<(Addr, Addr)>,
    ) -> u64 {
        if self.fatal.is_some() {
            return start;
        }
        let prog: &Program = &aref.prog;
        let mut regs = self.inline_regs.take().expect("inline actions never nest");
        let InlineRegs {
            ctx,
            ready: reg_ready,
        } = &mut *regs;
        ctx.enter(aref.func, args);
        // The registers this action writes, its arguments first: the ones
        // to zero again when it ends. Every write is an `InstMeta::def`.
        let mut written: u64 = (1 << args.len()) - 1;
        let mut done_max = start;
        let mut host = InlineHost::default();
        let mut fuel = INLINE_FUEL;
        self.inline_depth += 1;
        while !ctx.halted {
            if fuel == 0 {
                self.inline_fault(aref, InlineFault::OutOfFuel(INLINE_FUEL));
                break;
            }
            fuel -= 1;
            let (inst, meta) = match exec::fetch(prog, ctx) {
                Ok(fetched) => fetched,
                Err(e) => {
                    self.inline_fault(aref, InlineFault::Exec(e));
                    break;
                }
            };
            if let Some(rd) = meta.def {
                written |= 1 << rd.index();
            }
            // A zero entry (a register not yet written) is ready at `start`.
            let ready = meta.ready(reg_ready, start);

            // Compute the memory address before stepping (the walk may run
            // nothing here — phantom is disabled — but must charge time).
            let slot = if meta.class == InstClass::Mem {
                self.engines[eid.index()].reserve_mem(ready)
            } else {
                self.engines[eid.index()].reserve_int(ready)
            };
            let info = match exec::execute(ctx, inst, meta.class, mem, &mut host) {
                Ok(info) => info,
                Err(e) => {
                    self.inline_fault(aref, InlineFault::Exec(e));
                    break;
                }
            };
            if let Some(op) = host.refused {
                self.inline_fault(aref, InlineFault::NdcOp(op));
                break;
            }
            debug_assert!(info.retired(), "inline actions cannot block");
            self.stats.engine_instrs += 1;

            let mut complete = slot + self.engines[eid.index()].latency();
            if let Some(effect) = info.mem {
                let (kind, addr) = match effect {
                    MemEffect::Load { addr, .. } => (AccessKind::Read, addr),
                    MemEffect::Store { addr, .. } => (AccessKind::Write, addr),
                    MemEffect::Rmw { addr, .. } => (AccessKind::Rmw, addr),
                    MemEffect::Fence => (AccessKind::Read, 0),
                };
                let is_local = local.is_some_and(|(lo, hi)| addr >= lo && addr < hi);
                if !matches!(effect, MemEffect::Fence) && !is_local {
                    match self.access_engine(mem, eid, kind, addr, slot, false) {
                        Walk::Done { at } => complete = at,
                        Walk::Blocked(_) => unreachable!("non-phantom walks cannot block"),
                    }
                }
            } else {
                match meta.class {
                    InstClass::Mul => complete += 2,
                    InstClass::Div => complete += 11,
                    _ => {}
                }
            }
            if let Some(rd) = meta.def {
                reg_ready[rd.index()] = complete;
            }
            done_max = done_max.max(complete);
        }
        // Leave the scratch all zero for the next action, even after a fault.
        while written != 0 {
            let r = written.trailing_zeros() as usize;
            ctx.regs[r] = 0;
            reg_ready[r] = 0;
            written &= written - 1;
        }
        self.inline_regs = Some(regs);
        self.inline_depth -= 1;
        if self.inline_depth == 0 {
            // Destructors deferred by this action's own evictions must run
            // now — leaving them queued would let a later constructor
            // zero-fill their unapplied data.
            self.drain_pending_dtors(mem);
        }
        done_max
    }

    /// Records why an inline action stopped; the first fault of a step
    /// is the one the run reports.
    #[cold]
    fn inline_fault(&mut self, aref: &ActionRef, fault: InlineFault) {
        let func = aref.prog.func(aref.func).name().to_string();
        self.fatal
            .get_or_insert(SimError::InlineAction { func, fault });
    }

    /// Clones a Morph ctor's or dtor's action reference out of the table
    /// (the borrow checker requires ending the `ndc` borrow before running
    /// the action). An unregistered action sets `Hw::fatal` to
    /// [`SimError::UnknownAction`] and returns `None`.
    pub(super) fn morph_action(&mut self, id: ActionId) -> Option<ActionRef> {
        match self.ndc.actions.get(id) {
            Ok(a) => Some(a.clone()),
            Err(e) => {
                self.fatal.get_or_insert(e);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use levi_isa::{ExecError, FuncId, PagedMem, ProgramBuilder, Reg};

    use super::*;
    use crate::config::MachineConfig;

    /// The line the probe action stores its sum into (through the line
    /// buffer: the store is local, so it walks nothing).
    const OBJ: Addr = 0x8000;

    /// Three actions over `(obj, view)`:
    /// - `dirty` writes every register, the last four in a callee, late
    ///   enough that each is ready long after cycle 0;
    /// - `overflow` writes two registers per level of a recursion that
    ///   overflows the call stack, faulting part-way;
    /// - `probe` reads all 64 registers before writing any but `r2`, sums
    ///   them into `r2` (so its timing waits on every `reg_ready` entry),
    ///   stores the sum to `obj` and returns (halting only if its call
    ///   stack starts empty).
    fn actions() -> (Arc<Program>, [FuncId; 3]) {
        let mut pb = ProgramBuilder::new();
        let helper = {
            let mut f = pb.function("helper");
            for r in 60..64u8 {
                f.imm(Reg(r), 0x100 + r as u64);
            }
            f.ret();
            f.finish()
        };
        let dirty = {
            let mut f = pb.function("dirty");
            f.addi(Reg(0), Reg(0), 3).addi(Reg(1), Reg(1), 5);
            for r in 2..60u8 {
                f.imm(Reg(r), 0x9e37_79b9 * r as u64 + 1);
            }
            f.call(helper).halt();
            f.finish()
        };
        let overflow = pb.declare("overflow");
        {
            let mut f = pb.define(overflow);
            f.imm(Reg(9), 7).addi(Reg(10), Reg(10), 1).call(overflow);
            // Never reached here; a probe that inherited this call stack
            // would return into it and overwrite its sum.
            f.imm(Reg(9), 0xdead).st8(Reg(0), 0, Reg(9)).halt();
            f.finish();
        }
        let probe = {
            let mut f = pb.function("probe");
            for r in 3..64u8 {
                f.add(Reg(2), Reg(2), Reg(r));
            }
            f.add(Reg(2), Reg(2), Reg(1)).st8(Reg(0), 0, Reg(2)).ret();
            f.finish()
        };
        let prog = Arc::new(pb.finish().expect("test actions validate"));
        (prog, [dirty, overflow, probe])
    }

    fn engine(tile: u32) -> EngineId {
        EngineId {
            tile,
            level: EngineLevel::Llc,
        }
    }

    /// Runs `probe` on tile 1's engine at cycle 0; returns its completion
    /// cycle and the sum it stored.
    fn run_probe(h: &mut Hw, mem: &mut PagedMem, aref: &ActionRef) -> (u64, u64) {
        let local = Some((OBJ, OBJ + LINE_SIZE));
        let done = h.run_inline_action(mem, engine(1), aref, &[OBJ, 11], 0, local);
        (done, mem.read_u64(OBJ))
    }

    #[test]
    fn inline_actions_leave_no_register_state_behind() {
        let (prog, [dirty, overflow, probe]) = actions();
        let aref = |func| ActionRef {
            prog: prog.clone(),
            func,
        };
        let mut fresh = Hw::new(MachineConfig::paper_default());
        let expect = run_probe(&mut fresh, &mut PagedMem::new(), &aref(probe));
        // The fresh probe sums zeros plus its view argument.
        assert_eq!(expect.1, 11);

        let mut h = Hw::new(MachineConfig::paper_default());
        let mut mem = PagedMem::new();
        let t = h.run_inline_action(&mut mem, engine(0), &aref(dirty), &[1, 2], 1_000_000, None);
        assert!(t > 1_000_000 && h.fatal.is_none());
        h.run_inline_action(
            &mut mem,
            engine(0),
            &aref(overflow),
            &[1, 2],
            2_000_000,
            None,
        );
        match h.fatal.take() {
            Some(SimError::InlineAction {
                fault: InlineFault::Exec(ExecError::StackOverflow(_)),
                ..
            }) => {}
            other => panic!("the recursion must overflow: {other:?}"),
        }
        assert_eq!(
            run_probe(&mut h, &mut mem, &aref(probe)),
            expect,
            "a probe after a full and a faulted action must match a fresh one"
        );
    }
}
