//! The core/engine issue pipeline: single-instruction execution with
//! timing.
//!
//! [`step_one`] executes exactly one instruction of an actor functionally
//! (via [`levi_isa::exec::execute`]) while charging its timing against the
//! scoreboard: operand-ready cycles per register, an issue-width or FU
//! cursor slot, MSHR-limited memory-level parallelism ([`mshr_limit`]),
//! fence drains, branch-predictor outcomes, and the hierarchy walk for
//! memory operations. NDC instructions are delegated to the timed host in
//! [`crate::ndc_host`]; the scheduler in [`crate::sched`] interprets the
//! returned [`StepOutcome`].

use levi_isa::{exec, Control, Inst, InstClass, InstMeta, MemOrder, PagedMem};

use crate::hw::{AccessKind, Hw, Walk};
use crate::ndc::{StreamMode, WaitCond};
use crate::ndc_host::{NoBlockHost, SpawnReq, TimedHost};
use crate::sched::Actor;

/// Everything [`step_one`] needs besides the actor itself. Kept as a
/// struct of disjoint borrows so the scheduler can hold `&mut Actor`
/// alongside it.
pub(crate) struct StepEnv<'a> {
    pub(crate) hw: &'a mut Hw,
    pub(crate) mem: &'a mut PagedMem,
    pub(crate) traces: &'a mut Vec<u64>,
    pub(crate) is_core: bool,
    pub(crate) tile: u32,
    pub(crate) engine: Option<crate::engine::EngineId>,
    /// The cycle of the run-queue entry the actor was dispatched from.
    pub(crate) dispatched_at: u64,
}

/// What the scheduler should do with the actor after one instruction.
pub(crate) enum StepOutcome {
    Continue,
    Finished,
    /// Produced by the quantum check: requeue at the given cycle.
    Yield(u64),
    Park(WaitCond),
    SleepUntil(u64),
}

/// Executes `inst`, the instruction at `a`'s PC, with its decoded `meta`
/// and issue slot `slot`; returns the outcome. Kept as a free function so
/// borrows of the machine's fields stay disjoint.
#[allow(clippy::too_many_lines)]
pub(crate) fn step_one(
    env: StepEnv<'_>,
    a: &mut Actor,
    inst: &Inst,
    meta: InstMeta,
    slot: u64,
    spawns: &mut Vec<SpawnReq>,
    wakes: &mut Vec<(WaitCond, u64)>,
) -> StepOutcome {
    use StepOutcome as O;
    let StepEnv {
        hw,
        mem,
        traces,
        is_core,
        tile,
        engine,
        dispatched_at,
    } = env;

    let count_instr = |hw: &mut Hw| {
        if is_core {
            hw.stats.core_instrs += 1;
        } else {
            hw.stats.engine_instrs += 1;
        }
    };

    match inst {
        // ---- memory instructions: pre-walk, then step ----
        Inst::Ld { ra, off, .. } | Inst::St { ra, off, .. } => {
            let addr = a.ctx.reg(*ra).wrapping_add(*off as i64 as u64);
            let is_load = matches!(inst, Inst::Ld { .. });
            let kind = if is_load {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let mut slot = slot;
            if is_core {
                slot = mshr_limit(a, hw.cfg.core.mshrs, slot);
            }
            let walk = match engine {
                None => hw.access_core(mem, tile, kind, addr, slot, true),
                Some(eid) => hw.access_engine(mem, eid, kind, addr, slot, true),
            };
            let at = match walk {
                Walk::Done { at } => at,
                Walk::Blocked(cond) => {
                    if let WaitCond::StreamData(sid) = cond {
                        // A consumer miss (re)triggers a miss-triggered
                        // producer.
                        if matches!(hw.ndc.stream(sid).mode, StreamMode::MissTriggered { .. }) {
                            wakes.push((WaitCond::StreamSpace(sid), slot));
                        }
                    }
                    return O::Park(cond);
                }
            };
            if is_load {
                hw.stats.load_to_use.record(at.saturating_sub(slot));
            }
            let info = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost)
                .expect("mem step failed");
            debug_assert!(info.retired());
            count_instr(hw);
            if let Some(rd) = meta.def {
                a.reg_ready[rd.index()] = at;
            }
            a.pending_mem.push(at);
            if a.pending_mem.len() > 128 {
                // Engines have no MSHR pruning; bound the drain set.
                let c = a.clock;
                a.pending_mem.retain(|&t| t > c);
            }
            a.clock = a.clock.max(slot);
            O::Continue
        }
        Inst::AtomicRmw { ordering, addr, .. } => {
            let target = a.ctx.reg(*addr);
            let fenced = *ordering == MemOrder::Fenced;
            let mut slot = slot;
            if fenced {
                // Drain all outstanding accesses first.
                for &p in &a.pending_mem {
                    slot = slot.max(p);
                }
            } else if is_core {
                slot = mshr_limit(a, hw.cfg.core.mshrs, slot);
            }
            let walk = match engine {
                None => hw.access_core(mem, tile, AccessKind::Rmw, target, slot, true),
                Some(eid) => hw.access_engine(mem, eid, AccessKind::Rmw, target, slot, true),
            };
            let at = match walk {
                Walk::Done { at } => at,
                Walk::Blocked(cond) => {
                    if let WaitCond::StreamData(sid) = cond {
                        if matches!(hw.ndc.stream(sid).mode, StreamMode::MissTriggered { .. }) {
                            wakes.push((WaitCond::StreamSpace(sid), slot));
                        }
                    }
                    return O::Park(cond);
                }
            };
            if fenced {
                hw.stats.fences += 1;
            }
            let info = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost)
                .expect("rmw step failed");
            debug_assert!(info.retired());
            count_instr(hw);
            if is_core {
                hw.stats.core_rmws += 1;
            }
            if let Some(rd) = meta.def {
                a.reg_ready[rd.index()] = at;
            }
            if fenced {
                // The RMW completes before anything younger issues.
                a.clock = at;
                a.pending_mem.clear();
            } else {
                a.pending_mem.push(at);
                a.clock = a.clock.max(slot);
            }
            O::Continue
        }
        Inst::Fence => {
            let mut t = slot;
            for &p in &a.pending_mem {
                t = t.max(p);
            }
            a.pending_mem.clear();
            hw.stats.fences += 1;
            let _ = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost);
            count_instr(hw);
            a.clock = t;
            O::Continue
        }

        // ---- control flow ----
        Inst::Br { .. } => {
            let pc_sig = ((a.ctx.pc.func.0 as u64) << 20) | a.ctx.pc.idx as u64;
            let info = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost)
                .expect("branch step failed");
            count_instr(hw);
            let taken = matches!(info.control, Control::Branch { taken: true });
            if let Some(pred) = a.predictor.as_mut() {
                hw.stats.branches += 1;
                let correct = pred.update(pc_sig, taken);
                if correct {
                    a.clock = a.clock.max(slot);
                } else {
                    hw.stats.mispredicts += 1;
                    a.clock = slot + hw.cfg.core.mispredict_penalty;
                }
            } else {
                a.clock = a.clock.max(slot);
            }
            O::Continue
        }
        Inst::Jmp { .. } | Inst::Call { .. } | Inst::Ret | Inst::Halt => {
            let info = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost)
                .expect("ctrl step failed");
            count_instr(hw);
            a.clock = a.clock.max(slot);
            if info.control == Control::Halt {
                // Commit semantics: outstanding stores drain before the
                // context retires.
                for &p in &a.pending_mem {
                    a.clock = a.clock.max(p);
                }
                a.pending_mem.clear();
                return O::Finished;
            }
            O::Continue
        }

        // ---- plain ALU ----
        Inst::Imm { .. } | Inst::Mov { .. } | Inst::Alu { .. } | Inst::AluI { .. } | Inst::Nop => {
            let _ = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost);
            count_instr(hw);
            let lat = if is_core {
                match meta.class {
                    InstClass::Mul => hw.cfg.core.mul_latency,
                    InstClass::Div => hw.cfg.core.div_latency,
                    _ => 1,
                }
            } else {
                let e = &hw.engines[engine.expect("engine").index()];
                e.latency().max(match meta.class {
                    InstClass::Mul => 3,
                    InstClass::Div => 12,
                    _ => e.latency(),
                })
            };
            if let Some(rd) = meta.def {
                a.reg_ready[rd.index()] = slot + lat;
            }
            a.clock = a.clock.max(slot);
            O::Continue
        }

        Inst::Trace { rs } => {
            traces.push(a.ctx.reg(*rs));
            let _ = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut NoBlockHost);
            count_instr(hw);
            a.clock = a.clock.max(slot);
            O::Continue
        }

        // ---- NDC instructions: run through the timed host ----
        Inst::Invoke { .. }
        | Inst::FutureWait { .. }
        | Inst::FutureSend { .. }
        | Inst::Push { .. }
        | Inst::Pop { .. }
        | Inst::Flush { .. } => {
            let mut host = TimedHost {
                hw,
                is_core,
                tile,
                engine,
                now: slot,
                dispatched_at,
                invoke_acks: &mut a.invoke_acks,
                invoke_count: &mut a.invoke_count,
                invoke_retries: &mut a.invoke_retries,
                pending_span: &mut a.pending_span,
                spawns,
                wakes,
                block: None,
                sleep_until: None,
                backoff_until: None,
                op_done: slot + 1,
                wait_fill: slot,
            };
            let info = exec::execute(&mut a.ctx, inst, meta.class, mem, &mut host)
                .expect("ndc step failed");
            let block = host.block;
            let sleep = host.sleep_until;
            let backoff = host.backoff_until;
            let op_done = host.op_done;
            let wait_fill = host.wait_fill;
            if !info.retired() {
                if let Some(at) = backoff {
                    // The retry issues no earlier than the end of the
                    // backoff: move the clock there, so its slot does too.
                    a.clock = a.clock.max(at);
                    return O::SleepUntil(a.clock);
                }
                if let Some(at) = sleep {
                    return O::SleepUntil(at.max(a.clock + 1));
                }
                return O::Park(block.expect("blocked NDC op must set a condition"));
            }
            count_instr(hw);
            if let Some(rd) = meta.def {
                // FutureWait: value usable once the store-update arrives.
                a.reg_ready[rd.index()] = wait_fill.max(slot) + 1;
            }
            a.clock = a.clock.max(op_done.max(slot + 1) - 1);
            O::Continue
        }
    }
}

/// Applies the core MSHR limit: delays `slot` until an outstanding-miss
/// slot frees, pruning completed entries.
pub(crate) fn mshr_limit(a: &mut Actor, mshrs: u32, slot: u64) -> u64 {
    a.pending_mem.retain(|&t| t > slot);
    let mut slot = slot;
    while a.pending_mem.len() >= mshrs as usize {
        let min = *a.pending_mem.iter().min().expect("nonempty");
        slot = slot.max(min);
        a.pending_mem.retain(|&t| t > slot);
    }
    slot
}
