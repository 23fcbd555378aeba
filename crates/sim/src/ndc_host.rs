//! The timed NDC host: Table III's per-paradigm microarchitectural
//! support.
//!
//! [`TimedHost`] is handed to [`levi_isa::exec::step`] for NDC
//! instructions. It charges the timing of futures (store-update
//! propagation), streams (push/pop, line-crossing invalidation
//! notifications), and range flushes, and collects side effects (task
//! spawns, wake conditions) for the scheduler to apply after the step.
//! The invoke path — target selection, NACK/backpressure, fault backoff,
//! and the 1/32 migrate-local policy — lives in [`crate::invoke`].
//! [`NoBlockHost`] is the no-op host used for non-NDC instructions, which
//! never call host methods.

use std::collections::VecDeque;

use levi_isa::interp::future_layout;
use levi_isa::{
    Addr, FuncId, InlineArgs, Memory, NdcHost, NdcRequest, Poll, Program, MAX_INVOKE_ARGS,
};

use crate::engine::EngineId;
use crate::hw::{AccessKind, Hw, Walk, CTRL_MSG};
use crate::ndc::{StreamId, StreamMode, WaitCond};
use crate::trace::{TraceEvent, TraceKind, Track};

/// ACK message size for invoke backpressure.
pub(crate) const INVOKE_ACK: u32 = 8;
/// Pop-notification message size.
pub(crate) const INVAL_NOTIFY: u32 = 8;

/// A request (from the NDC host) to create an engine task — or, for
/// fault-degraded invokes past the retry budget, a core-fallback thread.
pub(crate) struct SpawnReq {
    pub(crate) engine: EngineId,
    pub(crate) func: FuncId,
    pub(crate) prog: std::sync::Arc<Program>,
    /// The task's entry arguments: the actor, then the invoke's arguments.
    pub(crate) args: InlineArgs<{ MAX_INVOKE_ARGS + 1 }>,
    pub(crate) start: u64,
    /// When set, spawn as a software handler thread on this core instead
    /// of as an engine task (fault fallback).
    pub(crate) fallback_core: Option<u32>,
    /// The invoke-lifecycle span this spawn continues (None when span
    /// tracing is off; see [`crate::span`]).
    pub(crate) span: Option<crate::span::SpanId>,
}

/// Host used for non-NDC instructions (they never call host methods).
pub(crate) struct NoBlockHost;

impl NdcHost for NoBlockHost {
    fn invoke(&mut self, _mem: &mut dyn Memory, _req: NdcRequest) -> Poll<()> {
        unreachable!("invoke outside TimedHost")
    }
    fn future_wait(&mut self, _mem: &mut dyn Memory, _fut: Addr) -> Poll<u64> {
        unreachable!("future_wait outside TimedHost")
    }
    fn future_send(&mut self, _mem: &mut dyn Memory, _fut: Addr, _val: u64) {
        unreachable!("future_send outside TimedHost")
    }
    fn push(&mut self, _mem: &mut dyn Memory, _stream: u64, _val: u64) -> Poll<()> {
        unreachable!("push outside TimedHost")
    }
    fn pop(&mut self, _mem: &mut dyn Memory, _stream: u64) {
        unreachable!("pop outside TimedHost")
    }
    fn flush(&mut self, _mem: &mut dyn Memory, _addr: Addr, _len: u64) {
        unreachable!("flush outside TimedHost")
    }
}

/// The timed NDC host: implements Table III's microarchitectural support.
pub(crate) struct TimedHost<'a> {
    pub(crate) hw: &'a mut Hw,
    pub(crate) is_core: bool,
    pub(crate) tile: u32,
    /// The issuing engine when this context is an engine task.
    pub(crate) engine: Option<EngineId>,
    pub(crate) now: u64,
    /// The cycle of the run-queue entry the context was dispatched from.
    /// An attempt whose slot (`now`) is earlier re-executes an invoke that
    /// was refused before a backpressure sleep.
    pub(crate) dispatched_at: u64,
    pub(crate) invoke_acks: &'a mut VecDeque<u64>,
    pub(crate) invoke_count: &'a mut u32,
    pub(crate) invoke_retries: &'a mut u32,
    /// The open span of the invoke currently being issued. Survives
    /// backpressure sleeps and NACK parks (so the span's first attempt
    /// anchors the offload stage); cleared when the invoke issues or
    /// falls back.
    pub(crate) pending_span: &'a mut Option<crate::span::SpanId>,
    pub(crate) spawns: &'a mut Vec<SpawnReq>,
    pub(crate) wakes: &'a mut Vec<(WaitCond, u64)>,
    pub(crate) block: Option<WaitCond>,
    /// Invoke-buffer backpressure: re-execute the instruction at this
    /// cycle (its issue slot keeps advancing one late grant per retry).
    pub(crate) sleep_until: Option<u64>,
    /// Fault backoff: retry the instruction no earlier than this cycle.
    pub(crate) backoff_until: Option<u64>,
    pub(crate) op_done: u64,
    pub(crate) wait_fill: u64,
}

impl TimedHost<'_> {
    /// The trace track of the issuing context.
    pub(crate) fn track(&self) -> Track {
        match self.engine {
            Some(e) => Track::Engine(e),
            None => Track::Core(self.tile),
        }
    }
}

impl NdcHost for TimedHost<'_> {
    fn invoke(&mut self, mem: &mut dyn Memory, req: NdcRequest) -> Poll<()> {
        self.do_invoke(mem, req)
    }

    fn future_wait(&mut self, mem: &mut dyn Memory, fut: Addr) -> Poll<u64> {
        if future_layout::is_filled(mem, fut) {
            let arrival = self
                .hw
                .ndc
                .futures
                .get(&fut)
                .map_or(self.now, |f| f.arrival);
            self.wait_fill = arrival;
            Poll::Ready(future_layout::value(mem, fut))
        } else {
            self.block = Some(WaitCond::FutureFill(fut));
            Poll::Pending
        }
    }

    fn future_send(&mut self, mem: &mut dyn Memory, fut: Addr, val: u64) {
        future_layout::fill(mem, fut, val);
        // The NDC host path translates too: the store-update targets the
        // future's virtual address, so the sender's TLB gates it exactly
        // like a probe-path access (crate::xlat; free when disabled).
        let t = self.hw.translate(self.tile, fut, self.now);
        // store-update: the value travels to the waiter's core; we use the
        // future's home bank as the destination proxy when no waiter is
        // parked yet.
        let dest = self.hw.bank_of(fut);
        let arrival = self
            .hw
            .noc
            .send(self.tile, dest, CTRL_MSG, t, &mut self.hw.stats);
        self.hw
            .ndc
            .futures
            .insert(fut, crate::ndc::FutureFill { arrival });
        self.wakes.push((WaitCond::FutureFill(fut), arrival));
        self.op_done = self.now + 1;
    }

    fn push(&mut self, mem: &mut dyn Memory, stream: u64, val: u64) -> Poll<()> {
        let sid = StreamId(stream as u32);
        let s = self.hw.ndc.stream(sid);
        if s.is_full() {
            self.block = Some(WaitCond::StreamSpace(sid));
            return Poll::Pending;
        }
        let addr = s.entry_addr(s.tail);
        let eng = s.engine;
        mem.write_u64(addr, val);
        let done = match self
            .hw
            .access_engine(mem, eng, AccessKind::Write, addr, self.now, false)
        {
            Walk::Done { at } => at,
            Walk::Blocked(_) => unreachable!("buffer writes cannot block"),
        };
        let s = self.hw.ndc.stream_mut(sid);
        s.tail += 1;
        let depth = s.len();
        self.hw.stats.stream_pushes += 1;
        self.hw.stats.trace.record(|| {
            TraceEvent::instant(
                done,
                TraceKind::StreamPush,
                Track::Engine(eng),
                &[sid.0 as u64, depth],
            )
        });
        self.wakes.push((WaitCond::StreamData(sid), done));
        self.op_done = self.now + 1;
        Poll::Ready(())
    }

    fn pop(&mut self, _mem: &mut dyn Memory, stream: u64) {
        let sid = StreamId(stream as u32);
        let (old_addr, new_addr, engine, consumer) = {
            let s = self.hw.ndc.stream_mut(sid);
            debug_assert!(s.head < s.tail, "pop past the stream tail");
            let old = s.entry_addr(s.head);
            s.head += 1;
            let new = s.entry_addr(s.head);
            (old, new, s.engine, s.consumer)
        };
        self.hw.stats.stream_pops += 1;
        let depth = self.hw.ndc.stream(sid).len();
        let (now, track) = (self.now, self.track());
        self.hw.stats.trace.record(|| {
            TraceEvent::instant(now, TraceKind::StreamPop, track, &[sid.0 as u64, depth])
        });
        let run_ahead = matches!(self.hw.ndc.stream(sid).mode, StreamMode::RunAhead);
        let old_line = old_addr >> crate::config::LINE_SHIFT;
        let new_line = new_addr >> crate::config::LINE_SHIFT;
        if old_line != new_line {
            // Head crossed a line: invalidate the dead line at the consumer
            // and notify the producing engine.
            self.hw.l1[consumer as usize].invalidate(old_line);
            self.hw.l2[consumer as usize].invalidate(old_line);
            let arrival = self.hw.noc.send(
                consumer,
                engine.tile,
                INVAL_NOTIFY,
                self.now,
                &mut self.hw.stats,
            );
            if run_ahead {
                self.wakes.push((WaitCond::StreamSpace(sid), arrival));
            }
        } else if run_ahead {
            self.wakes.push((WaitCond::StreamSpace(sid), self.now + 1));
        }
        // Miss-triggered producers are only re-activated by consumer
        // misses (they cannot run ahead of demand, Sec. VIII-C).
        self.op_done = self.now + 1;
    }

    fn flush(&mut self, mem: &mut dyn Memory, addr: Addr, len: u64) {
        let t = self.hw.flush_range(mem, addr, len, self.now);
        self.op_done = t.max(self.now + 1);
    }
}
