//! The task-offload (invoke) scheduler — paper Sec. VI-B1.
//!
//! Resolves where an `invoke` runs (LOCAL → the issuing tile's L2 engine;
//! REMOTE → the actor's home-bank LLC engine; DYNAMIC → local if the
//! actor's line is already cached privately, else the home bank, steered
//! to a remote owner's L2 engine for EXCLUSIVE actors), applies the 1/32
//! migrate-local policy that lets hot data settle upward, and issues the
//! invoke packet with NACK/backpressure semantics: a full target engine
//! parks the sender on [`WaitCond::EngineCtx`], a full invoke buffer
//! throttles the core until an ACK returns, and a fault-refused engine
//! retries with bounded exponential backoff before falling back to a
//! software handler on the issuing core.
//!
//! With [`MachineConfig::trace`](crate::MachineConfig::trace) on, each
//! outcome of an issue attempt is recorded once: the issue, NACK, quota
//! NACK, fault-backoff and core-fallback events carry the invoke's
//! [`SpanId`](crate::span::SpanId), and the span table marks the same
//! cycle. The packet's arrival and the ACK's return are marked in the span
//! table only; the NoC events of the packet and the ACK carry the span.
//! Migrate-local decisions are counted in `invoke_migrations`.

use levi_isa::{InlineArgs, Location, Memory, NdcRequest, Poll, MAX_INVOKE_ARGS};

use crate::engine::{EngineId, EngineLevel};
use crate::ndc::WaitCond;
use crate::ndc_host::{SpawnReq, TimedHost, INVOKE_ACK};
use crate::trace::{TraceEvent, TraceKind};

/// A task's entry arguments (action ABI: `r0` = actor, `r1..` = the
/// invoke's arguments).
fn task_args(req: &NdcRequest) -> InlineArgs<{ MAX_INVOKE_ARGS + 1 }> {
    let mut args = InlineArgs::new();
    args.push(req.actor);
    for &v in req.args.iter() {
        args.push(v);
    }
    args
}

impl TimedHost<'_> {
    /// Picks the engine an invoke should run on (Sec. VI-B1).
    fn schedule_invoke(&mut self, req: &NdcRequest) -> EngineId {
        let line = req.actor >> crate::config::LINE_SHIFT;
        let local_l2 = EngineId {
            tile: self.tile,
            level: EngineLevel::L2,
        };
        let target = match req.loc {
            Location::Local => local_l2,
            Location::Remote => EngineId {
                tile: self.hw.bank_of(req.actor),
                level: EngineLevel::Llc,
            },
            Location::Dynamic => {
                if self.is_core
                    && (self.hw.l1[self.tile as usize].contains(line)
                        || self.hw.l2[self.tile as usize].contains(line))
                {
                    local_l2
                } else {
                    let bank = self.hw.bank_of(req.actor);
                    let mut t = EngineId {
                        tile: bank,
                        level: EngineLevel::Llc,
                    };
                    if req.exclusive {
                        if let Some(l) = self.hw.llc[bank as usize].peek(line) {
                            if let Some(o) = l.owner {
                                if o as u32 != self.tile {
                                    t = EngineId {
                                        tile: o as u32,
                                        level: EngineLevel::L2,
                                    };
                                }
                            }
                        }
                    }
                    t
                }
            }
        };
        // 1/32 migrate-local policy: occasionally execute a would-be
        // remote DYNAMIC task locally to let hot data settle upward.
        if req.loc == Location::Dynamic && target.tile != self.tile {
            *self.invoke_count += 1;
            if (*self.invoke_count).is_multiple_of(32) {
                self.hw.stats.invoke_migrations += 1;
                return local_l2;
            }
        }
        target
    }

    /// The full invoke issue path: backpressure, fault backoff/fallback,
    /// target scheduling, NACK, packet + ACK timing.
    pub(crate) fn do_invoke(&mut self, _mem: &mut dyn Memory, req: NdcRequest) -> Poll<()> {
        crate::perf::prof_scope!(crate::perf::Phase::Invoke);
        // Open a lifecycle span on the *first* attempt; re-executions
        // after backpressure sleeps and NACK parks reuse it, so the
        // offload stage covers the whole wait.
        if self.hw.stats.spans.enabled() && self.pending_span.is_none() {
            *self.pending_span = self.hw.stats.spans.begin(self.tile, self.now);
        }
        // Invoke-buffer backpressure (skipped for future-carrying invokes).
        if self.is_core && req.future.is_none() {
            while let Some(&front) = self.invoke_acks.front() {
                if front <= self.now {
                    self.invoke_acks.pop_front();
                } else {
                    break;
                }
            }
            let cfg_limit = self.hw.cfg.core.invoke_buffer;
            let limit = self.hw.faults.invoke_buffer_limit(cfg_limit, self.now);
            if self.invoke_acks.len() >= limit as usize {
                let earliest = *self.invoke_acks.front().expect("nonempty");
                // A re-execution before the cycle it slept to belongs to
                // a stall already charged on its first refusal.
                if limit < cfg_limit && self.now >= self.dispatched_at {
                    // This stall only exists because a squeeze shrank the
                    // buffer below its configured capacity.
                    let wait = earliest.saturating_sub(self.now);
                    self.hw.stats.fault_degraded_cycles += wait;
                    let (now, track) = (self.now, self.track());
                    self.hw.stats.trace.record(|| {
                        TraceEvent::instant(
                            now,
                            TraceKind::FaultInvokeSqueeze,
                            track,
                            &[limit as u64, wait],
                        )
                    });
                }
                self.sleep_until = Some(earliest);
                return Poll::Pending;
            }
        }

        // Resolve the action first: an unregistered id is a typed
        // mid-run fault, not a panic.
        let aref = match self.hw.ndc.actions.get(req.action) {
            Ok(a) => a.clone(),
            Err(e) => {
                self.hw.fatal = Some(e);
                self.op_done = self.now + 1;
                return Poll::Ready(());
            }
        };

        let target = self.schedule_invoke(&req);

        // Fault window: the engine refuses new tasks. Retry with bounded
        // exponential backoff; past the budget, fall back to running the
        // action on the issuing core (software-fallback virtualization).
        if !self.hw.faults.is_empty() && self.hw.faults.engine_refusing(target, self.now) {
            self.hw.stats.invoke_nacks += 1;
            *self.invoke_retries += 1;
            let retries = *self.invoke_retries;
            let (now, track) = (self.now, self.track());
            if retries <= self.hw.faults.retry_budget {
                let delay = self.hw.faults.backoff_delay(retries);
                self.hw.stats.fault_nack_retries += 1;
                self.hw.stats.fault_degraded_cycles += delay;
                self.hw.stats.fault_backoff.record(delay);
                let span = *self.pending_span;
                self.hw.stats.trace.record(|| {
                    TraceEvent::instant(
                        now,
                        TraceKind::FaultInvokeBackoff,
                        track,
                        &[target.tile as u64, retries as u64, delay],
                    )
                    .with_span(span)
                });
                if let Some(id) = span {
                    self.hw.stats.spans.note_retry(id);
                }
                self.backoff_until = Some(now + delay);
                return Poll::Pending;
            }
            *self.invoke_retries = 0;
            self.hw.stats.fault_fallbacks += 1;
            let span = self.pending_span.take();
            self.hw.stats.trace.record(|| {
                TraceEvent::instant(
                    now,
                    TraceKind::FaultCoreFallback,
                    track,
                    &[target.tile as u64, req.actor],
                )
                .with_span(span)
            });
            if let Some(id) = span {
                self.hw.stats.spans.note_issue(id, now, target, true);
            }
            self.spawns.push(SpawnReq {
                engine: target,
                func: aref.func,
                prog: aref.prog,
                args: task_args(&req),
                start: now + 1,
                fallback_core: Some(self.tile),
                span,
            });
            self.op_done = now + 1;
            return Poll::Ready(());
        }
        if *self.invoke_retries != 0 {
            *self.invoke_retries = 0;
        }

        // Engine-slot quota (crate::xlat): a tenant invoking an engine
        // outside its tile block NACKs once the engine holds `quota`
        // contexts, reserving the rest for the owner. Parks on the same
        // condition as a context NACK — a release re-evaluates the quota.
        if let Some(tm) = &self.hw.tenants {
            let in_use = self.hw.engines[target.index()].ctxs_in_use();
            if tm.quota_blocks(self.tile, target, in_use) {
                self.hw.stats.tenant_quota_nacks += 1;
                self.note_nack(TraceKind::InvokeQuotaNack, target);
                self.block = Some(WaitCond::EngineCtx(target));
                return Poll::Pending;
            }
        }

        if !self.hw.engines[target.index()].try_reserve_ctx() {
            self.note_nack(TraceKind::InvokeNack, target);
            self.block = Some(WaitCond::EngineCtx(target));
            return Poll::Pending;
        }
        self.hw.stats.invokes += 1;
        if let Some(tm) = &self.hw.tenants {
            let ten = tm.tenant_of(self.tile) as usize;
            if let Some(c) = self.hw.stats.tenant_invokes.get_mut(ten) {
                *c += 1;
            }
        }
        let (now, track) = (self.now, self.track());
        let span = self.pending_span.take();
        self.hw.stats.trace.record(|| {
            TraceEvent::instant(
                now,
                TraceKind::InvokeIssue,
                track,
                &[target.tile as u64, req.actor],
            )
            .with_span(span)
        });
        if let Some(id) = span {
            self.hw.stats.spans.note_issue(id, now, target, false);
        }

        // Invoke packet: header + actor + action + args (+ future).
        let bytes = 24 + 8 * req.args.len() as u32 + if req.future.is_some() { 8 } else { 0 };
        let arrival = self.hw.noc.send_tagged(
            self.tile,
            target.tile,
            bytes,
            self.now,
            &mut self.hw.stats,
            span,
        );
        if let Some(id) = span {
            self.hw.stats.spans.note_arrival(id, arrival);
        }

        self.spawns.push(SpawnReq {
            engine: target,
            func: aref.func,
            prog: aref.prog,
            args: task_args(&req),
            start: arrival,
            fallback_core: None,
            span,
        });
        if self.is_core && req.future.is_none() {
            // ACK returns once the engine accepts the task.
            let ack = self.hw.noc.send_tagged(
                target.tile,
                self.tile,
                INVOKE_ACK,
                arrival,
                &mut self.hw.stats,
                span,
            );
            self.hw
                .stats
                .invoke_rtt
                .record(ack.saturating_sub(self.now));
            if let Some(id) = span {
                self.hw.stats.spans.note_ack(id, ack);
            }
            self.invoke_acks.push_back(ack);
        }
        self.op_done = self.now + 1;
        Poll::Ready(())
    }

    /// Counts a NACK of kind `kind` from `target`'s engine and records it
    /// against the pending invoke, in the tracer and in its span; the
    /// caller parks.
    fn note_nack(&mut self, kind: TraceKind, target: EngineId) {
        self.hw.stats.invoke_nacks += 1;
        let (now, track, span) = (self.now, self.track(), *self.pending_span);
        self.hw.stats.trace.record(|| {
            TraceEvent::instant(now, kind, track, &[target.tile as u64]).with_span(span)
        });
        if let Some(id) = span {
            self.hw.stats.spans.note_nack(id);
        }
    }
}
