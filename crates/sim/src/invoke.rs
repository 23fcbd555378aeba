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
//! With [`MachineConfig::trace_sched`](crate::MachineConfig::trace_sched)
//! enabled, every decision is recorded in the `sched` trace category:
//! `sched.place` (where an invoke was sent and why), `sched.nack`
//! (target engine out of contexts), and `sched.migrate_local` (the 1/32
//! policy overrode a remote placement).

use levi_isa::{Location, Memory, NdcRequest, Poll};

use crate::engine::{EngineId, EngineLevel};
use crate::ndc::WaitCond;
use crate::ndc_host::{SpawnReq, TimedHost, INVOKE_ACK};
use crate::span::SpanId;
use crate::trace::{TraceCategory, TraceEvent, Track};

/// Compact encoding of a placement decision for `sched.place` trace
/// events: how the target engine was chosen.
enum Placement {
    /// LOCAL request → issuing tile's L2 engine.
    Local = 0,
    /// REMOTE request → actor's home-bank LLC engine.
    Remote = 1,
    /// DYNAMIC probe hit the issuing tile's private caches → local.
    DynamicCached = 2,
    /// DYNAMIC probe missed → actor's home bank.
    DynamicHome = 3,
    /// DYNAMIC + EXCLUSIVE with a remote owner → the owner's L2 engine.
    DynamicOwner = 4,
    /// The 1/32 migrate-local policy overrode a remote placement.
    MigrateLocal = 5,
}

impl TimedHost<'_> {
    /// Records one invoke-lifecycle stage event in the `span` trace
    /// category, carrying the span id (plus up to two extra arguments)
    /// so the Chrome export can flow-link the stages. Only reached when
    /// spans are enabled, so span-disabled traced runs stay
    /// byte-identical.
    fn span_event(
        &mut self,
        id: SpanId,
        name: &'static str,
        at: u64,
        track: Track,
        extra: &[(&'static str, u64)],
    ) {
        debug_assert!(extra.len() <= 2, "span id plus at most two extras");
        let mut args = [("span", id.0 as u64), ("", 0), ("", 0)];
        let n = 1 + extra.len();
        args[1..n].copy_from_slice(extra);
        self.hw
            .stats
            .trace
            .record(|| TraceEvent::instant(at, TraceCategory::Span, name, track, &args[..n]));
    }

    /// Picks the engine an invoke should run on (Sec. VI-B1).
    fn schedule_invoke(&mut self, req: &NdcRequest) -> EngineId {
        let line = req.actor >> crate::config::LINE_SHIFT;
        let local_l2 = EngineId {
            tile: self.tile,
            level: EngineLevel::L2,
        };
        let (target, mut placement) = match req.loc {
            Location::Local => (local_l2, Placement::Local),
            Location::Remote => (
                EngineId {
                    tile: self.hw.bank_of(req.actor),
                    level: EngineLevel::Llc,
                },
                Placement::Remote,
            ),
            Location::Dynamic => {
                if self.is_core
                    && (self.hw.l1[self.tile as usize].contains(line)
                        || self.hw.l2[self.tile as usize].contains(line))
                {
                    (local_l2, Placement::DynamicCached)
                } else {
                    let bank = self.hw.bank_of(req.actor);
                    let mut t = EngineId {
                        tile: bank,
                        level: EngineLevel::Llc,
                    };
                    let mut p = Placement::DynamicHome;
                    if req.exclusive {
                        if let Some(l) = self.hw.llc[bank as usize].peek(line) {
                            if let Some(o) = l.owner {
                                if o as u32 != self.tile {
                                    t = EngineId {
                                        tile: o as u32,
                                        level: EngineLevel::L2,
                                    };
                                    p = Placement::DynamicOwner;
                                }
                            }
                        }
                    }
                    (t, p)
                }
            }
        };
        // 1/32 migrate-local policy: occasionally execute a would-be
        // remote DYNAMIC task locally to let hot data settle upward.
        let mut target = target;
        if req.loc == Location::Dynamic && target.tile != self.tile {
            *self.invoke_count += 1;
            if (*self.invoke_count).is_multiple_of(32) {
                self.hw.stats.invoke_migrations += 1;
                if self.hw.cfg.trace_sched {
                    let (now, track) = (self.now, self.track());
                    let from = target.tile as u64;
                    self.hw.stats.trace.record(|| {
                        TraceEvent::instant(
                            now,
                            TraceCategory::Sched,
                            "sched.migrate_local",
                            track,
                            &[("from", from), ("actor_addr", req.actor)],
                        )
                    });
                }
                target = local_l2;
                placement = Placement::MigrateLocal;
            }
        }
        if self.hw.cfg.trace_sched {
            let (now, track) = (self.now, self.track());
            let t_tile = target.tile as u64;
            let p = placement as u64;
            self.hw.stats.trace.record(|| {
                TraceEvent::instant(
                    now,
                    TraceCategory::Sched,
                    "sched.place",
                    track,
                    &[("target", t_tile), ("policy", p), ("actor_addr", req.actor)],
                )
            });
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
                            TraceCategory::Fault,
                            "fault.invoke_squeeze",
                            track,
                            &[("limit", limit as u64), ("wait", wait)],
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
                self.hw.stats.trace.record(|| {
                    TraceEvent::instant(
                        now,
                        TraceCategory::Fault,
                        "fault.invoke_backoff",
                        track,
                        &[
                            ("target", target.tile as u64),
                            ("retry", retries as u64),
                            ("delay", delay),
                        ],
                    )
                });
                if let Some(id) = *self.pending_span {
                    self.hw.stats.spans.note_retry(id);
                    self.span_event(
                        id,
                        "span.retried",
                        now,
                        track,
                        &[("retry", retries as u64), ("delay", delay)],
                    );
                }
                self.backoff_until = Some(now + delay);
                return Poll::Pending;
            }
            *self.invoke_retries = 0;
            self.hw.stats.fault_fallbacks += 1;
            self.hw.stats.trace.record(|| {
                TraceEvent::instant(
                    now,
                    TraceCategory::Fault,
                    "fault.core_fallback",
                    track,
                    &[("target", target.tile as u64), ("actor_addr", req.actor)],
                )
            });
            let span = self.pending_span.take();
            if let Some(id) = span {
                self.hw.stats.spans.note_issue(id, now, target, true);
                self.span_event(
                    id,
                    "span.issued",
                    now,
                    track,
                    &[("target", target.tile as u64), ("fallback", 1)],
                );
            }
            let mut args = Vec::with_capacity(1 + req.args.len());
            args.push(req.actor);
            args.extend_from_slice(&req.args);
            self.spawns.push(SpawnReq {
                engine: target,
                func: aref.func,
                prog: aref.prog,
                args,
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
                self.hw.stats.invoke_nacks += 1;
                self.hw.stats.tenant_quota_nacks += 1;
                let (now, track) = (self.now, self.track());
                self.hw.stats.trace.record(|| {
                    TraceEvent::instant(
                        now,
                        TraceCategory::Invoke,
                        "invoke.quota_nack",
                        track,
                        &[("target", target.tile as u64)],
                    )
                });
                if let Some(id) = *self.pending_span {
                    self.hw.stats.spans.note_nack(id);
                    self.span_event(
                        id,
                        "span.nacked",
                        now,
                        track,
                        &[("target", target.tile as u64)],
                    );
                }
                self.block = Some(WaitCond::EngineCtx(target));
                return Poll::Pending;
            }
        }

        if !self.hw.engines[target.index()].try_reserve_ctx() {
            self.hw.stats.invoke_nacks += 1;
            let (now, track) = (self.now, self.track());
            self.hw.stats.trace.record(|| {
                TraceEvent::instant(
                    now,
                    TraceCategory::Invoke,
                    "invoke.nack",
                    track,
                    &[("target", target.tile as u64)],
                )
            });
            if self.hw.cfg.trace_sched {
                self.hw.stats.trace.record(|| {
                    TraceEvent::instant(
                        now,
                        TraceCategory::Sched,
                        "sched.nack",
                        track,
                        &[("target", target.tile as u64), ("actor_addr", req.actor)],
                    )
                });
            }
            if let Some(id) = *self.pending_span {
                self.hw.stats.spans.note_nack(id);
                self.span_event(
                    id,
                    "span.nacked",
                    now,
                    track,
                    &[("target", target.tile as u64)],
                );
            }
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
        self.hw.stats.trace.record(|| {
            TraceEvent::instant(
                now,
                TraceCategory::Invoke,
                "invoke.issue",
                track,
                &[("target", target.tile as u64), ("actor_addr", req.actor)],
            )
        });
        let span = self.pending_span.take();
        if let Some(id) = span {
            self.hw.stats.spans.note_issue(id, now, target, false);
            self.span_event(
                id,
                "span.issued",
                now,
                track,
                &[("target", target.tile as u64)],
            );
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
            self.span_event(id, "span.enqueued", arrival, Track::Engine(target), &[]);
        }

        let mut args = Vec::with_capacity(1 + req.args.len());
        args.push(req.actor);
        args.extend_from_slice(&req.args);
        self.spawns.push(SpawnReq {
            engine: target,
            func: aref.func,
            prog: aref.prog,
            args,
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
                self.span_event(id, "span.responded", ack, Track::Core(self.tile), &[]);
            }
            self.invoke_acks.push_back(ack);
        }
        self.op_done = self.now + 1;
        Poll::Ready(())
    }
}
