//! The deterministic scheduler: actors, the run queue, park/wake
//! conditions, and deadlock diagnostics.
//!
//! Every execution context (a core thread or an engine task) is an
//! `Actor` in a single binary-heap run queue ordered by
//! `(cycle, sequence, id)` — the sequence number makes same-cycle ordering
//! deterministic, so a run is a pure function of its inputs. Actors run
//! ahead of the global clock by at most a configurable quantum, then
//! yield; blocking operations park an actor on a
//! [`WaitCond`] until the matching wake fires. When
//! the queue drains with core threads still parked, [`Machine::run`]
//! reports every stuck actor as a [`ParkedActor`] — the core half and the
//! engine half of a cycle usually appear together in the report.
//!
//! # Sleeps and the retry fast-forward
//!
//! A core whose invoke buffer is full sleeps until its oldest ACK returns:
//! it is re-pushed at that cycle `E` without its clock moving. Every
//! dispatch at `E` re-executes the `Invoke`, which takes the next late
//! slot of the core's issue cursor (width `W`); the invoke is refused
//! while that slot is earlier than `E`, and the core is re-pushed at `E`
//! with a fresh sequence number. The slot thus creeps up to `E`, one
//! cycle per `W` retries, and cores asleep on the same `E` take turns
//! round-robin — that order decides which of them issues first. Every
//! other enqueue (spawn, wake, yield) is at the actor's own clock, so an
//! entry ahead of its actor's clock is a sleep, and without faults only
//! backpressure sleeps.
//!
//! Replaying that round-robin one dispatch per retry cost ~195 dispatches
//! per invoke on PHI. When the plan has no faults and every live entry at
//! the popped cycle is a sleeping core, `fast_forward_sleepers` computes
//! each sleeper's remaining refusals from its cursor, applies the rounds
//! up to the first sleeper that issues in one step, and dispatches that
//! sleeper, leaving the queue as the retries would have. A group mixed
//! with other entries, and every run with faults, keeps the per-retry
//! path. Resuming a sleeper straight at `E` would be simpler but is not
//! the same model: it issues same-cycle sleepers in sequence order rather
//! than in round-robin order, which moves Fig. 5's quick-scale Leviathan
//! from 329,176 to 330,306 cycles and Fig. 22's 1-entry row from 403,978
//! to 409,254.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use levi_isa::{exec, ExecCtx, FuncId, InstClass, Program, NUM_REGS};

use crate::branch::Gshare;
use crate::core_pipe::{step_one, StepEnv, StepOutcome};
use crate::engine::{EngineId, FuCursor};
use crate::error::SimError;
use crate::machine::Machine;
use crate::ndc::{StreamId, StreamMode, WaitCond};
use crate::trace::{TraceEvent, TraceKind, Track};

/// Identifies an execution context (a core thread or an engine task).
pub type ActorId = u32;

/// What kind of context an actor is.
#[derive(Clone, Debug)]
pub(crate) enum ActorKind {
    /// A software thread pinned to a core.
    CoreThread { core: u32 },
    /// An offloaded task or long-lived action on an engine.
    EngineTask {
        engine: EngineId,
        /// Whether a task context was reserved (released on halt).
        reserved_ctx: bool,
        /// The producer side of this stream, if this is a `genStream` task.
        stream: Option<StreamId>,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ActorState {
    Runnable,
    Parked(WaitCond),
    Done,
}

pub(crate) struct Actor {
    pub(crate) kind: ActorKind,
    pub(crate) prog: Arc<Program>,
    pub(crate) ctx: ExecCtx,
    /// Local clock: the cycle of the last issued instruction.
    pub(crate) clock: u64,
    pub(crate) reg_ready: [u64; NUM_REGS],
    /// Completion times of outstanding memory accesses (for MSHR limits
    /// and fences).
    pub(crate) pending_mem: Vec<u64>,
    /// Core issue-width cursor (cores only).
    pub(crate) issue: FuCursor,
    /// Branch predictor (cores only).
    pub(crate) predictor: Option<Gshare>,
    /// In-flight invoke ACK times (cores' invoke buffer).
    pub(crate) invoke_acks: VecDeque<u64>,
    /// Deterministic counter for the 1/32 DYNAMIC migrate-local policy.
    pub(crate) invoke_count: u32,
    /// Consecutive fault-induced NACK retries on the current invoke
    /// (reset on a successful issue or a core fallback).
    pub(crate) invoke_retries: u32,
    /// Open span of the invoke this actor is currently issuing (spans
    /// enabled only; survives backpressure/NACK re-execution).
    pub(crate) pending_span: Option<crate::span::SpanId>,
    /// The invoke span this actor's task continues (engine tasks and
    /// fault-fallback handlers; closed at retire).
    pub(crate) span: Option<crate::span::SpanId>,
    pub(crate) state: ActorState,
    pub(crate) sched_seq: u64,
    /// Cycle at which the current park began (for stall accounting).
    pub(crate) parked_at: u64,
}

impl Actor {
    /// A new slot for [`Actor::reset`] to fill; none of these values is
    /// ever seen.
    fn vacant(prog: Arc<Program>) -> Self {
        Actor {
            kind: ActorKind::CoreThread { core: 0 },
            prog,
            ctx: ExecCtx::new(FuncId(0), &[]),
            clock: 0,
            reg_ready: [0; NUM_REGS],
            pending_mem: Vec::new(),
            issue: FuCursor::new(1),
            predictor: None,
            invoke_acks: VecDeque::new(),
            invoke_count: 0,
            invoke_retries: 0,
            pending_span: None,
            span: None,
            state: ActorState::Done,
            sched_seq: 0,
            parked_at: 0,
        }
    }

    /// Gives every field its starting value for a context of `kind`
    /// entering `func(args…)` at `clock`. New and recycled slots both come
    /// through here; a recycled slot is reset in place and keeps its
    /// buffers' capacity, so offloading a task allocates nothing.
    fn reset(
        &mut self,
        kind: ActorKind,
        core_cfg: crate::config::CoreConfig,
        prog: Arc<Program>,
        func: FuncId,
        args: &[u64],
        clock: u64,
    ) {
        // Destructured so that a new field cannot be left out.
        let Actor {
            kind: slot_kind,
            prog: slot_prog,
            ctx,
            clock: slot_clock,
            reg_ready,
            pending_mem,
            issue,
            predictor,
            invoke_acks,
            invoke_count,
            invoke_retries,
            pending_span,
            span,
            state,
            sched_seq,
            parked_at,
        } = self;
        let is_core = matches!(kind, ActorKind::CoreThread { .. });
        *issue = FuCursor::new(if is_core { core_cfg.issue_width } else { 64 });
        *predictor = is_core.then(|| Gshare::new(core_cfg.predictor_bits));
        *slot_kind = kind;
        *slot_prog = prog;
        ctx.regs = [0; NUM_REGS];
        ctx.enter(func, args);
        *slot_clock = clock;
        *reg_ready = [clock; NUM_REGS];
        pending_mem.clear();
        invoke_acks.clear();
        *invoke_count = 0;
        *invoke_retries = 0;
        *pending_span = None;
        *span = None;
        *state = ActorState::Runnable;
        *sched_seq = 0;
        *parked_at = 0;
    }
}

/// Result of [`Machine::run`].
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Absolute cycle count when every core thread had halted.
    pub cycles: u64,
}

/// The unit a parked actor belongs to (deadlock diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkOwner {
    /// A software thread on the given core.
    Core(u32),
    /// A task on the given engine.
    Engine(EngineId),
}

impl fmt::Display for ParkOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParkOwner::Core(c) => write!(f, "core {c}"),
            ParkOwner::Engine(e) => write!(f, "{e}"),
        }
    }
}

/// One actor found parked when the run queue drained (deadlock
/// diagnostics): what it waits on, where it lives, and for how long it has
/// been stuck.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParkedActor {
    /// The parked actor.
    pub actor: ActorId,
    /// The condition it is waiting on.
    pub cond: WaitCond,
    /// The core or engine the actor runs on.
    pub owner: ParkOwner,
    /// Cycle the park began.
    pub parked_at: u64,
    /// Cycles parked when the deadlock was detected.
    pub parked_for: u64,
}

impl fmt::Display for ParkedActor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "actor {} on {}: waiting on {}, parked {} cycles (since cycle {})",
            self.actor, self.owner, self.cond, self.parked_for, self.parked_at
        )
    }
}

/// Errors from [`Machine::run`].
#[derive(Clone, Debug)]
pub enum RunError {
    /// The run queue drained while core threads were still parked — a
    /// deadlock. Reports every parked actor (cores first by id, then any
    /// parked engine tasks for context).
    Deadlock(Vec<ParkedActor>),
    /// The watchdog fired: the simulated clock passed
    /// [`MachineConfig::max_cycles`](crate::MachineConfig::max_cycles)
    /// without the run completing.
    Watchdog {
        /// The configured limit.
        limit: u64,
        /// The clock value that tripped it.
        at: u64,
    },
    /// A typed simulator error surfaced mid-run (e.g. a program invoked an
    /// unregistered action).
    Fault(SimError),
    /// Checkpoint self-verification failed: a replica restored from the
    /// run's last mid-run checkpoint did not reproduce the original
    /// outcome (see
    /// [`MachineConfig::checkpoint_verified`](crate::MachineConfig::checkpoint_verified)).
    SnapshotDivergence {
        /// Cycle the diverging checkpoint was taken at.
        checkpoint_cycle: u64,
        /// `(cycles, stats digest)` of the original run.
        expect: (u64, u64),
        /// `(cycles, stats digest)` of the restored replica.
        got: (u64, u64),
    },
    /// The run's last mid-run checkpoint could not be restored during
    /// self-verification.
    SnapshotRestore(crate::snapshot::SnapshotError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock(v) => {
                let cores = v
                    .iter()
                    .filter(|p| matches!(p.owner, ParkOwner::Core(_)))
                    .count();
                write!(f, "deadlock: {cores} core context(s) parked")?;
                for p in v {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
            RunError::Watchdog { limit, at } => write!(
                f,
                "watchdog: simulated clock reached cycle {at} without completing (limit {limit})"
            ),
            RunError::Fault(e) => write!(f, "simulation fault: {e}"),
            RunError::SnapshotDivergence {
                checkpoint_cycle,
                expect,
                got,
            } => write!(
                f,
                "snapshot divergence: replica restored from the checkpoint at cycle \
                 {checkpoint_cycle} finished at cycle {} with stats digest {:#018x} \
                 (original: cycle {} digest {:#018x})",
                got.0, got.1, expect.0, expect.1
            ),
            RunError::SnapshotRestore(e) => {
                write!(f, "snapshot verification could not restore checkpoint: {e}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl Machine {
    /// Installs `actor` into a recycled slot or appends a new one.
    /// Installs a context of `kind` entering `func(args…)` at `clock`, in
    /// a recycled slot when one is free. The caller enqueues it.
    pub(crate) fn install_actor(
        &mut self,
        kind: ActorKind,
        prog: Arc<Program>,
        func: FuncId,
        args: &[u64],
        clock: u64,
    ) -> ActorId {
        let aid = match self.free_slots.pop() {
            Some(aid) => aid,
            None => {
                self.actors.push(Actor::vacant(prog.clone()));
                (self.actors.len() - 1) as ActorId
            }
        };
        let core_cfg = self.hw.cfg.core;
        self.actors[aid as usize].reset(kind, core_cfg, prog, func, args, clock);
        aid
    }

    pub(crate) fn enqueue(&mut self, aid: ActorId, at: u64) {
        self.seq += 1;
        let a = &mut self.actors[aid as usize];
        a.sched_seq = self.seq;
        a.state = ActorState::Runnable;
        self.runq.push(Reverse((at, self.seq, aid)));
    }

    pub(crate) fn wake(&mut self, cond: WaitCond, at: u64) {
        let Some(mut list) = self.waiters.remove(&cond) else {
            return;
        };
        for aid in list.drain(..) {
            let a = &mut self.actors[aid as usize];
            if a.state == ActorState::Parked(cond) {
                if let WaitCond::StreamData(sid) = cond {
                    let stall = at.saturating_sub(a.parked_at);
                    self.hw.stats.stream_stall_cycles += stall;
                    self.hw.stats.stream_stall.record(stall);
                    let track = match a.kind {
                        ActorKind::CoreThread { core } => Track::Core(core),
                        ActorKind::EngineTask { engine, .. } => Track::Engine(engine),
                    };
                    let parked_at = a.parked_at;
                    self.hw.stats.trace.record(|| {
                        TraceEvent::lasting(
                            parked_at,
                            stall,
                            TraceKind::StreamStall,
                            track,
                            &[sid.0 as u64],
                        )
                    });
                }
                a.clock = a.clock.max(at);
                // Miss-triggered pseudo-stream producers pay a
                // re-initialization cost on every activation
                // (paper Sec. VIII-C: tako must rebuild its BDFS state per
                // triggered line).
                if let WaitCond::StreamSpace(sid) = cond {
                    if let ActorKind::EngineTask {
                        stream: Some(s), ..
                    } = a.kind
                    {
                        if s == sid {
                            if let StreamMode::MissTriggered { reinit_instrs } =
                                self.hw.ndc.streams[sid.0 as usize].mode
                            {
                                self.hw.stats.engine_instrs += reinit_instrs as u64;
                                a.clock += (reinit_instrs as u64).div_ceil(4);
                            }
                        }
                    }
                }
                let clock = a.clock;
                self.enqueue(aid, clock);
            }
        }
        // Recycle the emptied list so the next park doesn't allocate.
        self.waiter_pool.push(list);
    }

    /// Runs until every spawned core thread has halted (engine tasks may
    /// remain parked, e.g. stream producers blocked on a full buffer).
    ///
    /// # Errors
    /// Returns [`RunError::Deadlock`] if the run queue drains while a core
    /// thread is still parked, [`RunError::Watchdog`] if the clock passes
    /// [`MachineConfig::max_cycles`](crate::MachineConfig::max_cycles)
    /// (when non-zero), and [`RunError::Fault`] when a typed error
    /// surfaces mid-run.
    pub fn run(&mut self) -> Result<RunResult, RunError> {
        let run_start = self.now;
        let result = self.run_inner();
        // Fold everything the scoped profiler measured on this thread
        // since the last drain (construction included) into the stats.
        // A no-op without the `self-profile` feature.
        let profile = crate::perf::take();
        if !profile.is_empty() {
            self.hw.stats.host_phases.merge(&profile);
        }
        let result = result?;
        if self.hw.cfg.checkpoint_verify {
            self.verify_last_checkpoint(result.cycles, run_start)?;
        }
        Ok(result)
    }

    /// Re-executes the run from its last mid-run checkpoint in a restored
    /// replica and cross-checks the outcome (cycles + stats digest)
    /// against the original. A no-op when no checkpoint was taken, or when
    /// the last checkpoint predates this `run()` call: a replica can only
    /// replay to the quiescence point of the phase it was captured in, so
    /// a checkpoint from an earlier phase cannot reproduce host actions
    /// (spawns, memory writes) performed between the two runs.
    fn verify_last_checkpoint(&mut self, cycles: u64, run_start: u64) -> Result<(), RunError> {
        let Some((ckpt_cycle, bytes)) = self.last_checkpoint.as_ref().map(|(c, b)| (*c, b)) else {
            return Ok(());
        };
        if ckpt_cycle < run_start {
            return Ok(());
        }
        let mut replica =
            Machine::restore(self.hw.cfg.clone(), bytes).map_err(RunError::SnapshotRestore)?;
        // No further checkpoints in the replica; it only replays the tail.
        replica.next_ckpt = u64::MAX;
        replica.run_inner()?;
        // Host-phase wall-clock from the replica is measurement noise, not
        // simulated state — drop it so it doesn't leak into our stats.
        let _ = crate::perf::take();
        let expect = (cycles, self.hw.stats.digest());
        let got = (replica.now, replica.hw.stats.digest());
        if expect != got {
            return Err(RunError::SnapshotDivergence {
                checkpoint_cycle: ckpt_cycle,
                expect,
                got,
            });
        }
        Ok(())
    }

    /// Takes the periodic checkpoint and advances the hook past `now` in
    /// whole multiples of `checkpoint_every`.
    fn take_checkpoint(&mut self) {
        let bytes = self.checkpoint();
        self.last_checkpoint = Some((self.now, bytes));
        let every = self.hw.cfg.checkpoint_every.max(1);
        let periods = self.now / every + 1;
        self.next_ckpt = periods.saturating_mul(every);
    }

    fn run_inner(&mut self) -> Result<RunResult, RunError> {
        crate::perf::prof_scope!(crate::perf::Phase::Sched);
        let max_cycles = self.hw.cfg.max_cycles;
        while let Some(Reverse((t, seq, aid))) = self.runq.pop() {
            let sleeping = {
                let a = &self.actors[aid as usize];
                if a.sched_seq != seq || a.state != ActorState::Runnable {
                    continue;
                }
                // Every enqueue but a sleep goes in at the actor's own
                // clock, so an entry ahead of it is a sleep re-entry.
                t > a.clock
            };
            self.now = self.now.max(t);
            if self.now >= self.next_ckpt {
                // Take the periodic checkpoint between actor dispatches:
                // re-push the popped entry so the snapshot captures a
                // consistent queue, checkpoint, then resume. A single
                // always-false compare when disabled (`next_ckpt == MAX`).
                self.runq.push(Reverse((t, seq, aid)));
                self.take_checkpoint();
                continue;
            }
            if max_cycles != 0 && self.now > max_cycles {
                return Err(RunError::Watchdog {
                    limit: max_cycles,
                    at: self.now,
                });
            }
            self.hw.maybe_sample(self.now);
            let aid = if sleeping && self.hw.faults.is_empty() {
                self.fast_forward_sleepers(t, seq, aid)
            } else {
                aid
            };
            self.run_actor(aid, t);
            if let Some(e) = self.hw.fatal.take() {
                return Err(RunError::Fault(e));
            }
            if self.live_core_threads == 0 && self.no_runnable_engine_tasks() {
                break;
            }
        }
        // Deadlock check: parked core threads with an empty queue. The
        // report also lists parked engine tasks — a blocked producer or
        // consumer is usually the other half of the cycle.
        let mut stuck = Vec::new();
        for (i, a) in self.actors.iter().enumerate() {
            if let ActorState::Parked(c) = a.state {
                stuck.push(ParkedActor {
                    actor: i as ActorId,
                    cond: c,
                    owner: match a.kind {
                        ActorKind::CoreThread { core } => ParkOwner::Core(core),
                        ActorKind::EngineTask { engine, .. } => ParkOwner::Engine(engine),
                    },
                    parked_at: a.parked_at,
                    parked_for: self.now.saturating_sub(a.parked_at),
                });
            }
        }
        let core_stuck = stuck.iter().any(|p| matches!(p.owner, ParkOwner::Core(_)));
        if core_stuck && self.live_core_threads > 0 {
            return Err(RunError::Deadlock(stuck));
        }
        let cycles = self
            .actors
            .iter()
            .map(|a| a.clock)
            .max()
            .unwrap_or(self.now)
            .max(self.now);
        self.now = cycles;
        self.hw.stats.cycles = cycles;
        Ok(RunResult { cycles })
    }

    /// Replays, in closed form, the round-robin of backpressure retries
    /// among the actors sleeping at cycle `t`, and returns the actor to
    /// dispatch next. `(seq, aid)` is the popped entry, a sleeper.
    ///
    /// Fault-free, a sleep is always invoke-buffer backpressure: the
    /// sleeper re-executes its `Invoke` each time it is dispatched, takes
    /// one late issue slot, and is refused (and re-pushed at `t` behind
    /// every other entry) while that slot is earlier than `t`, the ACK it
    /// waits for. Sleeper `i` is thus refused `r_i` more times. With `j`
    /// the first sleeper in sequence order with the smallest `r = m`, the
    /// round-robin runs `m` full rounds, then a last one in which the
    /// sleepers before `j` are refused once more and `j` issues. This
    /// applies those refusals to the issue cursors at once, leaves the
    /// queue as the retries would (the sleepers after `j`, then the ones
    /// before it, each with a fresh sequence number), and returns `j`.
    ///
    /// When any other live entry is waiting at `t`, the group is put back
    /// untouched and the popped sleeper takes its single retry.
    fn fast_forward_sleepers(&mut self, t: u64, seq: u64, aid: ActorId) -> ActorId {
        let mut group = std::mem::take(&mut self.scratch_sleepers);
        group.push((seq, aid));
        let mut all_sleeping = true;
        while let Some(&Reverse((at, s, id))) = self.runq.peek() {
            if at != t {
                break;
            }
            self.runq.pop();
            let a = &self.actors[id as usize];
            // Stale entries would be skipped when popped; drop them now.
            if a.sched_seq == s && a.state == ActorState::Runnable {
                all_sleeping &= a.clock < t;
                group.push((s, id));
            }
        }
        let pick = if all_sleeping {
            let (mut j, mut m) = (0, u64::MAX);
            for (i, &(_, id)) in group.iter().enumerate() {
                let a = &self.actors[id as usize];
                debug_assert_eq!(a.invoke_acks.front(), Some(&t), "sleeper waits on its ACK");
                let r = a.issue.late_grants_before(t);
                if r < m {
                    (j, m) = (i, r);
                }
            }
            for (i, &(_, id)) in group.iter().enumerate() {
                let refused = if i < j { m + 1 } else { m };
                self.actors[id as usize].issue.skip_late_grants(refused);
            }
            for k in (j + 1..group.len()).chain(0..j) {
                self.enqueue(group[k].1, t);
            }
            group[j].1
        } else {
            for &(s, id) in &group[1..] {
                self.runq.push(Reverse((t, s, id)));
            }
            aid
        };
        group.clear();
        self.scratch_sleepers = group;
        pick
    }

    fn no_runnable_engine_tasks(&self) -> bool {
        // After cores finish we still drain runnable engine work (offloaded
        // tasks in flight) but not parked producers.
        self.runq.iter().all(|Reverse((_, seq, aid))| {
            let a = &self.actors[*aid as usize];
            a.sched_seq != *seq || a.state != ActorState::Runnable
        })
    }

    // ------------------------------------------------------------------
    // The dispatch loop
    // ------------------------------------------------------------------

    /// Runs actor `aid`, dispatched from its run-queue entry at cycle
    /// `dispatched_at`, until it yields, parks, sleeps, or finishes.
    #[allow(clippy::too_many_lines)]
    fn run_actor(&mut self, aid: ActorId, dispatched_at: u64) {
        crate::perf::prof_scope!(crate::perf::Phase::Exec);
        let prog = self.actors[aid as usize].prog.clone();
        let quantum = self.hw.cfg.quantum;
        let quantum_end = self.actors[aid as usize].clock + quantum;

        loop {
            // -------- per-instruction outcome, gathered under a scoped
            // borrow of the actor; spawns and wakes collect in the
            // machine's scratch buffers, which are empty between steps --------
            use StepOutcome as Outcome;
            let outcome = {
                let Machine {
                    actors,
                    hw,
                    mem,
                    traces,
                    scratch_spawns,
                    scratch_wakes,
                    ..
                } = self;
                let a = &mut actors[aid as usize];
                if a.ctx.halted {
                    Outcome::Finished
                } else if a.clock > quantum_end {
                    Outcome::Yield(a.clock)
                } else {
                    // Borrow the instruction from the program: cloning
                    // here allocated on every executed `Invoke` (its
                    // `args: Vec<Reg>`) and memcpy'd every other
                    // instruction, and this is the hottest line in the
                    // simulator.
                    let (inst, meta) = exec::fetch(&prog, &a.ctx).expect("fetch failed");
                    let is_core = matches!(a.kind, ActorKind::CoreThread { .. });
                    let (tile, engine) = match a.kind {
                        ActorKind::CoreThread { core } => (core, None),
                        ActorKind::EngineTask { engine, .. } => (engine.tile, Some(engine)),
                    };

                    // Operand readiness.
                    let ready = meta.ready(&a.reg_ready, a.clock);

                    // Issue slot.
                    let slot = if is_core {
                        a.issue.reserve(ready)
                    } else {
                        let e = &mut hw.engines[engine.expect("engine task").index()];
                        match meta.class {
                            InstClass::Mem => e.reserve_mem(ready),
                            _ => e.reserve_int(ready),
                        }
                    };

                    step_one(
                        StepEnv {
                            hw,
                            mem,
                            traces,
                            is_core,
                            tile,
                            engine,
                            dispatched_at,
                        },
                        a,
                        inst,
                        meta,
                        slot,
                        scratch_spawns,
                        scratch_wakes,
                    )
                }
            };
            if !self.scratch_spawns.is_empty() || !self.scratch_wakes.is_empty() {
                self.apply_side_effects();
            }

            match outcome {
                Outcome::Continue => {}
                Outcome::Finished => {
                    self.finish_actor(aid);
                    return;
                }
                Outcome::Yield(at) => {
                    self.enqueue(aid, at);
                    return;
                }
                Outcome::Park(cond) => {
                    let a = &mut self.actors[aid as usize];
                    a.state = ActorState::Parked(cond);
                    a.parked_at = a.clock;
                    // Pull a recycled list from the pool rather than
                    // allocating a fresh Vec per wait condition.
                    match self.waiters.entry(cond) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            e.into_mut().push(aid);
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let mut list = self.waiter_pool.pop().unwrap_or_default();
                            list.push(aid);
                            e.insert(list);
                        }
                    }
                    return;
                }
                Outcome::SleepUntil(at) => {
                    self.enqueue(aid, at);
                    return;
                }
            }
        }
    }

    /// Applies the spawns and wakes one step produced, in order, and
    /// leaves the scratch buffers empty.
    fn apply_side_effects(&mut self) {
        let mut spawns = std::mem::take(&mut self.scratch_spawns);
        for s in spawns.drain(..) {
            let start = s.start;
            if let Some(core) = s.fallback_core {
                // Fault fallback: run the action as a software handler
                // thread on the issuing core instead of an engine task.
                let id = self.spawn_core_actor(core, s.prog, s.func, &s.args, start);
                self.hw.stats.trace.record(|| {
                    TraceEvent::instant(
                        start,
                        TraceKind::FaultCoreFallbackTask,
                        Track::Core(core),
                        &[id as u64],
                    )
                    .with_span(s.span)
                });
                if let Some(sp) = s.span {
                    self.actors[id as usize].span = s.span;
                    self.hw.stats.spans.note_dispatch(sp, start);
                }
                self.enqueue(id, start);
                continue;
            }
            let target = s.engine;
            // The task holds the engine context its invoke reserved.
            let kind = ActorKind::EngineTask {
                engine: target,
                reserved_ctx: true,
                stream: None,
            };
            // The task's registers are ready from the machine clock at the
            // spawn, which a task finishing ahead of the others can have
            // pushed past `start`; the timing model depends on this.
            let id = self.install_actor(kind, s.prog, s.func, &s.args, self.now);
            self.actors[id as usize].clock = start;
            self.hw.stats.trace.record(|| {
                TraceEvent::instant(
                    start,
                    TraceKind::TaskDispatch,
                    Track::Engine(target),
                    &[id as u64],
                )
                .with_span(s.span)
            });
            self.actors[id as usize].span = s.span;
            if let Some(sp) = s.span {
                self.hw.stats.spans.note_dispatch(sp, start);
            }
            self.enqueue(id, start);
        }
        self.scratch_spawns = spawns;
        let mut wakes = std::mem::take(&mut self.scratch_wakes);
        for (cond, at) in wakes.drain(..) {
            self.wake(cond, at);
        }
        self.scratch_wakes = wakes;
    }

    fn finish_actor(&mut self, aid: ActorId) {
        let clock = self.actors[aid as usize].clock;
        let span = self.actors[aid as usize].span.take();
        let (core_tile, engine_release, stream, track) = {
            let a = &mut self.actors[aid as usize];
            a.state = ActorState::Done;
            match a.kind {
                ActorKind::CoreThread { core } => (Some(core), None, None, Track::Core(core)),
                ActorKind::EngineTask {
                    engine,
                    reserved_ctx,
                    stream,
                } => (
                    None,
                    reserved_ctx.then_some(engine),
                    stream,
                    Track::Engine(engine),
                ),
            }
        };
        let is_core = core_tile.is_some();
        if let Some(core) = core_tile {
            self.live_core_threads -= 1;
            if let Some(tm) = &self.hw.tenants {
                // Per-tenant slowdown: each tenant's makespan is the
                // latest finish among its core threads (cold path only).
                let ten = tm.tenant_of(core) as usize;
                if let Some(f) = self.hw.stats.tenant_finish.get_mut(ten) {
                    *f = (*f).max(clock);
                }
            }
        }
        // Every engine task retires in the trace; a core thread does only
        // when it is an invoke's fallback handler (it carries a span).
        if !is_core || span.is_some() {
            self.hw.stats.trace.record(|| {
                TraceEvent::instant(clock, TraceKind::TaskRetire, track, &[aid as u64])
                    .with_span(span)
            });
        }
        if let Some(sp) = span {
            self.hw.stats.spans.note_retire(sp, clock);
        }
        if let Some(engine) = engine_release {
            self.hw.engines[engine.index()].release_ctx();
            self.wake(WaitCond::EngineCtx(engine), clock);
        }
        if let Some(sid) = stream {
            self.hw.ndc.stream_mut(sid).closed = true;
            self.wake(WaitCond::StreamData(sid), clock);
        }
        self.now = self.now.max(clock);
        if !is_core {
            // Recycle the slot so offload-heavy workloads stay bounded.
            self.free_slots.push(aid);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use levi_isa::{ActionId, Location, ProgramBuilder, Reg};

    use crate::engine::{EngineId, EngineLevel, FuCursor};
    use crate::fault::{CycleWindow, FaultPlan};
    use crate::rng::SmallRng;
    use crate::{Machine, MachineConfig};

    /// The cycle every test sleeper waits for.
    const WAKE: u64 = 100;

    /// Puts one core per cursor to sleep at [`WAKE`] on a full 1-entry
    /// invoke buffer, enqueued in cursor order; each then issues one
    /// REMOTE invoke to the same bank and halts. Returns `(cycles,
    /// Stats::digest)` of the traced run, so the digest also records the
    /// order the invokes issued in. `per_retry` installs a plan whose only
    /// window never opens, which keeps the scheduler on its
    /// one-dispatch-per-retry path.
    fn run_sleepers(cursors: &[FuCursor], per_retry: bool) -> (u64, u64) {
        let mut pb = ProgramBuilder::new();
        let action = {
            let mut f = pb.function("noop");
            f.halt();
            f.finish()
        };
        let main = {
            let mut f = pb.function("main");
            f.invoke(Reg(0), ActionId(0), &[], Location::Remote);
            f.halt();
            f.finish()
        };
        let prog = Arc::new(pb.finish().expect("valid program"));
        let mut cfg = MachineConfig::with_tiles(8);
        cfg.core.invoke_buffer = 1;
        cfg.trace = true;
        if per_retry {
            let engine = EngineId {
                tile: 0,
                level: EngineLevel::L2,
            };
            let never = CycleWindow::new(u64::MAX - 1, u64::MAX);
            cfg = cfg.faulted(FaultPlan::new(0).add_engine_fault(engine, never));
        }
        let mut m = Machine::try_new(cfg).expect("valid config");
        // Span ids number first attempts in host order, which the replay
        // changes (it runs the winner before the refused sleepers); only
        // the events and counters are compared.
        m.hw.stats.spans = crate::span::SpanTable::default();
        m.hw.ndc.actions.register(ActionId(0), prog.clone(), action);
        for (core, &issue) in cursors.iter().enumerate() {
            let aid = m.spawn_core_actor(core as u32, prog.clone(), main, &[0x4040], 0);
            let a = &mut m.actors[aid as usize];
            a.issue = issue;
            a.invoke_acks.push_back(WAKE);
            m.enqueue(aid, WAKE);
        }
        m.run().expect("sleepers finish");
        m.hw.stats.faults_injected = 0;
        (m.hw.stats.cycles, m.hw.stats.digest())
    }

    #[test]
    fn sleeper_replay_matches_per_retry_round_robin() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..300 {
            let width = rng.gen_range(1u32..5);
            // Cursors a few slots short of the wake, so equal and
            // one-apart retry counts are common.
            let cursors: Vec<FuCursor> = (0..rng.gen_range(2usize..7))
                .map(|_| {
                    let mut c = FuCursor::new(width);
                    for _ in 0..rng.gen_range(1u32..5) {
                        c.reserve(WAKE - rng.gen_range(1u64..4));
                    }
                    c
                })
                .collect();
            assert_eq!(
                run_sleepers(&cursors, false),
                run_sleepers(&cursors, true),
                "{cursors:?}"
            );
        }
    }
}
