//! The machine facade: construction, spawning, and host-side control.
//!
//! Execution is *functional-first*: each context interprets its LevIR
//! program in order via [`levi_isa::exec::step`], while a scoreboard
//! (per-register ready cycles) and the synchronous memory-system walk in
//! [`crate::hw`] compute timing. Contexts run ahead of the global clock by
//! at most a configurable quantum, then yield; blocking operations
//! (futures, stream push/pop, invoke backpressure) park a context until a
//! wake condition fires. The result is a deterministic, fast,
//! cycle-approximate simulation that models exactly the effects the
//! paper's evaluation measures: locality, coherence ping-pong, NoC
//! traffic, fences, MLP, branch mispredictions, and DRAM bandwidth.
//!
//! This module holds the [`Machine`] itself — construction, actor
//! spawning, stream management, and the host-side accessors. The layers
//! behind it:
//!
//! * [`crate::sched`] — the deterministic run queue, park/wake
//!   conditions, and deadlock diagnostics ([`Machine::run`] lives there);
//! * `core_pipe` (crate-private) — per-instruction issue with scoreboard,
//!   MSHR, fence, and branch timing;
//! * `ndc_host` (crate-private) — the timed NDC host (futures, streams,
//!   flush);
//! * `invoke` (crate-private) — the task-offload scheduler (placement,
//!   NACK, backpressure, migrate-local);
//! * [`crate::hw`] — the memory-system walk (probe → directory → phantom
//!   → evict stages).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use levi_isa::exec::MAX_ENTRY_ARGS;
use levi_isa::fx::FxHashMap;
use levi_isa::{Addr, FuncId, PagedMem, Program};

use crate::config::MachineConfig;
use crate::energy::{self, EnergyBreakdown};
use crate::engine::EngineId;
use crate::error::SimError;
use crate::hw::Hw;
use crate::ndc::{StreamId, StreamMode, WaitCond};
use crate::sched::{Actor, ActorKind};
use crate::stats::Stats;

pub use crate::sched::{ActorId, ParkOwner, ParkedActor, RunError, RunResult};

/// The simulated machine.
pub struct Machine {
    /// All hardware state (caches, NoC, DRAM, engines, NDC tables, stats).
    pub hw: Hw,
    pub(crate) mem: PagedMem,
    pub(crate) actors: Vec<Actor>,
    pub(crate) runq: BinaryHeap<Reverse<(u64, u64, ActorId)>>,
    pub(crate) seq: u64,
    pub(crate) now: u64,
    pub(crate) waiters: FxHashMap<WaitCond, Vec<ActorId>>,
    /// Emptied waiter lists recycled between park/wake cycles, so parking
    /// doesn't allocate in steady state.
    pub(crate) waiter_pool: Vec<Vec<ActorId>>,
    pub(crate) live_core_threads: u32,
    pub(crate) traces: Vec<u64>,
    /// Recycled actor slots (finished engine tasks); bounds memory when a
    /// workload offloads millions of short tasks.
    pub(crate) free_slots: Vec<ActorId>,
    /// Scratch buffers for per-instruction spawn/wake requests, reused
    /// across `run_actor` iterations (always empty between instructions).
    pub(crate) scratch_spawns: Vec<crate::ndc_host::SpawnReq>,
    pub(crate) scratch_wakes: Vec<(WaitCond, u64)>,
    /// Scratch buffer for the `(seq, actor)` entries the scheduler's
    /// sleeper fast-forward gathers at one cycle (empty between uses).
    pub(crate) scratch_sleepers: Vec<(u64, ActorId)>,
    /// The next cycle at which the periodic checkpoint hook fires
    /// (`u64::MAX` when [`MachineConfig::checkpoint_every`] is 0, so the
    /// disabled hook is a single always-false compare).
    pub(crate) next_ckpt: u64,
    /// The most recent periodic checkpoint: `(cycle, bytes)`.
    pub(crate) last_checkpoint: Option<(u64, Vec<u8>)>,
}

impl Machine {
    /// Builds a machine, returning a typed error on an invalid
    /// configuration (see [`MachineConfig::validate`]).
    pub fn try_new(mut cfg: MachineConfig) -> Result<Self, SimError> {
        crate::perf::prof_scope!(crate::perf::Phase::Build);
        cfg.validate()?;
        if cfg.engine.idealized {
            // Idealized engines are energy-free (paper Sec. VII).
            cfg.energy.engine_inst_pj = 0.0;
        }
        let next_ckpt = if cfg.checkpoint_every == 0 {
            u64::MAX
        } else {
            cfg.checkpoint_every
        };
        Ok(Machine {
            hw: Hw::new(cfg),
            mem: PagedMem::new(),
            actors: Vec::new(),
            runq: BinaryHeap::new(),
            seq: 0,
            now: 0,
            waiters: FxHashMap::default(),
            waiter_pool: Vec::new(),
            live_core_threads: 0,
            traces: Vec::new(),
            free_slots: Vec::new(),
            scratch_spawns: Vec::new(),
            scratch_wakes: Vec::new(),
            scratch_sleepers: Vec::new(),
            next_ckpt,
            last_checkpoint: None,
        })
    }

    /// Serializes the complete machine state — programs, memory,
    /// scheduler, actors, caches, engines, NoC, DRAM, NDC tables, and
    /// statistics — into the versioned, CRC-guarded snapshot container
    /// (see [`crate::snapshot`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        crate::perf::prof_scope!(crate::perf::Phase::Build);
        crate::snapshot::seal(
            crate::snapshot::config_digest(&self.hw.cfg),
            crate::snapshot::encode_machine(self),
        )
    }

    /// Rebuilds a machine from `cfg` plus snapshot bytes. The config must
    /// digest-match the one the snapshot was taken under, with one
    /// deliberate exception: the fault plan may differ, enabling
    /// time-travel fault replay (restore the same cycle under different
    /// fault seeds).
    ///
    /// # Errors
    /// Corrupted, truncated, version-mismatched, or config-mismatched
    /// bytes are rejected with a typed [`crate::snapshot::SnapshotError`];
    /// restore never panics on bad input.
    pub fn restore(
        cfg: MachineConfig,
        bytes: &[u8],
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let mut m = Machine::try_new(cfg).map_err(crate::snapshot::SnapshotError::InvalidConfig)?;
        let payload =
            crate::snapshot::open(bytes, crate::snapshot::config_digest(&m.hw.cfg))?.to_vec();
        crate::snapshot::decode_machine_into(&mut m, &payload)?;
        // Re-arm the periodic hook relative to the restored clock.
        let every = m.hw.cfg.checkpoint_every;
        m.next_ckpt = match m.now.checked_div(every) {
            None => u64::MAX, // hook disabled (every == 0)
            Some(periods) => (periods + 1).saturating_mul(every),
        };
        Ok(m)
    }

    /// The most recent periodic checkpoint taken by the scheduler hook
    /// (see [`MachineConfig::checkpoint_every`]): `(cycle, bytes)`.
    pub fn last_checkpoint(&self) -> Option<(u64, &[u8])> {
        self.last_checkpoint.as_ref().map(|(c, b)| (*c, &b[..]))
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.hw.cfg
    }

    /// Drops and returns the last periodic checkpoint, transferring
    /// ownership of the bytes (e.g. to persist them to disk).
    pub fn take_last_checkpoint(&mut self) -> Option<(u64, Vec<u8>)> {
        self.last_checkpoint.take()
    }

    /// Functional memory (for workload setup and result checking).
    pub fn mem(&self) -> &PagedMem {
        &self.mem
    }

    /// Mutable functional memory.
    pub fn mem_mut(&mut self) -> &mut PagedMem {
        &mut self.mem
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.hw.stats
    }

    /// Sets the workload phase tag on the statistics.
    pub fn set_phase(&mut self, phase: usize) {
        self.hw.stats.set_phase(phase);
    }

    /// Energy consumed so far.
    pub fn energy(&self) -> EnergyBreakdown {
        energy::compute(&self.hw.stats, &self.hw.cfg.energy)
    }

    /// Values traced by `Trace` instructions, in execution order.
    pub fn traces(&self) -> &[u64] {
        &self.traces
    }

    /// The current global cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Spawns a software thread on `core`, entering `func(args…)`.
    ///
    /// # Errors
    /// Returns [`SimError::CoreOutOfRange`] if `core` is not a valid tile
    /// and [`SimError::TooManyArgs`] for more than 8 entry arguments.
    pub fn spawn_thread(
        &mut self,
        core: u32,
        prog: Arc<Program>,
        func: FuncId,
        args: &[u64],
    ) -> Result<ActorId, SimError> {
        if core >= self.hw.cfg.tiles {
            return Err(SimError::CoreOutOfRange {
                core,
                tiles: self.hw.cfg.tiles,
            });
        }
        if args.len() > MAX_ENTRY_ARGS {
            return Err(SimError::TooManyArgs {
                given: args.len(),
                max: MAX_ENTRY_ARGS,
            });
        }
        let aid = self.spawn_core_actor(core, prog, func, args, self.now);
        self.enqueue(aid, self.now);
        Ok(aid)
    }

    /// Installs a core-thread actor starting at `clock` (shared by
    /// [`Machine::spawn_thread`] and the fault-fallback path).
    pub(crate) fn spawn_core_actor(
        &mut self,
        core: u32,
        prog: Arc<Program>,
        func: FuncId,
        args: &[u64],
        clock: u64,
    ) -> ActorId {
        let aid = self.install_actor(ActorKind::CoreThread { core }, prog, func, args, clock);
        self.live_core_threads += 1;
        aid
    }

    /// Spawns a long-lived task directly on an engine (the "long-lived
    /// workloads" paradigm, and stream producers). Does not consume an
    /// offloaded-task context.
    pub fn spawn_engine_task(
        &mut self,
        engine: EngineId,
        prog: Arc<Program>,
        func: FuncId,
        args: &[u64],
        stream: Option<StreamId>,
    ) -> ActorId {
        let kind = ActorKind::EngineTask {
            engine,
            reserved_ctx: false,
            stream,
        };
        let aid = self.install_actor(kind, prog, func, args, self.now);
        self.enqueue(aid, self.now);
        aid
    }

    /// Creates a stream and returns its id. The phantom/Morph registration
    /// for the consumer side is the caller's responsibility (the
    /// `leviathan` crate's `Stream<T>` does both).
    ///
    /// # Errors
    /// Returns [`SimError::UnsupportedEntrySize`] for entry sizes other
    /// than 8 bytes and [`SimError::ZeroStreamCapacity`] for an empty
    /// ring.
    pub fn create_stream(
        &mut self,
        buffer: Addr,
        entry_size: u64,
        capacity: u64,
        engine: EngineId,
        consumer: u32,
        mode: StreamMode,
    ) -> Result<StreamId, SimError> {
        if entry_size != 8 {
            return Err(SimError::UnsupportedEntrySize { entry_size });
        }
        if capacity == 0 {
            return Err(SimError::ZeroStreamCapacity);
        }
        let id = StreamId(self.hw.ndc.streams.len() as u32);
        // The ring is a hardware-managed sequential write target: pushes
        // fully overwrite lines, so write misses skip the write-allocate
        // fetch (the engine's stream scheduler owns the buffer).
        self.hw
            .ndc
            .stream_store_ranges
            .push((buffer, buffer + capacity * entry_size));
        self.hw.ndc.streams.push(crate::ndc::StreamState {
            id,
            buffer,
            entry_size,
            capacity,
            tail: 0,
            head: 0,
            engine,
            consumer,
            mode,
            closed: false,
        });
        Ok(id)
    }

    /// Marks a stream closed (producer finished or terminated), waking any
    /// blocked consumer.
    pub fn close_stream(&mut self, id: StreamId) {
        self.hw.ndc.stream_mut(id).closed = true;
        let at = self.now;
        self.wake(WaitCond::StreamData(id), at);
    }

    /// Flushes `[base, base+len)` from all caches at the current time,
    /// running destructors for tagged lines (the host-side counterpart of
    /// the `flush` instruction, used when unregistering a Morph between
    /// run segments). Returns the completion time.
    pub fn flush_morph_range(&mut self, base: Addr, len: u64) -> u64 {
        crate::perf::prof_scope!(crate::perf::Phase::Flush);
        let now = self.now;
        let Machine { hw, mem, .. } = self;
        hw.flush_range(mem, base, len, now)
    }
}
