//! Versioned checkpoint/restore of full machine state.
//!
//! A Leviathan run is a pure function of (config, workload, seed), so a
//! serialization of the complete simulation state at cycle *N* is a
//! perfect resume point: restoring it and running to completion produces
//! byte-identical results to the uninterrupted run. This module defines
//! the container format and the machine-level codec; per-module state
//! with private fields is serialized by `snap_write`/`snap_read` methods
//! on the owning types (cache banks, NoC links, DRAM queues, engines,
//! predictors, histograms, tracers, span tables, time series).
//!
//! # Container format
//!
//! ```text
//! offset  size  field
//! 0       8     magic: b"LEVISNAP"
//! 8       4     version (little-endian u32, currently 1)
//! 12      8     config digest (FNV-1a over the canonical config encoding)
//! 20      8     payload length in bytes
//! 28      n     payload (see `encode_machine`)
//! 28+n    4     CRC-32 (IEEE) over bytes [8, 28+n) — version through payload
//! ```
//!
//! The config digest covers every hardware/timing parameter of
//! [`MachineConfig`] but deliberately **excludes** the fault plan and the
//! checkpoint knobs themselves: excluding the fault plan is what enables
//! time-travel fault replay (restore the same snapshot under different
//! fault seeds and watch the runs diverge), and the checkpoint knobs are
//! observational. Restoring under any other config difference is refused
//! with [`SnapshotError::ConfigMismatch`].
//!
//! Decoding is fail-safe: corrupted, truncated, or mismatched bytes are
//! rejected with a typed [`SnapshotError`]; no input panics the decoder.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

use levi_isa::codec::{self, CodecError, Reader, Writer};
use levi_isa::Program;

use crate::config::MachineConfig;
use crate::engine::{EngineId, EngineLevel};
use crate::error::SimError;
use crate::machine::Machine;
use crate::ndc::{
    BankMapRange, FutureFill, MorphLevel, MorphRegion, StreamId, StreamMode, StreamState, WaitCond,
};
use crate::sched::{Actor, ActorKind, ActorState};
use crate::span::SpanId;

/// Snapshot container magic.
pub const MAGIC: [u8; 8] = *b"LEVISNAP";

/// Current snapshot format version.
pub const VERSION: u32 = 1;

/// Why a snapshot could not be restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the `LEVISNAP` magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// The snapshot was taken under a different machine configuration.
    ConfigMismatch {
        /// Digest of the configuration passed to restore.
        expected: u64,
        /// Digest recorded in the snapshot header.
        found: u64,
    },
    /// The input ended before the container was complete.
    Truncated,
    /// The CRC failed or a field held an impossible value.
    Corrupted(
        /// What the decoder was parsing when it failed.
        &'static str,
    ),
    /// The configuration passed to restore is itself invalid.
    InvalidConfig(SimError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a Leviathan snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different config \
                 (digest {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupted(what) => write!(f, "snapshot corrupted: {what}"),
            SnapshotError::InvalidConfig(e) => write!(f, "invalid restore config: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => SnapshotError::Truncated,
            CodecError::Invalid(what) => SnapshotError::Corrupted(what),
        }
    }
}

/// Types that can serialize their complete state into a self-describing
/// versioned container and be rebuilt from it given their originating
/// configuration.
pub trait Snapshot: Sized {
    /// The configuration needed to rebuild the object before overlaying
    /// the serialized state.
    type Config;

    /// Serializes full state. Infallible: every reachable state has an
    /// encoding.
    fn checkpoint(&self) -> Vec<u8>;

    /// Rebuilds from `cfg` plus checkpoint bytes.
    ///
    /// # Errors
    /// Any malformed input or configuration mismatch yields a typed
    /// [`SnapshotError`]; restore never panics on bad bytes.
    fn restore(cfg: Self::Config, bytes: &[u8]) -> Result<Self, SnapshotError>;
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Config digest (FNV-1a over the canonical field encoding)
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes` — the digest primitive behind [`config_digest`],
/// exposed so other layers (the benchmark's stdout digest, for one) hash
/// with the same machinery instead of growing a second hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every hardware/timing parameter of a [`MachineConfig`].
///
/// Excludes `fault_plan` (so a snapshot can be replayed under a different
/// fault seed — time-travel debugging) and the observational
/// `checkpoint_every`/`checkpoint_verify` knobs. All other fields,
/// including trace/sampling configuration, must match for a restore to be
/// accepted.
pub fn config_digest(cfg: &MachineConfig) -> u64 {
    let mut w = Writer::new();
    w.u32(cfg.tiles);
    for c in [&cfg.l1, &cfg.l2, &cfg.llc] {
        w.u64(c.size_bytes);
        w.u32(c.ways);
        w.u64(c.latency);
        w.u8(match c.replacement {
            crate::config::Replacement::Lru => 0,
            crate::config::Replacement::Srrip => 1,
        });
    }
    w.u32(cfg.core.issue_width);
    w.u32(cfg.core.mshrs);
    w.u64(cfg.core.mispredict_penalty);
    w.u32(cfg.core.predictor_bits);
    w.u32(cfg.core.invoke_buffer);
    w.u64(cfg.core.mul_latency);
    w.u64(cfg.core.div_latency);
    w.u32(cfg.engine.int_fus);
    w.u32(cfg.engine.mem_fus);
    w.u64(cfg.engine.pe_latency);
    w.u32(cfg.engine.contexts);
    w.u64(cfg.engine.l1d_bytes);
    w.u64(cfg.engine.l1d_latency);
    w.bool(cfg.engine.idealized);
    w.u32(cfg.noc.flit_bits);
    w.u64(cfg.noc.router_delay);
    w.u64(cfg.noc.link_delay);
    w.u32(cfg.mem.controllers);
    w.u64(cfg.mem.latency);
    w.u64(cfg.mem.cycles_per_line);
    w.u32(cfg.mem.fifo_cache_lines);
    w.u64(cfg.mem.fifo_hit_latency);
    for e in [
        cfg.energy.core_inst_pj,
        cfg.energy.engine_inst_pj,
        cfg.energy.l1_pj,
        cfg.energy.l2_pj,
        cfg.energy.llc_pj,
        cfg.energy.dir_pj,
        cfg.energy.noc_flit_hop_pj,
        cfg.energy.dram_line_pj,
        cfg.energy.mc_cache_pj,
    ] {
        w.f64(e);
    }
    w.bool(cfg.prefetcher);
    w.u32(cfg.prefetch_degree);
    w.u64(cfg.quantum);
    w.bool(cfg.trace);
    w.u64(cfg.trace_capacity as u64);
    w.bool(cfg.trace_sched);
    w.bool(cfg.trace_spans);
    w.u64(cfg.sample_interval);
    w.u64(cfg.max_cycles);
    match cfg.xlat {
        Some(x) => {
            w.bool(true);
            w.u32(x.page_bits);
            w.u32(x.tlb_entries);
            w.u32(x.tlb_ways);
            w.u32(x.walk_levels);
            w.u64(x.walk_latency);
        }
        None => w.bool(false),
    }
    match cfg.tenants {
        Some(t) => {
            w.bool(true);
            w.u32(t.count);
            w.u8(t.policy.as_u8());
        }
        None => w.bool(false),
    }
    fnv1a(&w.into_bytes())
}

// ---------------------------------------------------------------------------
// Container seal/open
// ---------------------------------------------------------------------------

/// Wraps a payload in the versioned, CRC-guarded container.
pub(crate) fn seal(config_digest: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&config_digest.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates the container and returns the payload slice.
pub(crate) fn open(bytes: &[u8], expected_digest: u64) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < 28 {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let found = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if found != expected_digest {
        return Err(SnapshotError::ConfigMismatch {
            expected: expected_digest,
            found,
        });
    }
    let plen = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let end = 28usize
        .checked_add(usize::try_from(plen).map_err(|_| SnapshotError::Truncated)?)
        .ok_or(SnapshotError::Truncated)?;
    if bytes.len() < end + 4 {
        return Err(SnapshotError::Truncated);
    }
    let crc_stored = u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap());
    if crc32(&bytes[8..end]) != crc_stored {
        return Err(SnapshotError::Corrupted("CRC mismatch"));
    }
    Ok(&bytes[28..end])
}

// ---------------------------------------------------------------------------
// Shared small codecs (used by sibling modules' snap methods too)
// ---------------------------------------------------------------------------

pub(crate) fn w_opt_u64(w: &mut Writer, v: Option<u64>) {
    match v {
        Some(x) => {
            w.bool(true);
            w.u64(x);
        }
        None => w.bool(false),
    }
}

pub(crate) fn r_opt_u64(r: &mut Reader) -> Result<Option<u64>, CodecError> {
    Ok(if r.bool()? { Some(r.u64()?) } else { None })
}

pub(crate) fn w_engine_id(w: &mut Writer, id: EngineId) {
    w.u32(id.tile);
    w.u8(match id.level {
        EngineLevel::L2 => 0,
        EngineLevel::Llc => 1,
    });
}

pub(crate) fn r_engine_id(r: &mut Reader) -> Result<EngineId, CodecError> {
    let tile = r.u32()?;
    let level = match r.u8()? {
        0 => EngineLevel::L2,
        1 => EngineLevel::Llc,
        _ => return Err(CodecError::Invalid("engine level")),
    };
    Ok(EngineId { tile, level })
}

pub(crate) fn w_morph_level(w: &mut Writer, l: MorphLevel) {
    w.u8(match l {
        MorphLevel::L2 => 0,
        MorphLevel::Llc => 1,
    });
}

pub(crate) fn r_morph_level(r: &mut Reader) -> Result<MorphLevel, CodecError> {
    match r.u8()? {
        0 => Ok(MorphLevel::L2),
        1 => Ok(MorphLevel::Llc),
        _ => Err(CodecError::Invalid("morph level")),
    }
}

fn w_wait_cond(w: &mut Writer, c: WaitCond) {
    match c {
        WaitCond::FutureFill(a) => {
            w.u8(0);
            w.u64(a);
        }
        WaitCond::StreamData(s) => {
            w.u8(1);
            w.u32(s.0);
        }
        WaitCond::StreamSpace(s) => {
            w.u8(2);
            w.u32(s.0);
        }
        WaitCond::EngineCtx(e) => {
            w.u8(3);
            w_engine_id(w, e);
        }
    }
}

fn r_wait_cond(r: &mut Reader) -> Result<WaitCond, CodecError> {
    Ok(match r.u8()? {
        0 => WaitCond::FutureFill(r.u64()?),
        1 => WaitCond::StreamData(StreamId(r.u32()?)),
        2 => WaitCond::StreamSpace(StreamId(r.u32()?)),
        3 => WaitCond::EngineCtx(r_engine_id(r)?),
        _ => return Err(CodecError::Invalid("wait condition")),
    })
}

fn w_opt_span(w: &mut Writer, s: Option<SpanId>) {
    match s {
        Some(SpanId(v)) => {
            w.bool(true);
            w.u32(v);
        }
        None => w.bool(false),
    }
}

fn r_opt_span(r: &mut Reader) -> Result<Option<SpanId>, CodecError> {
    Ok(if r.bool()? {
        Some(SpanId(r.u32()?))
    } else {
        None
    })
}

/// Section framing: a 4-byte ASCII tag written before each top-level
/// payload section, checked on decode so corruption fails with a useful
/// message instead of a cascade of field errors.
fn w_section(w: &mut Writer, tag: &[u8; 4]) {
    w.raw(tag);
}

fn r_section(r: &mut Reader, tag: &[u8; 4], what: &'static str) -> Result<(), SnapshotError> {
    let got = r.raw(4)?;
    if got != tag {
        return Err(SnapshotError::Corrupted(what));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Machine payload codec
// ---------------------------------------------------------------------------

/// Builds the deduplicated program table: each distinct `Arc<Program>`
/// reachable from actors or the action table appears exactly once, in
/// first-reference order (actors by index, then actions by id).
fn program_table(m: &Machine) -> (Vec<Arc<Program>>, HashMap<usize, u32>) {
    let mut progs: Vec<Arc<Program>> = Vec::new();
    let mut index: HashMap<usize, u32> = HashMap::new();
    let mut add = |p: &Arc<Program>, progs: &mut Vec<Arc<Program>>| {
        let key = Arc::as_ptr(p) as usize;
        index.entry(key).or_insert_with(|| {
            progs.push(Arc::clone(p));
            (progs.len() - 1) as u32
        });
    };
    for a in &m.actors {
        add(&a.prog, &mut progs);
    }
    for (_, aref) in m.hw.ndc.actions.snap_entries() {
        add(&aref.prog, &mut progs);
    }
    (progs, index)
}

fn w_actor(w: &mut Writer, a: &Actor, prog_idx: &HashMap<usize, u32>) {
    match &a.kind {
        ActorKind::CoreThread { core } => {
            w.u8(0);
            w.u32(*core);
        }
        ActorKind::EngineTask {
            engine,
            reserved_ctx,
            stream,
        } => {
            w.u8(1);
            w_engine_id(w, *engine);
            w.bool(*reserved_ctx);
            match stream {
                Some(s) => {
                    w.bool(true);
                    w.u32(s.0);
                }
                None => w.bool(false),
            }
        }
    }
    w.u32(prog_idx[&(Arc::as_ptr(&a.prog) as usize)]);
    codec::write_exec_ctx(w, &a.ctx);
    w.u64(a.clock);
    for t in &a.reg_ready {
        w.u64(*t);
    }
    w.u32(a.pending_mem.len() as u32);
    for t in &a.pending_mem {
        w.u64(*t);
    }
    a.issue.snap_write(w);
    match &a.predictor {
        Some(p) => {
            w.bool(true);
            p.snap_write(w);
        }
        None => w.bool(false),
    }
    w.u32(a.invoke_acks.len() as u32);
    for t in &a.invoke_acks {
        w.u64(*t);
    }
    w.u32(a.invoke_count);
    w.u32(a.invoke_retries);
    w_opt_span(w, a.pending_span);
    w_opt_span(w, a.span);
    match a.state {
        ActorState::Runnable => w.u8(0),
        ActorState::Parked(c) => {
            w.u8(1);
            w_wait_cond(w, c);
        }
        ActorState::Done => w.u8(2),
    }
    w.u64(a.sched_seq);
    w.u64(a.parked_at);
}

fn r_actor(r: &mut Reader, progs: &[Arc<Program>]) -> Result<Actor, SnapshotError> {
    let kind = match r.u8()? {
        0 => ActorKind::CoreThread { core: r.u32()? },
        1 => {
            let engine = r_engine_id(r)?;
            let reserved_ctx = r.bool()?;
            let stream = if r.bool()? {
                Some(StreamId(r.u32()?))
            } else {
                None
            };
            ActorKind::EngineTask {
                engine,
                reserved_ctx,
                stream,
            }
        }
        _ => return Err(SnapshotError::Corrupted("actor kind")),
    };
    let pi = r.u32()? as usize;
    let prog = progs
        .get(pi)
        .cloned()
        .ok_or(SnapshotError::Corrupted("actor program index"))?;
    let ctx = codec::read_exec_ctx(r)?;
    let clock = r.u64()?;
    let mut reg_ready = [0u64; levi_isa::NUM_REGS];
    for t in &mut reg_ready {
        *t = r.u64()?;
    }
    let n = r.count(8)?;
    let mut pending_mem = Vec::with_capacity(n);
    for _ in 0..n {
        pending_mem.push(r.u64()?);
    }
    let issue = crate::engine::FuCursor::snap_read(r)?;
    let predictor = if r.bool()? {
        Some(crate::branch::Gshare::snap_read(r)?)
    } else {
        None
    };
    let n = r.count(8)?;
    let mut invoke_acks = std::collections::VecDeque::with_capacity(n);
    for _ in 0..n {
        invoke_acks.push_back(r.u64()?);
    }
    let invoke_count = r.u32()?;
    let invoke_retries = r.u32()?;
    let pending_span = r_opt_span(r)?;
    let span = r_opt_span(r)?;
    let state = match r.u8()? {
        0 => ActorState::Runnable,
        1 => ActorState::Parked(r_wait_cond(r)?),
        2 => ActorState::Done,
        _ => return Err(SnapshotError::Corrupted("actor state")),
    };
    let sched_seq = r.u64()?;
    let parked_at = r.u64()?;
    Ok(Actor {
        kind,
        prog,
        ctx,
        clock,
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
    })
}

fn w_stream(w: &mut Writer, s: &StreamState) {
    w.u32(s.id.0);
    w.u64(s.buffer);
    w.u64(s.entry_size);
    w.u64(s.capacity);
    w.u64(s.tail);
    w.u64(s.head);
    w_engine_id(w, s.engine);
    w.u32(s.consumer);
    match s.mode {
        StreamMode::RunAhead => w.u8(0),
        StreamMode::MissTriggered { reinit_instrs } => {
            w.u8(1);
            w.u32(reinit_instrs);
        }
    }
    w.bool(s.closed);
}

fn r_stream(r: &mut Reader) -> Result<StreamState, CodecError> {
    Ok(StreamState {
        id: StreamId(r.u32()?),
        buffer: r.u64()?,
        entry_size: r.u64()?,
        capacity: r.u64()?,
        tail: r.u64()?,
        head: r.u64()?,
        engine: r_engine_id(r)?,
        consumer: r.u32()?,
        mode: match r.u8()? {
            0 => StreamMode::RunAhead,
            1 => StreamMode::MissTriggered {
                reinit_instrs: r.u32()?,
            },
            _ => return Err(CodecError::Invalid("stream mode")),
        },
        closed: r.bool()?,
    })
}

fn w_morph(w: &mut Writer, m: &MorphRegion) {
    w.u64(m.base);
    w.u64(m.bound);
    w_morph_level(w, m.level);
    w.u64(m.obj_size);
    match m.ctor {
        Some(a) => {
            w.bool(true);
            w.u32(a.0);
        }
        None => w.bool(false),
    }
    match m.dtor {
        Some(a) => {
            w.bool(true);
            w.u32(a.0);
        }
        None => w.bool(false),
    }
    w.u64(m.view);
    match m.stream {
        Some(s) => {
            w.bool(true);
            w.u32(s.0);
        }
        None => w.bool(false),
    }
}

fn r_morph(r: &mut Reader) -> Result<MorphRegion, CodecError> {
    Ok(MorphRegion {
        base: r.u64()?,
        bound: r.u64()?,
        level: r_morph_level(r)?,
        obj_size: r.u64()?,
        ctor: if r.bool()? {
            Some(levi_isa::ActionId(r.u32()?))
        } else {
            None
        },
        dtor: if r.bool()? {
            Some(levi_isa::ActionId(r.u32()?))
        } else {
            None
        },
        view: r.u64()?,
        stream: if r.bool()? {
            Some(StreamId(r.u32()?))
        } else {
            None
        },
    })
}

/// Serializes the full machine state into the snapshot payload.
pub(crate) fn encode_machine(m: &Machine) -> Vec<u8> {
    let mut w = Writer::new();
    let (progs, prog_idx) = program_table(m);

    w_section(&mut w, b"PROG");
    w.u32(progs.len() as u32);
    for p in &progs {
        codec::write_program(&mut w, p);
    }

    w_section(&mut w, b"MEMX");
    codec::write_mem(&mut w, &m.mem);

    w_section(&mut w, b"SCHD");
    w.u64(m.now);
    w.u64(m.seq);
    w.u32(m.live_core_threads);
    w.u32(m.traces.len() as u32);
    for t in &m.traces {
        w.u64(*t);
    }
    w.u32(m.free_slots.len() as u32);
    for s in &m.free_slots {
        w.u32(*s);
    }
    // Run queue in sorted order: the heap's internal layout is not
    // deterministic across construction histories, but its pop order is
    // (entries are totally ordered by the unique sequence number), so the
    // sorted entry list is the canonical representation.
    let mut entries: Vec<(u64, u64, u32)> = m.runq.iter().map(|Reverse(e)| *e).collect();
    entries.sort_unstable();
    w.u32(entries.len() as u32);
    for (t, seq, aid) in entries {
        w.u64(t);
        w.u64(seq);
        w.u32(aid);
    }
    // Waiter lists keyed by the derived total order on WaitCond.
    let mut conds: Vec<&WaitCond> = m.waiters.keys().collect();
    conds.sort_unstable();
    w.u32(conds.len() as u32);
    for c in conds {
        w_wait_cond(&mut w, *c);
        let list = &m.waiters[c];
        w.u32(list.len() as u32);
        for aid in list {
            w.u32(*aid);
        }
    }

    w_section(&mut w, b"ACTR");
    w.u32(m.actors.len() as u32);
    for a in &m.actors {
        w_actor(&mut w, a, &prog_idx);
    }

    w_section(&mut w, b"CACH");
    for bank in m.hw.l1.iter().chain(&m.hw.l2).chain(&m.hw.llc) {
        bank.snap_write(&mut w);
    }

    w_section(&mut w, b"ENGS");
    for e in &m.hw.engines {
        e.snap_write(&mut w);
    }

    w_section(&mut w, b"NOCX");
    m.hw.noc.snap_write(&mut w);

    w_section(&mut w, b"DRAM");
    m.hw.dram.snap_write(&mut w);

    w_section(&mut w, b"XLAT");
    m.hw.translator.snap_write(&mut w);

    // TLBX: the address-translation TLBs (crate::xlat). Distinct from
    // XLAT above, which is the DRAM compaction translator.
    w_section(&mut w, b"TLBX");
    match &m.hw.xlat {
        Some(x) => {
            w.bool(true);
            x.snap_write(&mut w);
        }
        None => w.bool(false),
    }

    w_section(&mut w, b"NDCX");
    {
        let ndc = &m.hw.ndc;
        let actions = ndc.actions.snap_entries();
        w.u32(actions.len() as u32);
        for (id, aref) in actions {
            w.u32(id.0);
            w.u32(prog_idx[&(Arc::as_ptr(&aref.prog) as usize)]);
            w.u32(aref.func.0);
        }
        w.u32(ndc.morphs.len() as u32);
        for mo in &ndc.morphs {
            w_morph(&mut w, mo);
        }
        w.u32(ndc.streams.len() as u32);
        for s in &ndc.streams {
            w_stream(&mut w, s);
        }
        let mut futures: Vec<(&u64, &FutureFill)> = ndc.futures.iter().collect();
        futures.sort_unstable_by_key(|(a, _)| **a);
        w.u32(futures.len() as u32);
        for (addr, fill) in futures {
            w.u64(*addr);
            w.u64(fill.arrival);
        }
        w.u32(ndc.bank_maps.len() as u32);
        for b in &ndc.bank_maps {
            w.u64(b.base);
            w.u64(b.bound);
            w.u32(b.ignore_line_bits);
        }
        for ranges in [&ndc.stream_store_ranges, &ndc.mem_side_ranges] {
            w.u32(ranges.len() as u32);
            for (a, b) in ranges {
                w.u64(*a);
                w.u64(*b);
            }
        }
    }

    w_section(&mut w, b"STAT");
    m.hw.stats.snap_write(&mut w);

    w_section(&mut w, b"HWPR");
    m.hw.snap_write_private(&mut w);

    w.into_bytes()
}

/// Overlays a snapshot payload onto a freshly built machine (same config).
pub(crate) fn decode_machine_into(m: &mut Machine, payload: &[u8]) -> Result<(), SnapshotError> {
    let r = &mut Reader::new(payload);

    r_section(r, b"PROG", "program table section")?;
    let nprogs = r.count(1)?;
    let mut progs: Vec<Arc<Program>> = Vec::with_capacity(nprogs);
    for _ in 0..nprogs {
        progs.push(Arc::new(codec::read_program(r)?));
    }

    r_section(r, b"MEMX", "memory section")?;
    m.mem = codec::read_mem(r)?;

    r_section(r, b"SCHD", "scheduler section")?;
    m.now = r.u64()?;
    m.seq = r.u64()?;
    m.live_core_threads = r.u32()?;
    let n = r.count(8)?;
    m.traces = Vec::with_capacity(n);
    for _ in 0..n {
        m.traces.push(r.u64()?);
    }
    let n = r.count(4)?;
    m.free_slots = Vec::with_capacity(n);
    for _ in 0..n {
        m.free_slots.push(r.u32()?);
    }
    let n = r.count(20)?;
    m.runq = std::collections::BinaryHeap::with_capacity(n);
    for _ in 0..n {
        let t = r.u64()?;
        let seq = r.u64()?;
        let aid = r.u32()?;
        m.runq.push(Reverse((t, seq, aid)));
    }
    let n = r.count(2)?;
    m.waiters = levi_isa::fx::map_with_capacity(n);
    for _ in 0..n {
        let cond = r_wait_cond(r)?;
        let len = r.count(4)?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            list.push(r.u32()?);
        }
        if m.waiters.insert(cond, list).is_some() {
            return Err(SnapshotError::Corrupted("duplicate wait condition"));
        }
    }

    r_section(r, b"ACTR", "actor section")?;
    let n = r.count(4)?;
    m.actors = Vec::with_capacity(n);
    for _ in 0..n {
        m.actors.push(r_actor(r, &progs)?);
    }

    r_section(r, b"CACH", "cache section")?;
    for bank in m.hw.l1.iter_mut().chain(&mut m.hw.l2).chain(&mut m.hw.llc) {
        bank.snap_read(r)?;
    }

    r_section(r, b"ENGS", "engine section")?;
    for e in &mut m.hw.engines {
        e.snap_read(r)?;
    }

    r_section(r, b"NOCX", "noc section")?;
    m.hw.noc.snap_read(r)?;

    r_section(r, b"DRAM", "dram section")?;
    m.hw.dram.snap_read(r)?;

    r_section(r, b"XLAT", "translator section")?;
    m.hw.translator.snap_read(r)?;

    r_section(r, b"TLBX", "tlb section")?;
    match (r.bool()?, &mut m.hw.xlat) {
        (true, Some(x)) => x.snap_read(r)?,
        (false, None) => {}
        _ => return Err(SnapshotError::Corrupted("tlb presence mismatch")),
    }

    r_section(r, b"NDCX", "ndc section")?;
    {
        let n = r.count(12)?;
        let mut actions = crate::ndc::ActionTable::default();
        for _ in 0..n {
            let id = levi_isa::ActionId(r.u32()?);
            let pi = r.u32()? as usize;
            let func = levi_isa::FuncId(r.u32()?);
            let prog = progs
                .get(pi)
                .cloned()
                .ok_or(SnapshotError::Corrupted("action program index"))?;
            actions.register(id, prog, func);
        }
        m.hw.ndc.actions = actions;
        let n = r.count(8)?;
        m.hw.ndc.morphs = Vec::with_capacity(n);
        for _ in 0..n {
            m.hw.ndc.morphs.push(r_morph(r)?);
        }
        let n = r.count(8)?;
        m.hw.ndc.streams = Vec::with_capacity(n);
        for _ in 0..n {
            m.hw.ndc.streams.push(r_stream(r)?);
        }
        let n = r.count(16)?;
        m.hw.ndc.futures = levi_isa::fx::map_with_capacity(n);
        for _ in 0..n {
            let addr = r.u64()?;
            let arrival = r.u64()?;
            if m.hw
                .ndc
                .futures
                .insert(addr, FutureFill { arrival })
                .is_some()
            {
                return Err(SnapshotError::Corrupted("duplicate future"));
            }
        }
        let n = r.count(20)?;
        m.hw.ndc.bank_maps = Vec::with_capacity(n);
        for _ in 0..n {
            m.hw.ndc.bank_maps.push(BankMapRange {
                base: r.u64()?,
                bound: r.u64()?,
                ignore_line_bits: r.u32()?,
            });
        }
        for which in 0..2 {
            let n = r.count(16)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push((r.u64()?, r.u64()?));
            }
            if which == 0 {
                m.hw.ndc.stream_store_ranges = v;
            } else {
                m.hw.ndc.mem_side_ranges = v;
            }
        }
    }

    r_section(r, b"STAT", "stats section")?;
    m.hw.stats.snap_read(r)?;

    r_section(r, b"HWPR", "hw-private section")?;
    m.hw.snap_read_private(r)?;

    if !r.is_exhausted() {
        return Err(SnapshotError::Corrupted("trailing bytes after payload"));
    }
    Ok(())
}

impl Snapshot for Machine {
    type Config = MachineConfig;

    fn checkpoint(&self) -> Vec<u8> {
        Machine::checkpoint(self)
    }

    fn restore(cfg: MachineConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        Machine::restore(cfg, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn container_round_trip_and_rejections() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let sealed = seal(42, payload.clone());
        assert_eq!(open(&sealed, 42).unwrap(), &payload[..]);

        // Wrong digest.
        assert!(matches!(
            open(&sealed, 43),
            Err(SnapshotError::ConfigMismatch { .. })
        ));
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(open(&bad, 42), Err(SnapshotError::BadMagic));
        // Unsupported version.
        let mut bad = sealed.clone();
        bad[8] = 99;
        assert_eq!(open(&bad, 42), Err(SnapshotError::UnsupportedVersion(99)));
        // Truncation at every prefix length.
        for cut in 0..sealed.len() {
            assert!(open(&sealed[..cut], 42).is_err(), "cut {cut} accepted");
        }
        // Payload corruption caught by CRC.
        let mut bad = sealed.clone();
        bad[30] ^= 0x01;
        assert_eq!(
            open(&bad, 42),
            Err(SnapshotError::Corrupted("CRC mismatch"))
        );
    }

    #[test]
    fn config_digest_tracks_hardware_but_not_fault_plan() {
        let a = MachineConfig::paper_default();
        let mut b = a.clone();
        assert_eq!(config_digest(&a), config_digest(&b));
        b.fault_plan = Some(crate::fault::FaultPlan::new(7));
        assert_eq!(
            config_digest(&a),
            config_digest(&b),
            "fault plan must stay outside the digest (fault replay)"
        );
        b.checkpoint_every = 1000;
        b.checkpoint_verify = true;
        assert_eq!(config_digest(&a), config_digest(&b));
        b.tiles = a.tiles + 1;
        assert_ne!(config_digest(&a), config_digest(&b));
    }

    #[test]
    fn config_digest_covers_every_xlat_and_tenant_knob() {
        use crate::xlat::{TenantConfig, TenantPolicy, XlatConfig};
        let base = MachineConfig::paper_default();
        let d0 = config_digest(&base);

        // Enabling either feature changes the digest.
        let mut on = base.clone();
        on.xlat = Some(XlatConfig::paper_default());
        let dx = config_digest(&on);
        assert_ne!(d0, dx, "xlat presence");
        let mut ten = base.clone();
        ten.tenants = Some(TenantConfig::new(4, TenantPolicy::Unpartitioned));
        let dt = config_digest(&ten);
        assert_ne!(d0, dt, "tenant presence");

        // Every xlat field is digest-relevant.
        let x = XlatConfig::paper_default();
        let variants = [
            XlatConfig { page_bits: 21, ..x },
            XlatConfig {
                tlb_entries: 128,
                ..x
            },
            XlatConfig { tlb_ways: 8, ..x },
            XlatConfig {
                walk_levels: 3,
                ..x
            },
            XlatConfig {
                walk_latency: 9,
                ..x
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            let mut c = base.clone();
            c.xlat = Some(*v);
            assert_ne!(config_digest(&c), dx, "xlat knob {i} must move the digest");
        }

        // Every tenant field is digest-relevant.
        let mut c = base.clone();
        c.tenants = Some(TenantConfig::new(2, TenantPolicy::Unpartitioned));
        assert_ne!(config_digest(&c), dt, "tenant count");
        for policy in [TenantPolicy::LlcWayPartition, TenantPolicy::EngineSlotQuota] {
            let mut c = base.clone();
            c.tenants = Some(TenantConfig::new(4, policy));
            assert_ne!(config_digest(&c), dt, "tenant policy {policy:?}");
        }
    }
}
