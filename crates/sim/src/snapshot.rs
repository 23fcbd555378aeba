//! Versioned checkpoint/restore of full machine state.
//!
//! A Leviathan run is a pure function of (config, workload, seed), so a
//! serialization of the complete simulation state at cycle *N* is a
//! perfect resume point: restoring it and running to completion produces
//! byte-identical results to the uninterrupted run. This module defines
//! the container format and the machine-level codec (its sections, the
//! program table, and the sorted run queue and waiter map).
//!
//! # Field lists
//!
//! Every other encoding is declared once, next to its type, with the
//! [`levi_isa::codec`] value codec: `codec_struct!` lists a struct's
//! fields in encoding order and generates both directions from that list,
//! and `codec_enum!` lists an enum's tags. The write side destructures the
//! struct and the read side builds it with a struct literal, so a field
//! missing from its list does not compile. To add a field:
//!
//! - give its type a [`Codec`] (the integers, `bool`, `f64`, `Option`,
//!   `Vec`, `VecDeque`, arrays, pairs and the id types have one);
//! - add it to the type's list at the position it should take in the
//!   bytes, or to `kept` if a type restored in place (cache banks, FU
//!   windows, engines, NoC, DRAM, TLBs, `Stats`, `Hw`'s private state)
//!   rebuilds it from the config;
//! - put any check on its decoded value in an `ensure` line under the
//!   list, and an encoding that needs context or several fields in a
//!   named adapter (`prog: progs`, `lines(len, rrip, lru, tags): Sets(..)`).
//!
//! A new encoded field changes the bytes: re-pin the checkpoint digests in
//! `tests/snapshot.rs` (and, for `Stats`, the `tests/faults.rs` digest pins
//! and the benchmark's `model.stats_digest`), and bump [`VERSION`] when
//! older snapshots should be refused by version, not by a decode error.
//!
//! # Container format
//!
//! ```text
//! offset  size  field
//! 0       8     magic: b"LEVISNAP"
//! 8       4     version (little-endian u32, currently 2)
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

use levi_isa::codec::{self, get_seq, put_seq, Codec, CodecError, Reader, Restore, Writer};
use levi_isa::Program;

use crate::config::MachineConfig;
use crate::error::SimError;
use crate::machine::{ActorId, Machine};
use crate::ndc::{NdcState, WaitCond};
use crate::sched::Actor;

/// Snapshot container magic.
pub const MAGIC: [u8; 8] = *b"LEVISNAP";

/// Current snapshot format version. Version 2 stores a trace event as a
/// kind tag, an optional span id and its argument values; version 1
/// stored its name and argument names as strings.
pub const VERSION: u32 = 2;

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

/// The deduplicated program table (the `PROG` section). Actors and actions
/// name their program by its index here: the field adapter of
/// `Actor::prog` and `ActionRef::prog`.
pub(crate) struct ProgTable {
    progs: Vec<Arc<Program>>,
    /// Table index by `Arc` pointer (encode side only).
    index: HashMap<usize, u32>,
}

impl ProgTable {
    /// Each distinct `Arc<Program>` reachable from actors or the action
    /// table, exactly once, in first-reference order (actors by index, then
    /// actions by id).
    fn of(m: &Machine) -> Self {
        let mut t = ProgTable {
            progs: Vec::new(),
            index: HashMap::new(),
        };
        let actions = m.hw.ndc.actions.snap_entries();
        let actors = m.actors.iter().map(|a| &a.prog);
        for p in actors.chain(actions.iter().map(|(_, a)| &a.prog)) {
            let progs = &mut t.progs;
            t.index.entry(Arc::as_ptr(p) as usize).or_insert_with(|| {
                progs.push(Arc::clone(p));
                (progs.len() - 1) as u32
            });
        }
        t
    }

    /// Writes `p`'s table index.
    pub(crate) fn put(&self, p: &Arc<Program>, w: &mut Writer) {
        self.index[&(Arc::as_ptr(p) as usize)].put(w);
    }

    /// Reads a table index and returns its program.
    pub(crate) fn get(&self, r: &mut Reader) -> Result<Arc<Program>, CodecError> {
        let i = u32::get(r)? as usize;
        self.progs
            .get(i)
            .cloned()
            .ok_or(CodecError::Invalid("program index"))
    }
}

/// Serializes the full machine state into the snapshot payload.
pub(crate) fn encode_machine(m: &Machine) -> Vec<u8> {
    let mut out = Writer::new();
    let w = &mut out;
    let progs = ProgTable::of(m);

    w_section(w, b"PROG");
    put_seq(w, progs.progs.iter(), |p, w| codec::write_program(w, p));

    w_section(w, b"MEMX");
    codec::write_mem(w, &m.mem);

    w_section(w, b"SCHD");
    m.now.put(w);
    m.seq.put(w);
    m.live_core_threads.put(w);
    m.traces.put(w);
    m.free_slots.put(w);
    // Run queue in sorted order: the heap's internal layout is not
    // deterministic across construction histories, but its pop order is
    // (entries are totally ordered by the unique sequence number), so the
    // sorted entry list is the canonical representation.
    let mut runq: Vec<(u64, u64, ActorId)> = m.runq.iter().map(|Reverse(e)| *e).collect();
    runq.sort_unstable();
    runq.put(w);
    // Waiter lists keyed by the derived total order on WaitCond.
    let mut conds: Vec<&WaitCond> = m.waiters.keys().collect();
    conds.sort_unstable();
    put_seq(w, conds.into_iter(), |c, w| {
        c.put(w);
        m.waiters[c].put(w);
    });

    w_section(w, b"ACTR");
    put_seq(w, m.actors.iter(), |a, w| a.put_in(w, &progs));

    w_section(w, b"CACH");
    for bank in m.hw.l1.iter().chain(&m.hw.l2).chain(&m.hw.llc) {
        bank.save(w);
    }

    w_section(w, b"ENGS");
    m.hw.engines.iter().for_each(|e| e.save(w));

    w_section(w, b"NOCX");
    m.hw.noc.save(w);

    w_section(w, b"DRAM");
    m.hw.dram.save(w);

    w_section(w, b"XLAT");
    m.hw.translator.put(w);

    // TLBX: the address-translation TLBs (crate::xlat). Distinct from
    // XLAT above, which is the DRAM compaction translator.
    w_section(w, b"TLBX");
    m.hw.xlat.is_some().put(w);
    if let Some(x) = &m.hw.xlat {
        x.save(w);
    }

    w_section(w, b"NDCX");
    m.hw.ndc.put_in(w, &progs);

    w_section(w, b"STAT");
    m.hw.stats.save(w);

    // HWPR: the private hardware state (`Hw`'s own field list).
    w_section(w, b"HWPR");
    m.hw.save(w);

    out.into_bytes()
}

/// Overlays a snapshot payload onto a freshly built machine (same config).
pub(crate) fn decode_machine_into(m: &mut Machine, payload: &[u8]) -> Result<(), SnapshotError> {
    let r = &mut Reader::new(payload);

    r_section(r, b"PROG", "program table section")?;
    let progs = ProgTable {
        progs: get_seq(r, 1, |r| codec::read_program(r).map(Arc::new))?,
        index: HashMap::new(),
    };

    r_section(r, b"MEMX", "memory section")?;
    m.mem = codec::read_mem(r)?;

    r_section(r, b"SCHD", "scheduler section")?;
    m.now = Codec::get(r)?;
    m.seq = Codec::get(r)?;
    m.live_core_threads = Codec::get(r)?;
    m.traces = Codec::get(r)?;
    m.free_slots = Codec::get(r)?;
    let runq: Vec<(u64, u64, ActorId)> = Codec::get(r)?;
    m.runq = runq.into_iter().map(Reverse).collect();
    let waiters: Vec<(WaitCond, Vec<ActorId>)> = Codec::get(r)?;
    m.waiters = levi_isa::fx::map_with_capacity(waiters.len());
    for (cond, list) in waiters {
        if m.waiters.insert(cond, list).is_some() {
            return Err(SnapshotError::Corrupted("duplicate wait condition"));
        }
    }

    r_section(r, b"ACTR", "actor section")?;
    m.actors = get_seq(r, 4, |r| Actor::get_in(r, &progs))?;
    // Every actor id the scheduler holds must name a decoded actor: the
    // run loop indexes the actor table with them.
    let known = |id: &ActorId| (*id as usize) < m.actors.len();
    if !m.runq.iter().all(|Reverse((_, _, id))| known(id)) {
        return Err(SnapshotError::Corrupted("run-queue actor id"));
    }
    if !m.waiters.values().flatten().all(known) {
        return Err(SnapshotError::Corrupted("waiter actor id"));
    }
    if !m.free_slots.iter().all(known) {
        return Err(SnapshotError::Corrupted("free-slot actor id"));
    }

    r_section(r, b"CACH", "cache section")?;
    for bank in m.hw.l1.iter_mut().chain(&mut m.hw.l2).chain(&mut m.hw.llc) {
        bank.restore(r)?;
    }

    r_section(r, b"ENGS", "engine section")?;
    for e in &mut m.hw.engines {
        e.restore(r)?;
    }

    r_section(r, b"NOCX", "noc section")?;
    m.hw.noc.restore(r)?;

    r_section(r, b"DRAM", "dram section")?;
    m.hw.dram.restore(r)?;

    r_section(r, b"XLAT", "translator section")?;
    m.hw.translator = Codec::get(r)?;

    r_section(r, b"TLBX", "tlb section")?;
    match (r.bool()?, &mut m.hw.xlat) {
        (true, Some(x)) => x.restore(r)?,
        (false, None) => {}
        _ => return Err(SnapshotError::Corrupted("tlb presence mismatch")),
    }

    r_section(r, b"NDCX", "ndc section")?;
    m.hw.ndc = NdcState::get_in(r, &progs)?;

    r_section(r, b"STAT", "stats section")?;
    m.hw.stats.restore(r)?;

    r_section(r, b"HWPR", "hw-private section")?;
    m.hw.restore(r)?;

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
    fn restore_rejects_an_invalid_program() {
        use levi_isa::{ActionId, FuncId, Inst, Label, Location, ProgramBuilder, Reg};

        let prog = {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main");
            f.halt();
            f.finish();
            Arc::new(pb.finish().expect("valid program"))
        };
        let cfg = MachineConfig::with_tiles(4);
        let mut m = Machine::try_new(cfg.clone()).expect("valid config");
        m.spawn_thread(0, prog.clone(), FuncId(0), &[])
            .expect("spawn");
        let digest = config_digest(&cfg);
        let payload = open(&m.checkpoint(), digest).expect("opens").to_vec();
        let mut w = Writer::new();
        codec::write_program(&mut w, &prog);
        let good = w.into_bytes();
        let at = payload
            .windows(good.len())
            .position(|win| win == good)
            .expect("the program is in the snapshot");

        let invoke5 = Inst::Invoke {
            actor: Reg(0),
            action: ActionId(0),
            args: (1..6).map(Reg).collect(),
            future: None,
            loc: Location::Remote,
            exclusive: false,
        };
        let cases: [(Vec<Inst>, &str); 4] = [
            (vec![Inst::Call { func: FuncId(7) }, Inst::Halt], "callee"),
            (vec![invoke5, Inst::Halt], "invoke argument count"),
            (
                vec![Inst::Jmp { target: Label(9) }, Inst::Halt],
                "branch target",
            ),
            (vec![Inst::Nop], "function end"),
        ];
        for (insts, what) in cases {
            // The same program table with the one function replaced.
            let mut w = Writer::new();
            w.u32(1);
            w.str("main");
            w.u32(insts.len() as u32);
            for inst in &insts {
                inst.put(&mut w);
            }
            let mut bad = payload[..at].to_vec();
            bad.extend(w.into_bytes());
            bad.extend(&payload[at + good.len()..]);
            let got = Machine::restore(cfg.clone(), &seal(digest, bad));
            assert_eq!(got.err(), Some(SnapshotError::Corrupted(what)));
        }
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
