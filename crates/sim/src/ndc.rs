//! NDC architectural state: action tables, Morph regions, streams, futures,
//! LLC bank-mapping ranges, and the wait/wake machinery for blocked
//! contexts.

use std::fmt;
use std::sync::Arc;

use levi_isa::codec::{get_seq, put_seq, Codec, CodecError, Reader, Writer};
use levi_isa::fx::FxHashMap;
use levi_isa::{ActionId, Addr, FuncId, Program};

use crate::engine::EngineId;
use crate::error::SimError;
use crate::snapshot::ProgTable;

/// A reference to executable action code: a program and a function in it.
#[derive(Clone, Debug)]
pub struct ActionRef {
    /// Program containing the function.
    pub prog: Arc<Program>,
    /// The function to execute.
    pub func: FuncId,
}

/// The machine-wide action table (the engines' "vtable map",
/// paper Sec. VI-B2).
///
/// Action ids are small dense integers allocated by the workload layer, so
/// the table is a flat slab indexed by id — an invoke's action lookup is a
/// bounds check plus a load, not a hash.
#[derive(Clone, Debug, Default)]
pub struct ActionTable {
    slab: Vec<Option<ActionRef>>,
    count: usize,
}

impl ActionTable {
    /// Registers (or replaces) an action.
    pub fn register(&mut self, id: ActionId, prog: Arc<Program>, func: FuncId) {
        let idx = id.0 as usize;
        if idx >= self.slab.len() {
            self.slab.resize(idx + 1, None);
        }
        if self.slab[idx].replace(ActionRef { prog, func }).is_none() {
            self.count += 1;
        }
    }

    /// Looks up an action.
    ///
    /// Invoking an unregistered action is a program bug; rather than
    /// panicking mid-simulation this surfaces as
    /// [`SimError::UnknownAction`], which `Machine::run` converts into a
    /// `RunError::Fault`.
    pub fn get(&self, id: ActionId) -> Result<&ActionRef, SimError> {
        self.slab
            .get(id.0 as usize)
            .and_then(|slot| slot.as_ref())
            .ok_or(SimError::UnknownAction(id))
    }

    /// Number of registered actions.
    pub fn len(&self) -> usize {
        self.count
    }

    /// All registered actions sorted by id — the canonical iteration
    /// order for serialization (see [`crate::snapshot`]). Slab order *is*
    /// id order.
    pub(crate) fn snap_entries(&self) -> Vec<(ActionId, &ActionRef)> {
        self.slab
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (ActionId(i as u32), r)))
            .collect()
    }

    /// True if no actions are registered.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Which cache level a Morph is registered at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MorphLevel {
    /// Constructors/destructors trigger at the private L2 (data lives in
    /// L1/L2 only — e.g. decompression, stream consumption).
    L2,
    /// Constructors/destructors trigger at the LLC (e.g. PHI's
    /// write-combining deltas).
    Llc,
}

/// A registered Morph: a phantom address range with data-triggered actions
/// (paper Fig. 11).
#[derive(Clone, Debug)]
pub struct MorphRegion {
    /// First byte of the phantom range.
    pub base: Addr,
    /// One past the last byte.
    pub bound: Addr,
    /// Trigger level.
    pub level: MorphLevel,
    /// Padded object size in bytes (power of two ≤ 4 lines, or a multiple
    /// of the line size for multi-line objects).
    pub obj_size: u64,
    /// Constructor action (runs on insertion), if any. `None` zero-fills.
    pub ctor: Option<ActionId>,
    /// Destructor action (runs on eviction), if any. `None` drops the line.
    pub dtor: Option<ActionId>,
    /// Address of the Morph's per-engine view/state object, passed to
    /// actions in `r1`.
    pub view: Addr,
    /// If this Morph backs a stream, its id (consumer loads block past the
    /// stream tail).
    pub stream: Option<StreamId>,
}

impl MorphRegion {
    /// True if `addr` falls inside the phantom range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.bound
    }

    /// Base address of the object containing `addr`.
    pub fn obj_base(&self, addr: Addr) -> Addr {
        self.base + (addr - self.base) / self.obj_size * self.obj_size
    }

    /// Index of the object containing `addr`.
    pub fn obj_index(&self, addr: Addr) -> u64 {
        (addr - self.base) / self.obj_size
    }

    /// True if objects span multiple cache lines.
    pub fn is_multiline(&self) -> bool {
        self.obj_size > crate::config::LINE_SIZE
    }
}

/// Identifies a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Run-ahead behaviour of a stream producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamMode {
    /// Leviathan: the producer runs ahead until the buffer fills.
    RunAhead,
    /// tākō-style pseudo-streaming: the producer is triggered by consumer
    /// misses, generates at most one cache line of entries per activation,
    /// and pays a re-initialization cost per activation (Sec. VIII-C).
    MissTriggered {
        /// Extra engine instructions charged per activation.
        reinit_instrs: u32,
    },
}

/// Architectural state of one stream (paper Sec. VI-B3).
#[derive(Clone, Debug)]
pub struct StreamState {
    /// The stream's id.
    pub id: StreamId,
    /// Base address of the circular buffer in shared memory (also the
    /// phantom range the consumer loads from).
    pub buffer: Addr,
    /// Entry size in bytes (padded).
    pub entry_size: u64,
    /// Capacity in entries (Fig. 23 sweeps this).
    pub capacity: u64,
    /// Entries pushed so far (monotonic).
    pub tail: u64,
    /// Entries popped so far (monotonic).
    pub head: u64,
    /// Engine hosting the producer.
    pub engine: EngineId,
    /// Consumer core.
    pub consumer: u32,
    /// Producer scheduling mode.
    pub mode: StreamMode,
    /// Set when the producer has finished generating (genStream returned).
    pub closed: bool,
}

impl StreamState {
    /// Entries currently buffered.
    pub fn len(&self) -> u64 {
        self.tail - self.head
    }

    /// True if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.tail == self.head
    }

    /// True if a push must block.
    pub fn is_full(&self) -> bool {
        match self.mode {
            StreamMode::RunAhead => self.len() >= self.capacity,
            StreamMode::MissTriggered { .. } => {
                // Miss-triggered producers may only fill one line beyond
                // the head (they cannot run ahead).
                let per_line = (crate::config::LINE_SIZE / self.entry_size).max(1);
                self.len() >= per_line.min(self.capacity)
            }
        }
    }

    /// Buffer address of entry number `n` (monotonic count).
    pub fn entry_addr(&self, n: u64) -> Addr {
        self.buffer + (n % self.capacity) * self.entry_size
    }
}

/// A filled future's delivery record: value arrival time at the waiter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FutureFill {
    /// Cycle the store-update message reaches the waiting thread.
    pub arrival: u64,
}

/// LLC bank-index mapping override for large objects (paper Sec. VI-A3):
/// within `[base, bound)`, the bank-index function ignores
/// `ignore_line_bits` low bits of the line index so that all lines of an
/// object map to the same bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankMapRange {
    /// First byte of the range.
    pub base: Addr,
    /// One past the last byte.
    pub bound: Addr,
    /// Line-index LSBs to ignore (0–2 for up to 4-line objects).
    pub ignore_line_bits: u32,
}

/// Why a context is blocked (the wake condition it waits on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WaitCond {
    /// Waiting for the future at this address to be filled.
    FutureFill(Addr),
    /// Waiting for a stream to contain data (consumer side).
    StreamData(StreamId),
    /// Waiting for space in a stream buffer (producer side).
    StreamSpace(StreamId),
    /// Waiting for a free offloaded-task context on an engine.
    EngineCtx(EngineId),
}

impl fmt::Display for WaitCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCond::FutureFill(a) => write!(f, "future-fill @{a:#x}"),
            WaitCond::StreamData(s) => write!(f, "stream-data sid={}", s.0),
            WaitCond::StreamSpace(s) => write!(f, "stream-space sid={}", s.0),
            WaitCond::EngineCtx(e) => write!(f, "engine-ctx {e}"),
        }
    }
}

/// All NDC architectural state.
#[derive(Clone, Debug, Default)]
pub struct NdcState {
    /// The global action table.
    pub actions: ActionTable,
    /// Registered Morph regions.
    pub morphs: Vec<MorphRegion>,
    /// Active streams.
    pub streams: Vec<StreamState>,
    /// Filled futures (address → delivery record).
    pub futures: FxHashMap<Addr, FutureFill>,
    /// LLC bank-mapping overrides.
    pub bank_maps: Vec<BankMapRange>,
    /// Streaming-store ranges: full-line sequential write targets (e.g.
    /// PHI's delta logs) whose write misses skip the write-allocate fetch
    /// (hardware write-combining).
    pub stream_store_ranges: Vec<(Addr, Addr)>,
    /// Memory-side ranges: engine accesses to these bypass the LLC and go
    /// straight to the memory controller (PHI's in-place update path —
    /// the cache holds deltas *instead of* this data, so caching it would
    /// defeat the write-combining buffer).
    pub mem_side_ranges: Vec<(Addr, Addr)>,
}

impl NdcState {
    /// Finds the Morph containing `addr`, if any.
    pub fn morph_at(&self, addr: Addr) -> Option<usize> {
        self.morphs.iter().position(|m| m.contains(addr))
    }

    /// Registers a Morph, returning its index.
    ///
    /// # Panics
    /// Panics if the range overlaps an existing Morph or the object size is
    /// zero.
    pub fn register_morph(&mut self, m: MorphRegion) -> usize {
        assert!(m.obj_size > 0 && m.bound > m.base);
        for e in &self.morphs {
            assert!(
                m.bound <= e.base || m.base >= e.bound,
                "overlapping morph regions"
            );
        }
        self.morphs.push(m);
        self.morphs.len() - 1
    }

    /// Removes the Morph based at `base`; returns it if present.
    pub fn unregister_morph(&mut self, base: Addr) -> Option<MorphRegion> {
        let i = self.morphs.iter().position(|m| m.base == base)?;
        Some(self.morphs.remove(i))
    }

    /// Mutable access to a stream.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn stream_mut(&mut self, id: StreamId) -> &mut StreamState {
        &mut self.streams[id.0 as usize]
    }

    /// Shared access to a stream.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn stream(&self, id: StreamId) -> &StreamState {
        &self.streams[id.0 as usize]
    }

    /// Total entries buffered across all streams (for occupancy sampling).
    pub fn buffered_entries(&self) -> u64 {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// True if `addr` lies in a registered memory-side range.
    pub fn is_mem_side(&self, addr: Addr) -> bool {
        self.mem_side_ranges
            .iter()
            .any(|&(b, e)| addr >= b && addr < e)
    }

    /// True if `addr` lies in a registered streaming-store range.
    pub fn is_stream_store(&self, addr: Addr) -> bool {
        self.stream_store_ranges
            .iter()
            .any(|&(b, e)| addr >= b && addr < e)
    }

    /// The effective line-index LSBs to ignore when picking `addr`'s LLC
    /// bank.
    pub fn bank_ignore_bits(&self, addr: Addr) -> u32 {
        self.bank_maps
            .iter()
            .find(|r| addr >= r.base && addr < r.bound)
            .map_or(0, |r| r.ignore_line_bits)
    }
}

levi_isa::codec_struct!(StreamId(u32));
levi_isa::codec_enum!(MorphLevel "morph level" { 0 => L2, 1 => Llc });
levi_isa::codec_enum!(WaitCond "wait condition" {
    0 => FutureFill(addr),
    1 => StreamData(sid),
    2 => StreamSpace(sid),
    3 => EngineCtx(engine),
});
levi_isa::codec_enum!(StreamMode "stream mode" {
    0 => RunAhead,
    1 => MissTriggered { reinit_instrs },
});
levi_isa::codec_struct!(MorphRegion {
    base,
    bound,
    level,
    obj_size,
    ctor,
    dtor,
    view,
    stream,
});
levi_isa::codec_struct!(StreamState {
    id,
    buffer,
    entry_size,
    capacity,
    tail,
    head,
    engine,
    consumer,
    mode,
    closed,
});
levi_isa::codec_struct!(FutureFill { arrival });
levi_isa::codec_struct!(BankMapRange {
    base,
    bound,
    ignore_line_bits,
});
levi_isa::codec_struct!(pub(crate) ActionRef(progs: &ProgTable) { prog: progs, func });
// The `NDCX` section (see [`crate::snapshot`]).
levi_isa::codec_struct!(pub(crate) NdcState(progs: &ProgTable) {
    actions: Actions(progs),
    morphs,
    streams,
    futures: SortedFutures,
    bank_maps,
    stream_store_ranges,
    mem_side_ranges,
});

/// The action table as its registered `(id, action)` entries in id order.
struct Actions<'a>(&'a ProgTable);

impl Actions<'_> {
    fn put(&self, table: &ActionTable, w: &mut Writer) {
        put_seq(w, table.snap_entries().iter(), |(id, action), w| {
            id.put(w);
            action.put_in(w, self.0);
        });
    }

    fn get(&self, r: &mut Reader) -> Result<ActionTable, CodecError> {
        let mut table = ActionTable::default();
        let entries = get_seq(r, 12, |r| {
            Ok((ActionId::get(r)?, ActionRef::get_in(r, self.0)?))
        })?;
        for (id, action) in entries {
            table.register(id, action.prog, action.func);
        }
        Ok(table)
    }
}

/// The filled futures as `(address, fill)` pairs sorted by address (map
/// order is not deterministic).
struct SortedFutures;

impl SortedFutures {
    fn put(&self, futures: &FxHashMap<Addr, FutureFill>, w: &mut Writer) {
        let mut sorted: Vec<(Addr, FutureFill)> = futures.iter().map(|(&a, &f)| (a, f)).collect();
        sorted.sort_unstable_by_key(|&(a, _)| a);
        sorted.put(w);
    }

    fn get(&self, r: &mut Reader) -> Result<FxHashMap<Addr, FutureFill>, CodecError> {
        let sorted = Vec::<(Addr, FutureFill)>::get(r)?;
        let mut futures = levi_isa::fx::map_with_capacity(sorted.len());
        for (addr, fill) in sorted {
            if futures.insert(addr, fill).is_some() {
                return Err(CodecError::Invalid("duplicate future"));
            }
        }
        Ok(futures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LINE_SIZE;
    use crate::engine::EngineLevel;

    fn region(base: u64, bound: u64, obj: u64) -> MorphRegion {
        MorphRegion {
            base,
            bound,
            level: MorphLevel::Llc,
            obj_size: obj,
            ctor: None,
            dtor: None,
            view: 0,
            stream: None,
        }
    }

    #[test]
    fn morph_object_math() {
        let m = region(0x1000, 0x2000, 32);
        assert!(m.contains(0x1000));
        assert!(m.contains(0x1FFF));
        assert!(!m.contains(0x2000));
        assert_eq!(m.obj_base(0x1000), 0x1000);
        assert_eq!(m.obj_base(0x101F), 0x1000);
        assert_eq!(m.obj_base(0x1020), 0x1020);
        assert_eq!(m.obj_index(0x1040), 2);
        assert!(!m.is_multiline());
        assert!(region(0, 0x1000, 2 * LINE_SIZE).is_multiline());
    }

    #[test]
    fn morph_overlap_rejected() {
        let mut n = NdcState::default();
        n.register_morph(region(0x1000, 0x2000, 32));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut n2 = n.clone();
            n2.register_morph(region(0x1800, 0x2800, 32));
        }));
        assert!(r.is_err());
        // Adjacent is fine.
        n.register_morph(region(0x2000, 0x3000, 32));
        assert_eq!(n.morph_at(0x1800), Some(0));
        assert_eq!(n.morph_at(0x2800), Some(1));
        assert_eq!(n.morph_at(0x3000), None);
    }

    #[test]
    fn unregister_morph() {
        let mut n = NdcState::default();
        n.register_morph(region(0x1000, 0x2000, 32));
        assert!(n.unregister_morph(0x1000).is_some());
        assert!(n.unregister_morph(0x1000).is_none());
        assert_eq!(n.morph_at(0x1800), None);
    }

    #[test]
    fn stream_occupancy() {
        let s = StreamState {
            id: StreamId(0),
            buffer: 0x4000,
            entry_size: 8,
            capacity: 4,
            tail: 6,
            head: 3,
            engine: EngineId {
                tile: 0,
                level: EngineLevel::Llc,
            },
            consumer: 0,
            mode: StreamMode::RunAhead,
            closed: false,
        };
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(!s.is_full());
        assert_eq!(s.entry_addr(6), 0x4000 + 2 * 8, "wraps modulo capacity");
    }

    #[test]
    fn miss_triggered_stream_cannot_run_ahead() {
        let mut s = StreamState {
            id: StreamId(0),
            buffer: 0,
            entry_size: 8,
            capacity: 64,
            tail: 0,
            head: 0,
            engine: EngineId {
                tile: 0,
                level: EngineLevel::Llc,
            },
            consumer: 0,
            mode: StreamMode::MissTriggered { reinit_instrs: 15 },
            closed: false,
        };
        // 8 entries per 64B line: full at 8 buffered entries.
        s.tail = 8;
        assert!(s.is_full());
        s.head = 1;
        assert!(!s.is_full());
    }

    #[test]
    fn bank_ignore_bits_lookup() {
        let mut n = NdcState::default();
        n.bank_maps.push(BankMapRange {
            base: 0x10000,
            bound: 0x20000,
            ignore_line_bits: 1,
        });
        assert_eq!(n.bank_ignore_bits(0x10000), 1);
        assert_eq!(n.bank_ignore_bits(0xFFFF), 0);
        assert_eq!(n.bank_ignore_bits(0x20000), 0);
    }

    #[test]
    fn unknown_action_is_typed_error() {
        let t = ActionTable::default();
        assert_eq!(
            t.get(ActionId(9)).map(|_| ()),
            Err(SimError::UnknownAction(ActionId(9)))
        );
    }

    #[test]
    fn wait_cond_display_is_compact() {
        assert_eq!(
            WaitCond::FutureFill(0x9000).to_string(),
            "future-fill @0x9000"
        );
        assert_eq!(
            WaitCond::StreamData(StreamId(3)).to_string(),
            "stream-data sid=3"
        );
        assert_eq!(
            WaitCond::StreamSpace(StreamId(1)).to_string(),
            "stream-space sid=1"
        );
        let e = EngineId {
            tile: 2,
            level: EngineLevel::L2,
        };
        assert_eq!(
            WaitCond::EngineCtx(e).to_string(),
            format!("engine-ctx {e}")
        );
    }
}
