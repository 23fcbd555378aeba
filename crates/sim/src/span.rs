//! Causal invoke-lifecycle spans and critical-path attribution.
//!
//! Aggregate histograms (`invoke_rtt`) say *how slow* invokes were; they
//! cannot say *why*. A [`SpanTable`] records, per invoke, the cycle at
//! which it crossed every lifecycle stage — first issue attempt, packet
//! issue, engine arrival, task dispatch, task retire, ACK return — plus
//! the NACKs/retries it absorbed along the way. A monotonically
//! increasing [`SpanId`] is threaded through the invoke path
//! (`invoke.rs` → `noc.rs` → `sched.rs`). The table holds the stage
//! marks; the [`Tracer`](crate::trace::Tracer) records no stage events of
//! its own. Instead the events that already mark a stage's cycle (invoke
//! issue, NACK, fault backoff and fallback, the packet's and the ACK's
//! NoC messages, task dispatch and retire) carry the span id, and the
//! Perfetto export joins them with flow arrows.
//!
//! After a run, [`SpanTable::critical_path`] decomposes each completed
//! invoke's end-to-end latency into per-stage cycles:
//!
//! ```text
//! offload  = issue     - first_attempt   (backpressure, NACK, backoff)
//! noc      = arrival   - issue           (invoke packet transit)
//! queue    = dispatch  - arrival         (engine accept delay)
//! exec     = retired   - dispatch        (action execution)
//! response = ack       - arrival         (ACK transit, overlaps exec)
//! ```
//!
//! and reports stage totals plus the top-k slowest invokes. Recording is
//! observational only and off by default; it is on exactly when the tracer
//! is ([`MachineConfig::trace`](crate::MachineConfig::trace)). Disabled,
//! every hook is a single branch and outputs are byte-identical to an
//! uninstrumented build.

use std::fmt;

use levi_isa::codec::{Codec, CodecError, Reader, Writer};

use crate::engine::EngineId;

/// Default number of spans retained when span tracing is enabled.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// Identifies one invoke lifecycle span. Ids are assigned monotonically
/// in issue-attempt order and double as indices into the span table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Lifecycle cycle marks of one invoke as it flows core → NoC → engine →
/// response. `None` marks a stage the invoke never reached (e.g. `ack`
/// for engine-issued or future-carrying invokes, which are unACKed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvokeSpan {
    /// The span's id (its index in the table).
    pub id: SpanId,
    /// Tile of the issuing context.
    pub src_tile: u32,
    /// The engine the invoke was finally placed on.
    pub target: Option<EngineId>,
    /// Cycle of the first issue attempt — before buffer backpressure,
    /// NACK parks, and fault backoff.
    pub first_attempt: u64,
    /// Cycle the invoke packet was issued onto the NoC.
    pub issued: Option<u64>,
    /// Cycle the packet arrived at the target engine.
    pub arrival: Option<u64>,
    /// Cycle the engine dispatched the task into a context.
    pub dispatch: Option<u64>,
    /// Cycle the task retired (released its context).
    pub retired: Option<u64>,
    /// Cycle the ACK returned to the issuing core.
    pub ack: Option<u64>,
    /// NACKs absorbed (engine context buffer full).
    pub nacks: u32,
    /// Fault-induced backoff retries absorbed.
    pub retries: u32,
    /// True when the invoke fell back to a software handler on the
    /// issuing core (fault path past the retry budget).
    pub fallback: bool,
}

impl InvokeSpan {
    fn new(id: SpanId, src_tile: u32, first_attempt: u64) -> Self {
        InvokeSpan {
            id,
            src_tile,
            target: None,
            first_attempt,
            issued: None,
            arrival: None,
            dispatch: None,
            retired: None,
            ack: None,
            nacks: 0,
            retries: 0,
            fallback: false,
        }
    }

    /// True once the task has retired (the minimal completion criterion;
    /// unACKed invokes never set `ack`).
    pub fn complete(&self) -> bool {
        self.issued.is_some() && self.retired.is_some()
    }

    /// End-to-end latency: first attempt to the later of retire and ACK.
    /// `None` until the span is complete.
    pub fn rtt(&self) -> Option<u64> {
        let retired = self.retired?;
        let end = retired.max(self.ack.unwrap_or(0));
        Some(end.saturating_sub(self.first_attempt))
    }

    /// Per-stage decomposition; `None` until the span is complete.
    pub fn stages(&self) -> Option<StageCycles> {
        let issued = self.issued?;
        let retired = self.retired?;
        let arrival = self.arrival.unwrap_or(issued);
        let dispatch = self.dispatch.unwrap_or(arrival);
        Some(StageCycles {
            offload: issued.saturating_sub(self.first_attempt),
            noc: arrival.saturating_sub(issued),
            queue: dispatch.saturating_sub(arrival),
            exec: retired.saturating_sub(dispatch),
            response: self.ack.map_or(0, |a| a.saturating_sub(arrival)),
        })
    }
}

/// Cycles an invoke spent in each lifecycle stage. `response` overlaps
/// `exec` (the ACK returns while the task runs), so the stage sum can
/// exceed the end-to-end RTT.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// First attempt → packet issue (backpressure, NACKs, backoff).
    pub offload: u64,
    /// Packet issue → engine arrival (NoC transit).
    pub noc: u64,
    /// Engine arrival → task dispatch.
    pub queue: u64,
    /// Task dispatch → retire (action execution).
    pub exec: u64,
    /// Engine arrival → ACK return (0 for unACKed invokes).
    pub response: u64,
}

impl StageCycles {
    /// The five stages as `(name, cycles)` pairs in lifecycle order: the
    /// one list of stage names that Display, the critical path, and the
    /// telemetry exporters use.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("offload", self.offload),
            ("noc", self.noc),
            ("queue", self.queue),
            ("exec", self.exec),
            ("response", self.response),
        ]
    }

    fn add(&mut self, other: &StageCycles) {
        self.offload += other.offload;
        self.noc += other.noc;
        self.queue += other.queue;
        self.exec += other.exec;
        self.response += other.response;
    }
}

impl fmt::Display for StageCycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, cycles)) in self.named().into_iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{name} {cycles}")?;
        }
        Ok(())
    }
}

/// One of the top-k slowest invokes reported by
/// [`SpanTable::critical_path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowInvoke {
    /// The invoke's span id.
    pub id: SpanId,
    /// Issuing tile.
    pub src_tile: u32,
    /// Final placement.
    pub target: Option<EngineId>,
    /// End-to-end latency in cycles.
    pub rtt: u64,
    /// Per-stage decomposition.
    pub stages: StageCycles,
}

/// Post-run critical-path attribution over every completed span.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Per-stage cycle totals summed over completed spans.
    pub totals: StageCycles,
    /// Summed end-to-end RTT over completed spans.
    pub rtt_total: u64,
    /// Number of completed spans.
    pub completed: u64,
    /// Spans that never completed (e.g. still parked when the run ended).
    pub incomplete: u64,
    /// The `k` slowest completed invokes, by descending RTT (ties broken
    /// by ascending id, so the report is deterministic).
    pub slowest: Vec<SlowInvoke>,
}

impl CriticalPath {
    /// The stage with the largest total, as `(name, cycles)` — the
    /// headline answer to "where does invoke latency go?".
    pub fn dominant_stage(&self) -> (&'static str, u64) {
        self.totals
            .named()
            .into_iter()
            .max_by_key(|&(_, v)| v)
            .expect("nonempty")
    }
}

/// The span recorder: a bounded table of [`InvokeSpan`]s.
///
/// Unlike the event ring, spans keep the *first* `capacity` invokes and
/// count the overflow — stage updates address spans by id, so evicting
/// from the front would dangle in-flight ids.
#[derive(Clone, Debug, Default)]
pub struct SpanTable {
    enabled: bool,
    capacity: usize,
    spans: Vec<InvokeSpan>,
    dropped: u64,
}

impl SpanTable {
    /// Creates a span table retaining at most `capacity` spans.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        SpanTable {
            enabled,
            capacity: capacity.max(1),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// True when spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Invokes not recorded because the table was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans, in first-attempt order.
    pub fn spans(&self) -> &[InvokeSpan] {
        &self.spans
    }

    /// Opens a span for an invoke first attempted at `now` on `src_tile`.
    /// Returns `None` when disabled or full (counted in `dropped`).
    pub(crate) fn begin(&mut self, src_tile: u32, now: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(InvokeSpan::new(id, src_tile, now));
        Some(id)
    }

    #[inline]
    fn get_mut(&mut self, id: SpanId) -> &mut InvokeSpan {
        &mut self.spans[id.0 as usize]
    }

    /// Records a NACK (engine context buffer full).
    pub(crate) fn note_nack(&mut self, id: SpanId) {
        self.get_mut(id).nacks += 1;
    }

    /// Records a fault-induced backoff retry.
    pub(crate) fn note_retry(&mut self, id: SpanId) {
        self.get_mut(id).retries += 1;
    }

    /// Records the successful packet issue and final placement.
    pub(crate) fn note_issue(&mut self, id: SpanId, now: u64, target: EngineId, fallback: bool) {
        let s = self.get_mut(id);
        s.issued = Some(now);
        s.target = Some(target);
        s.fallback = fallback;
    }

    /// Records the packet's arrival at the target engine.
    pub(crate) fn note_arrival(&mut self, id: SpanId, at: u64) {
        self.get_mut(id).arrival = Some(at);
    }

    /// Records the task's dispatch into an engine context.
    pub(crate) fn note_dispatch(&mut self, id: SpanId, at: u64) {
        self.get_mut(id).dispatch = Some(at);
    }

    /// Records the task's retirement.
    pub(crate) fn note_retire(&mut self, id: SpanId, at: u64) {
        self.get_mut(id).retired = Some(at);
    }

    /// Records the ACK's return to the issuing core.
    pub(crate) fn note_ack(&mut self, id: SpanId, at: u64) {
        self.get_mut(id).ack = Some(at);
    }

    /// Decomposes every completed span into per-stage cycles and selects
    /// the `k` slowest invokes by end-to-end RTT.
    pub fn critical_path(&self, k: usize) -> CriticalPath {
        let mut cp = CriticalPath::default();
        let mut slow: Vec<SlowInvoke> = Vec::new();
        for s in &self.spans {
            let (Some(stages), Some(rtt)) = (s.stages(), s.rtt()) else {
                cp.incomplete += 1;
                continue;
            };
            cp.completed += 1;
            cp.totals.add(&stages);
            cp.rtt_total += rtt;
            slow.push(SlowInvoke {
                id: s.id,
                src_tile: s.src_tile,
                target: s.target,
                rtt,
                stages,
            });
        }
        slow.sort_by_key(|s| (std::cmp::Reverse(s.rtt), s.id));
        slow.truncate(k);
        cp.slowest = slow;
        cp
    }
}

levi_isa::codec_struct!(SpanId(u32));
levi_isa::codec_struct!(InvokeSpan {
    id,
    src_tile,
    target,
    first_attempt,
    issued,
    arrival,
    dispatch,
    retired,
    ack,
    nacks,
    retries,
    fallback,
});
levi_isa::codec_struct!(SpanTable {
    enabled,
    capacity: AtLeastOne,
    dropped,
    spans,
});

/// A capacity that reads back as at least 1, as [`SpanTable::new`] builds
/// it (a `Default` table's 0 restores as 1).
struct AtLeastOne;

impl AtLeastOne {
    fn put(&self, v: &usize, w: &mut Writer) {
        v.put(w);
    }

    fn get(&self, r: &mut Reader) -> Result<usize, CodecError> {
        Ok(usize::get(r)?.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineLevel;

    fn eng(tile: u32) -> EngineId {
        EngineId {
            tile,
            level: EngineLevel::Llc,
        }
    }

    #[test]
    fn disabled_table_records_nothing() {
        let mut t = SpanTable::default();
        assert!(!t.enabled());
        assert_eq!(t.begin(0, 10), None);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn full_lifecycle_decomposes() {
        let mut t = SpanTable::new(true, 8);
        let id = t.begin(0, 100).expect("enabled");
        t.note_nack(id);
        t.note_issue(id, 110, eng(2), false);
        t.note_arrival(id, 119);
        t.note_dispatch(id, 119);
        t.note_ack(id, 127);
        t.note_retire(id, 150);
        let s = t.spans()[0];
        assert!(s.complete());
        assert_eq!(s.rtt(), Some(50));
        assert_eq!(s.nacks, 1);
        let st = s.stages().unwrap();
        assert_eq!(st.offload, 10);
        assert_eq!(st.noc, 9);
        assert_eq!(st.queue, 0);
        assert_eq!(st.exec, 31);
        assert_eq!(st.response, 8);
    }

    #[test]
    fn incomplete_spans_are_counted_not_decomposed() {
        let mut t = SpanTable::new(true, 8);
        let a = t.begin(0, 0).unwrap();
        t.note_issue(a, 5, eng(1), false);
        t.note_arrival(a, 9);
        t.note_dispatch(a, 9);
        t.note_retire(a, 20);
        let b = t.begin(1, 2).unwrap();
        t.note_issue(b, 4, eng(0), false); // never retired
        let cp = t.critical_path(4);
        assert_eq!(cp.completed, 1);
        assert_eq!(cp.incomplete, 1);
        assert_eq!(cp.slowest.len(), 1);
        assert_eq!(cp.slowest[0].id, a);
        assert_eq!(cp.rtt_total, 20);
    }

    #[test]
    fn capacity_drops_and_counts() {
        let mut t = SpanTable::new(true, 2);
        assert!(t.begin(0, 0).is_some());
        assert!(t.begin(0, 1).is_some());
        assert_eq!(t.begin(0, 2), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn slowest_is_deterministic_under_ties() {
        let mut t = SpanTable::new(true, 8);
        for i in 0..4u64 {
            let id = t.begin(0, i * 100).unwrap();
            t.note_issue(id, i * 100 + 1, eng(1), false);
            t.note_arrival(id, i * 100 + 4);
            t.note_dispatch(id, i * 100 + 4);
            t.note_retire(id, i * 100 + 30); // identical 30-cycle RTTs
        }
        let cp = t.critical_path(2);
        assert_eq!(cp.completed, 4);
        assert_eq!(cp.slowest.len(), 2);
        assert_eq!(cp.slowest[0].id, SpanId(0), "ties break by id");
        assert_eq!(cp.slowest[1].id, SpanId(1));
        assert_eq!(cp.dominant_stage().0, "exec");
    }

    #[test]
    fn unacked_invoke_has_zero_response() {
        let mut t = SpanTable::new(true, 4);
        let id = t.begin(3, 0).unwrap();
        t.note_issue(id, 0, eng(3), false);
        t.note_arrival(id, 0);
        t.note_dispatch(id, 0);
        t.note_retire(id, 12);
        let st = t.spans()[0].stages().unwrap();
        assert_eq!(st.response, 0);
        assert_eq!(st.exec, 12);
        assert_eq!(
            st.to_string(),
            "offload 0 | noc 0 | queue 0 | exec 12 | response 0"
        );
        assert_eq!(t.spans()[0].rtt(), Some(12));
    }
}
