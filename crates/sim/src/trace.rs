//! Structured event tracing with Chrome trace-event / Perfetto export.
//!
//! The [`Tracer`] is a ring-buffered recorder for the simulator's
//! microarchitectural events: the invoke lifecycle (issue → NACK/dispatch
//! → retire), coherence activity (invalidations, ownership transfers),
//! stream push/pop/stall, DRAM queueing, NoC messages, and injected-fault
//! activity. Recording is observational only — it never changes simulated
//! timing — and is branch-cheap when disabled: every hook passes a closure
//! that is not evaluated unless tracing is on.
//!
//! Every event kind is declared once, in the `trace_events!` table below:
//! its [`TraceKind`] variant, its exported name, its [`TraceCategory`], and
//! the names of its arguments. An event stores only the kind and the
//! argument values; the Chrome export and the snapshot codec read names
//! from the table.
//!
//! Each fact is recorded once. Invoke-lifecycle events that belong to one
//! invoke carry its [`SpanId`] (see [`crate::span`]), which
//! [`Tracer::to_chrome_json`] turns into Perfetto flow arrows; the span
//! table keeps the per-stage cycle marks, so no separate stage events are
//! recorded.
//!
//! [`Tracer::to_chrome_json`] exports the buffer in the Chrome
//! trace-event JSON format, loadable in Perfetto (<https://ui.perfetto.dev>)
//! or `chrome://tracing`, with one process per tile and one thread track
//! per unit (core, L2 engine, LLC engine, NoC port) keyed by simulated
//! cycle (1 cycle = 1 µs on the viewer's timeline).

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;

use levi_isa::codec::{CodecError, Reader, Writer};

use crate::engine::{EngineId, EngineLevel};
use crate::span::SpanId;

/// Ring-buffer capacity (events retained) when tracing is enabled.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// Maximum arguments per event (the longest argument list in the table).
pub const MAX_ARGS: usize = 3;

/// Event category, mapped to the Chrome trace `cat` field so Perfetto can
/// filter tracks by subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceCategory {
    /// Task-offload lifecycle: issue, NACK, dispatch, retire.
    Invoke,
    /// Coherence traffic: invalidations, ownership transfers.
    Coherence,
    /// Stream push / pop / consumer stall.
    Stream,
    /// DRAM controller queueing and service.
    Dram,
    /// NoC message traversal.
    Noc,
    /// Injected-fault activity: refusals, backoff retries, squeezes,
    /// degradation, core fallback.
    Fault,
}

impl TraceCategory {
    /// The category's name in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCategory::Invoke => "invoke",
            TraceCategory::Coherence => "coherence",
            TraceCategory::Stream => "stream",
            TraceCategory::Dram => "dram",
            TraceCategory::Noc => "noc",
            TraceCategory::Fault => "fault",
        }
    }
}

/// Declares [`TraceKind`], [`TraceKind::ALL`], and each kind's name,
/// category and argument names from one list of
/// `Variant => "name", Category, ["arg", ...];` entries, in tag order
/// (the snapshot codec stores a kind as its index in [`TraceKind::ALL`]).
macro_rules! trace_events {
    ($( $(#[$doc:meta])* $kind:ident => $name:literal, $cat:ident, [$($arg:literal),*]; )*) => {
        /// What a [`TraceEvent`] records.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum TraceKind {
            $( $(#[$doc])* $kind, )*
        }

        impl TraceKind {
            /// Every kind, in declaration (tag) order.
            pub const ALL: &'static [TraceKind] = &[$(TraceKind::$kind),*];

            /// The event's name in exported traces.
            pub fn name(self) -> &'static str {
                match self {
                    $( TraceKind::$kind => $name, )*
                }
            }

            /// The event's subsystem category.
            pub fn category(self) -> TraceCategory {
                match self {
                    $( TraceKind::$kind => TraceCategory::$cat, )*
                }
            }

            /// The names of the event's arguments, in recording order.
            pub fn arg_names(self) -> &'static [&'static str] {
                match self {
                    $( TraceKind::$kind => &[$($arg),*], )*
                }
            }
        }
    };
}

trace_events! {
    /// A core or engine issued an invoke packet to `target`'s engine.
    /// Carries the invoke's span.
    InvokeIssue => "invoke.issue", Invoke, ["target", "actor_addr"];
    /// The target engine had no free context; the issuer parks. Carries
    /// the invoke's span.
    InvokeNack => "invoke.nack", Invoke, ["target"];
    /// A tenant hit its engine-slot quota on a foreign engine; the issuer
    /// parks. Carries the invoke's span.
    InvokeQuotaNack => "invoke.quota_nack", Invoke, ["target"];
    /// An engine dispatched an invoked task into a context. Carries the
    /// invoke's span.
    TaskDispatch => "task.dispatch", Invoke, ["actor"];
    /// An engine task, or a core-fallback task that carries a span,
    /// retired. Carries the invoke's span.
    TaskRetire => "task.retire", Invoke, ["actor"];
    /// A private copy of `line` was invalidated (`dirty` = it held
    /// modified data).
    CohInval => "coh.inval", Coherence, ["line", "dirty"];
    /// Ownership of `line` moved away from tile `from`.
    CohXfer => "coh.xfer", Coherence, ["line", "from"];
    /// A producer pushed a stream entry.
    StreamPush => "stream.push", Stream, ["sid", "depth"];
    /// A consumer popped a stream entry.
    StreamPop => "stream.pop", Stream, ["sid", "depth"];
    /// A consumer waited on an empty stream (a duration event).
    StreamStall => "stream.stall", Stream, ["sid"];
    /// A DRAM read hit the memory controller's FIFO cache.
    DramFifoHit => "dram.fifo_hit", Dram, ["line"];
    /// A DRAM access, queueing included (a duration event).
    DramAccess => "dram.access", Dram, ["line", "queued"];
    /// A NoC message in flight (a duration event). Invoke packets and
    /// their ACKs carry the invoke's span.
    NocMsg => "noc.msg", Noc, ["to", "flits"];
    /// A faulted link delayed a NoC message by `extra` cycles.
    FaultNocDegraded => "fault.noc_degraded", Fault, ["to", "extra"];
    /// A throttled memory controller slowed an access by `extra` cycles.
    FaultDramThrottled => "fault.dram_throttled", Fault, ["line", "extra"];
    /// A squeezed invoke buffer stalled the core for `wait` cycles.
    FaultInvokeSqueeze => "fault.invoke_squeeze", Fault, ["limit", "wait"];
    /// A refusing engine made the issuer back off. Carries the invoke's
    /// span.
    FaultInvokeBackoff => "fault.invoke_backoff", Fault, ["target", "retry", "delay"];
    /// Past the retry budget, the invoke falls back to its issuing core.
    /// Carries the invoke's span.
    FaultCoreFallback => "fault.core_fallback", Fault, ["target", "actor_addr"];
    /// The fallback software handler started on the issuing core.
    /// Carries the invoke's span.
    FaultCoreFallbackTask => "fault.core_fallback_task", Fault, ["actor"];
}

/// The hardware unit an event is attributed to (its track in the viewer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// A core on the given tile.
    Core(u32),
    /// An engine (tile + level).
    Engine(EngineId),
    /// The NoC injection port of the given tile.
    Noc(u32),
    /// A DRAM memory controller.
    Dram(u32),
}

impl Track {
    /// Chrome trace `(pid, tid)` for this track. Tiles are processes
    /// (pid = tile + 1); memory controllers share a synthetic "dram"
    /// process.
    fn pid_tid(self) -> (u32, u32) {
        match self {
            Track::Core(t) => (t + 1, 1),
            Track::Engine(EngineId {
                tile,
                level: EngineLevel::L2,
            }) => (tile + 1, 2),
            Track::Engine(EngineId {
                tile,
                level: EngineLevel::Llc,
            }) => (tile + 1, 3),
            Track::Noc(t) => (t + 1, 4),
            Track::Dram(mc) => (DRAM_PID, mc + 1),
        }
    }

    /// Thread-track label for metadata events.
    fn tid_name(self) -> String {
        match self {
            Track::Core(_) => "core".into(),
            Track::Engine(EngineId {
                level: EngineLevel::L2,
                ..
            }) => "engine.l2".into(),
            Track::Engine(EngineId {
                level: EngineLevel::Llc,
                ..
            }) => "engine.llc".into(),
            Track::Noc(_) => "noc".into(),
            Track::Dram(mc) => format!("mc{mc}"),
        }
    }
}

/// Synthetic process id for DRAM controller tracks.
const DRAM_PID: u32 = 9999;

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event starts.
    pub cycle: u64,
    /// Duration in cycles; 0 renders as an instant event.
    pub dur: u64,
    /// What the event records (its name, category and argument names).
    pub kind: TraceKind,
    /// The track the event belongs to.
    pub track: Track,
    /// The invoke this event belongs to, if any. Span-linked events are
    /// joined by flow arrows in [`Tracer::to_chrome_json`].
    pub span: Option<SpanId>,
    /// Argument values, named by [`TraceKind::arg_names`].
    args: [u64; MAX_ARGS],
}

impl TraceEvent {
    /// Builds an instant event.
    ///
    /// # Panics
    /// Panics unless `args` holds exactly one value per name in
    /// [`TraceKind::arg_names`].
    pub fn instant(cycle: u64, kind: TraceKind, track: Track, args: &[u64]) -> Self {
        Self::lasting(cycle, 0, kind, track, args)
    }

    /// Builds a duration event covering `[cycle, cycle + dur)`.
    ///
    /// # Panics
    /// Panics unless `args` holds exactly one value per name in
    /// [`TraceKind::arg_names`].
    pub fn lasting(cycle: u64, dur: u64, kind: TraceKind, track: Track, args: &[u64]) -> Self {
        assert_eq!(
            args.len(),
            kind.arg_names().len(),
            "{} takes {:?}",
            kind.name(),
            kind.arg_names()
        );
        let mut a = [0u64; MAX_ARGS];
        a[..args.len()].copy_from_slice(args);
        TraceEvent {
            cycle,
            dur,
            kind,
            track,
            span: None,
            args: a,
        }
    }

    /// Links the event to an invoke's span.
    pub fn with_span(mut self, span: Option<SpanId>) -> Self {
        self.span = span;
        self
    }

    /// The event's named arguments.
    pub fn args(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind.arg_names().iter().copied().zip(self.args)
    }
}

/// The ring-buffered event recorder, retaining the last
/// [`TRACE_CAPACITY`] events.
///
/// Disabled by default; when disabled, [`Tracer::record`] is a single
/// branch and the event-building closure is never evaluated.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    enabled: bool,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer. Once [`TRACE_CAPACITY`] events are buffered,
    /// older events are dropped (and counted).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// True when events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event produced by `f` — only evaluated when enabled.
    #[inline]
    pub fn record(&mut self, f: impl FnOnce() -> TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= TRACE_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(f());
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped from the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over buffered events in record order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Discards all buffered events (keeps the enabled state).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Exports the buffer as Chrome trace-event JSON (Perfetto-loadable).
    ///
    /// Instant events use phase `"i"` (thread scope), duration events use
    /// complete events (`"X"`). Timestamps are simulated cycles
    /// interpreted as microseconds. Process/thread metadata names every
    /// tile and unit, so the viewer shows one group per tile with per-unit
    /// tracks.
    ///
    /// A span-linked event also carries its span id as a `"span"`
    /// argument, and the events sharing a span are joined by flow events
    /// (`ph` `"s"`/`"t"`/`"f"` with `id` = span id), which Perfetto
    /// renders as arrows following each invoke from the issuing core
    /// across the NoC to its engine and back.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",");
        let _ = write!(out, "\"leviDroppedEvents\":{},", self.dropped);
        out.push_str("\"traceEvents\":[");

        // Metadata: name each (pid, tid) pair seen in the buffer.
        let tracks: BTreeSet<Track> = self.events.iter().map(|e| e.track).collect();
        let pids: BTreeSet<u32> = tracks.iter().map(|t| t.pid_tid().0).collect();
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        for pid in &pids {
            sep(&mut out);
            let name = if *pid == DRAM_PID {
                "dram".to_string()
            } else {
                format!("tile{}", pid - 1)
            };
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for track in &tracks {
            let (pid, tid) = track.pid_tid();
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                track.tid_name()
            );
        }

        // Flow arrows need a start, zero or more steps, and an end: count
        // how many events carry each span id so the per-event pass knows
        // which flow phase to emit. Ids seen once get no flow events.
        let mut flow_total: levi_isa::fx::FxHashMap<SpanId, u32> =
            levi_isa::fx::FxHashMap::default();
        for e in &self.events {
            if let Some(id) = e.span {
                *flow_total.entry(id).or_insert(0) += 1;
            }
        }
        // Lookup-only (never iterated for output), so hash order is
        // unobservable and the fast hasher is safe here.
        let mut flow_seen: levi_isa::fx::FxHashMap<SpanId, u32> =
            levi_isa::fx::FxHashMap::default();

        for e in &self.events {
            let (pid, tid) = e.track.pid_tid();
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
                 \"ts\":{}",
                e.kind.name(),
                e.kind.category().as_str(),
                e.cycle
            );
            if e.dur > 0 {
                let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", e.dur);
            } else {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
            let span = e.span.map(|id| ("span", id.0 as u64));
            let mut args = e.args().chain(span).peekable();
            if args.peek().is_some() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in args.enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push('}');

            // Attach this event to its span's flow at the same (pid, tid,
            // ts): "s" starts the flow, "t" continues it, "f" (binding to
            // the enclosing slice) ends it.
            if let Some(id) = e.span {
                let total = flow_total[&id];
                if total >= 2 {
                    let seen = flow_seen.entry(id).or_insert(0);
                    *seen += 1;
                    let ph = if *seen == 1 {
                        "s"
                    } else if *seen == total {
                        "f"
                    } else {
                        "t"
                    };
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"{ph}\",\"cat\":\"span.flow\",\"name\":\"invoke\",\
                         \"id\":{},\"pid\":{pid},\"tid\":{tid},\"ts\":{}",
                        id.0, e.cycle
                    );
                    if ph == "f" {
                        out.push_str(",\"bp\":\"e\"");
                    }
                    out.push('}');
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Serializes the event ring (see [`crate::snapshot`]). An untraced
    /// tracer writes only the `enabled/capacity/dropped/count` prefix.
    pub(crate) fn snap_write(&self, w: &mut Writer) {
        use crate::snapshot::{w_engine_id, w_opt_span};
        w.bool(self.enabled);
        w.u64(TRACE_CAPACITY as u64);
        w.u64(self.dropped);
        w.u32(self.events.len() as u32);
        for e in &self.events {
            w.u64(e.cycle);
            w.u64(e.dur);
            w.u8(e.kind as u8);
            match e.track {
                Track::Core(t) => {
                    w.u8(0);
                    w.u32(t);
                }
                Track::Engine(id) => {
                    w.u8(1);
                    w_engine_id(w, id);
                }
                Track::Noc(t) => {
                    w.u8(2);
                    w.u32(t);
                }
                Track::Dram(mc) => {
                    w.u8(3);
                    w.u32(mc);
                }
            }
            w_opt_span(w, e.span);
            for (_, v) in e.args() {
                w.u64(v);
            }
        }
    }

    /// Restores a tracer written by [`Tracer::snap_write`].
    pub(crate) fn snap_read(r: &mut Reader) -> Result<Self, CodecError> {
        use crate::snapshot::{r_engine_id, r_opt_span};
        let enabled = r.bool()?;
        if r.u64()? != TRACE_CAPACITY as u64 {
            return Err(CodecError::Invalid("trace capacity"));
        }
        let dropped = r.u64()?;
        // cycle, dur, kind, track tag + tile, span tag.
        let n = r.count(23)?;
        let mut events = VecDeque::with_capacity(n);
        for _ in 0..n {
            let cycle = r.u64()?;
            let dur = r.u64()?;
            let kind = *TraceKind::ALL
                .get(r.u8()? as usize)
                .ok_or(CodecError::Invalid("trace kind"))?;
            let track = match r.u8()? {
                0 => Track::Core(r.u32()?),
                1 => Track::Engine(r_engine_id(r)?),
                2 => Track::Noc(r.u32()?),
                3 => Track::Dram(r.u32()?),
                _ => return Err(CodecError::Invalid("trace track")),
            };
            let span = r_opt_span(r)?;
            let mut args = [0u64; MAX_ARGS];
            for a in args.iter_mut().take(kind.arg_names().len()) {
                *a = r.u64()?;
            }
            events.push_back(TraceEvent {
                cycle,
                dur,
                kind,
                track,
                span,
                args,
            });
        }
        Ok(Tracer {
            enabled,
            events,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: TraceKind) -> TraceEvent {
        let args = [0; MAX_ARGS];
        TraceEvent::instant(cycle, kind, Track::Core(0), &args[..kind.arg_names().len()])
    }

    fn named(kind: TraceKind) -> String {
        format!("\"name\":\"{}\"", kind.name())
    }

    const LLC2: Track = Track::Engine(EngineId {
        tile: 2,
        level: EngineLevel::Llc,
    });

    #[test]
    fn kind_table_is_consistent() {
        let mut names = BTreeSet::new();
        for (tag, &kind) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, tag, "ALL is in tag order");
            assert!(names.insert(kind.name()), "duplicate {}", kind.name());
            assert!(kind.arg_names().len() <= MAX_ARGS, "{}", kind.name());
            // Names are `<category-ish prefix>.<event>`, safe to embed in
            // JSON without escaping.
            assert!(
                kind.name()
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b == b'.' || b == b'_'),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        assert!(!t.enabled());
        t.record(|| panic!("closure must not run when disabled"));
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_tracer_buffers_events() {
        let mut t = Tracer::new(true);
        t.record(|| ev(10, TraceKind::InvokeIssue));
        t.record(|| TraceEvent::lasting(20, 5, TraceKind::StreamPush, LLC2, &[1, 3]));
        assert_eq!(t.len(), 2);
        let evs: Vec<_> = t.events().collect();
        assert_eq!(evs[0].cycle, 10);
        assert_eq!(evs[1].dur, 5);
        assert_eq!(
            evs[1].args().collect::<Vec<_>>(),
            [("sid", 1), ("depth", 3)]
        );
        assert_eq!(evs[1].kind.category(), TraceCategory::Stream);
    }

    #[test]
    #[should_panic(expected = "takes")]
    fn wrong_argument_count_is_rejected() {
        TraceEvent::instant(0, TraceKind::NocMsg, Track::Noc(0), &[1]);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut t = Tracer::new(true);
        for i in 0..TRACE_CAPACITY as u64 + 6 {
            t.record(|| ev(i, TraceKind::StreamPop));
        }
        assert_eq!(t.len(), TRACE_CAPACITY);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.events().next().unwrap().cycle, 6);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = Tracer::new(true);
        t.record(|| ev(1, TraceKind::InvokeIssue));
        t.record(|| TraceEvent::lasting(2, 7, TraceKind::DramAccess, Track::Dram(1), &[42, 0]));
        let json = t.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains(&named(TraceKind::InvokeIssue)));
        assert!(json.contains("\"cat\":\"invoke\""));
        assert!(json.contains("\"ph\":\"X\",\"dur\":7"));
        assert!(json.contains("\"args\":{\"line\":42,\"queued\":0}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("tile0"));
        assert!(json.contains("\"dram\""));
        // Braces and brackets balance (cheap well-formedness check; no
        // string in the output contains braces).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn span_linked_events_emit_flow_arrows() {
        let mut t = Tracer::new(true);
        let linked = |cycle, kind: TraceKind, track, id| {
            let args = [0; MAX_ARGS];
            TraceEvent::instant(cycle, kind, track, &args[..kind.arg_names().len()])
                .with_span(Some(SpanId(id)))
        };
        t.record(|| linked(10, TraceKind::InvokeIssue, Track::Core(0), 7));
        t.record(|| linked(19, TraceKind::TaskDispatch, LLC2, 7));
        t.record(|| linked(40, TraceKind::TaskRetire, LLC2, 7));
        // An unrelated singleton span id gets no flow events.
        t.record(|| linked(50, TraceKind::InvokeIssue, Track::Core(1), 9));
        let json = t.to_chrome_json();
        assert!(
            json.contains("\"ph\":\"s\",\"cat\":\"span.flow\""),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"t\",\"cat\":\"span.flow\""),
            "{json}"
        );
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        assert_eq!(json.matches("span.flow").count(), 3, "singleton skipped");
        assert!(json.contains("\"args\":{\"actor\":0,\"span\":7}"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn spanless_export_has_no_flow_events() {
        let mut t = Tracer::new(true);
        t.record(|| ev(1, TraceKind::InvokeIssue));
        t.record(|| ev(2, TraceKind::InvokeNack));
        let json = t.to_chrome_json();
        assert!(!json.contains("span.flow"));
        assert!(!json.contains("\"span\""));
    }

    #[test]
    fn snapshot_round_trips_every_kind() {
        let mut t = Tracer::new(true);
        for (i, &kind) in TraceKind::ALL.iter().enumerate() {
            let args: Vec<u64> = (0..kind.arg_names().len() as u64)
                .map(|a| 100 * i as u64 + a)
                .collect();
            let span = (i % 2 == 0).then_some(SpanId(i as u32));
            t.record(|| TraceEvent::lasting(i as u64, 3, kind, LLC2, &args).with_span(span));
        }
        let mut w = Writer::new();
        t.snap_write(&mut w);
        let bytes = w.into_bytes();
        let back = Tracer::snap_read(&mut Reader::new(&bytes)).unwrap();
        assert!(back.enabled());
        assert_eq!(
            back.events().copied().collect::<Vec<_>>(),
            t.events().copied().collect::<Vec<_>>()
        );

        // An out-of-table kind tag is a typed error, not a panic.
        let mut bad = bytes.clone();
        let kind_at = 1 + 8 + 8 + 4 + 8 + 8;
        bad[kind_at] = TraceKind::ALL.len() as u8;
        assert!(matches!(
            Tracer::snap_read(&mut Reader::new(&bad)),
            Err(CodecError::Invalid("trace kind"))
        ));
    }

    #[test]
    fn empty_trace_is_valid_json_skeleton() {
        let t = Tracer::new(true);
        let json = t.to_chrome_json();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn clear_resets() {
        let mut t = Tracer::new(true);
        for i in 0..TRACE_CAPACITY as u64 + 1 {
            t.record(|| ev(i, TraceKind::StreamPop));
        }
        assert_eq!(t.dropped(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.enabled());
    }
}
