//! Execution statistics.
//!
//! A single [`Stats`] struct accumulates every counter the evaluation
//! needs: per-level cache hits/misses, NoC traffic, DRAM accesses (broken
//! down by workload *phase* for Fig. 21), branch predictor outcomes,
//! instruction counts, and NDC bookkeeping.
//!
//! Every counter, cache level and latency histogram is declared once, in
//! the `stats_table!` invocation below. That line makes the `Stats` field,
//! its snapshot encoding (and so [`Stats::digest`]), and its telemetry
//! registry entry ([`crate::telemetry::Telemetry`]'s JSONL and Prometheus
//! exports). To add a counter, add one line with a doc comment to the
//! section whose order it should take. The `Display` report is written by
//! hand and needs no row: its lines combine several counters and are
//! gated on feature use.
//!
//! A new counter changes the snapshot bytes, and with them every pinned
//! digest: the `(cycles, Stats::digest)` pins in `tests/faults.rs` and the
//! benchmark's `model.stats_digest`. Re-pin them in the same change.

use std::fmt;

use levi_isa::codec::{CodecError, Reader, Writer};

use crate::hist::Histogram;
use crate::span::SpanTable;
use crate::trace::Tracer;
use crate::xlat::MAX_TENANTS;

/// Slowest invokes listed by the `Display` critical-path report.
pub const TOP_SLOW_INVOKES: usize = 5;

/// Workload phase tag for phase-attributed counters (e.g. Fig. 21 splits
/// DRAM accesses between PageRank's edge and vertex phases).
pub const MAX_PHASES: usize = 4;

/// Per-cache-level access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines written back out of this level.
    pub writebacks: u64,
}

impl LevelStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in \[0, 1\]; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// `[concat!(prefix, i, suffix), ...]` over the listed indices `i`: one
/// metric name per index, built at compile time.
macro_rules! indexed {
    ($prefix:literal, $suffix:literal; $($i:literal)*) => {
        [$(concat!($prefix, $i, $suffix)),*]
    };
}

/// Telemetry names of the per-phase DRAM counters, `dram_phase<i>`.
pub(crate) const DRAM_PHASE_NAMES: [&str; MAX_PHASES] = indexed!("dram_phase", ""; 0 1 2 3);

/// Expands the counter table below into the [`Stats`] struct, its
/// snapshot codec, and the table-driven part of the telemetry registry.
///
/// Sections exist to fix two orders, both pinned byte for byte. The
/// registry ([`Telemetry::counters`]) lists `run`, `levels` (each as
/// `<level>_hits`, `_misses`, `_writebacks`), `events` and `xlat`, then
/// the recorder-derived counters and `dram_phase<i>`, then `tenants` (as
/// `tenant<i><suffix>`, one series after another); its histograms are
/// `latencies` then `xlat_latencies`. The snapshot order is spelled out in
/// `snap_write` below. Fields under `other` are coded by hand.
///
/// [`Telemetry::counters`]: crate::telemetry::Telemetry::counters
macro_rules! stats_table {
    (
        $(#[$doc:meta])*
        pub struct Stats {
            run { $( $(#[$run_doc:meta])* $run:ident, )* }
            levels { $( $(#[$lvl_doc:meta])* $lvl:ident, )* }
            events { $( $(#[$ev_doc:meta])* $ev:ident, )* }
            latencies { $( $(#[$lat_doc:meta])* $lat:ident, )* }
            xlat { $( $(#[$xl_doc:meta])* $xl:ident, )* }
            xlat_latencies { $( $(#[$xh_doc:meta])* $xh:ident, )* }
            tenants { $( $(#[$tn_doc:meta])* $tn:ident => $tn_suffix:literal, )* }
            other { $( $(#[$o_doc:meta])* $o_vis:vis $o:ident: $o_ty:ty, )* }
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Debug, Default)]
        // Declaration order is memory layout: the hand-coded recorders stay
        // next to the core counters, ahead of the translation and tenant
        // sections.
        pub struct Stats {
            $( $(#[$run_doc])* pub $run: u64, )*
            $( $(#[$lvl_doc])* pub $lvl: LevelStats, )*
            $( $(#[$ev_doc])* pub $ev: u64, )*
            $( $(#[$lat_doc])* pub $lat: Histogram, )*
            $( $(#[$o_doc])* $o_vis $o: $o_ty, )*
            $( $(#[$xl_doc])* pub $xl: u64, )*
            $( $(#[$xh_doc])* pub $xh: Histogram, )*
            $( $(#[$tn_doc])* pub $tn: Vec<u64>, )*
        }

        impl Stats {
            /// Number of latency histograms.
            pub(crate) const HISTOGRAMS: usize =
                [$(stringify!($lat),)* $(stringify!($xh),)*].len();

            /// The scalar and level counters as `(name, value)`, in
            /// registry order.
            pub(crate) fn table_counters(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $( (stringify!($run), self.$run), )*
                    $(
                        (concat!(stringify!($lvl), "_hits"), self.$lvl.hits),
                        (concat!(stringify!($lvl), "_misses"), self.$lvl.misses),
                        (concat!(stringify!($lvl), "_writebacks"), self.$lvl.writebacks),
                    )*
                    $( (stringify!($ev), self.$ev), )*
                    $( (stringify!($xl), self.$xl), )*
                ]
            }

            /// The per-tenant series as `(tenant<i><suffix>, value)`, one
            /// series after another. Empty unless tenancy is configured.
            ///
            /// # Panics
            /// Panics if a series is longer than [`MAX_TENANTS`], which
            /// config validation and `snap_read` rule out.
            pub(crate) fn tenant_counters(&self) -> Vec<(&'static str, u64)> {
                let mut v = Vec::new();
                $(
                    // Typed by the cap, so the index list cannot drift from it.
                    let names: [&str; MAX_TENANTS as usize] =
                        indexed!("tenant", $tn_suffix; 0 1 2 3 4 5 6 7);
                    v.extend(self.$tn.iter().enumerate().map(|(i, &c)| (names[i], c)));
                )*
                v
            }

            /// The latency histograms as `(name, histogram)`.
            pub(crate) fn histograms(&self) -> [(&'static str, &Histogram); Self::HISTOGRAMS] {
                [$( (stringify!($lat), &self.$lat), )* $( (stringify!($xh), &self.$xh), )*]
            }

            /// Serializes every deterministic counter, histogram, and recorder
            /// (see [`crate::snapshot`]). `host_phases` is wall-clock data and is
            /// deliberately excluded: it is nondeterministic, never part of
            /// byte-identical outputs, and resets on restore.
            pub(crate) fn snap_write(&self, w: &mut Writer) {
                $( w.u64(self.$run); )*
                $( w.u64(self.$ev); )*
                $( w_level(w, &self.$lvl); )*
                for p in &self.dram_by_phase {
                    w.u64(*p);
                }
                w.u64(self.current_phase as u64);
                $( self.$lat.snap_write(w); )*
                self.trace.snap_write(w);
                self.spans.snap_write(w);
                self.timeline.snap_write(w);
                $( w.u64(self.$xl); )*
                $( self.$xh.snap_write(w); )*
                $(
                    w.u32(self.$tn.len() as u32);
                    for &c in &self.$tn {
                        w.u64(c);
                    }
                )*
            }

            /// Restores statistics written by [`Stats::snap_write`] into `self`,
            /// leaving `host_phases` untouched.
            pub(crate) fn snap_read(&mut self, r: &mut Reader) -> Result<(), CodecError> {
                $( self.$run = r.u64()?; )*
                $( self.$ev = r.u64()?; )*
                $( self.$lvl = r_level(r)?; )*
                for p in &mut self.dram_by_phase {
                    *p = r.u64()?;
                }
                let phase = r.u64()? as usize;
                if phase >= MAX_PHASES {
                    return Err(CodecError::Invalid("phase index"));
                }
                self.current_phase = phase;
                $( self.$lat = Histogram::snap_read(r)?; )*
                self.trace = Tracer::snap_read(r)?;
                self.spans = SpanTable::snap_read(r)?;
                self.timeline = TimeSeries::snap_read(r)?;
                $( self.$xl = r.u64()?; )*
                $( self.$xh = Histogram::snap_read(r)?; )*
                $(
                    let n = r.count(8)?;
                    if n > MAX_TENANTS as usize {
                        return Err(CodecError::Invalid("tenant count"));
                    }
                    self.$tn.clear();
                    self.$tn.reserve(n);
                    for _ in 0..n {
                        self.$tn.push(r.u64()?);
                    }
                )*
                Ok(())
            }
        }
    };
}

stats_table! {
    /// All counters accumulated during a run.
    pub struct Stats {
        run {
            /// Final simulated cycle (set when the run finishes).
            cycles,
            /// Instructions retired by cores.
            core_instrs,
            /// Instructions retired by engines (all contexts + inline actions).
            engine_instrs,
        }
        levels {
            /// L1 data caches (cores).
            l1,
            /// Private L2 caches.
            l2,
            /// Shared LLC banks.
            llc,
            /// Engine L1d caches.
            engine_l1,
        }
        events {
            /// Directory lookups at the LLC.
            dir_lookups,
            /// Invalidation messages sent to private caches.
            invalidations,
            /// Cache-to-cache ownership transfers (the "ping-pong" the paper's
            /// task offload eliminates).
            ownership_transfers,
            /// NoC messages sent.
            noc_messages,
            /// NoC flit-hops (flits × hops), the traffic/energy metric.
            noc_flit_hops,
            /// DRAM line accesses (reads + writes), total.
            dram_accesses,
            /// Memory-controller FIFO-cache hits (avoided DRAM accesses).
            mc_cache_hits,
            /// Conditional branches executed on cores.
            branches,
            /// Mispredicted conditional branches on cores.
            mispredicts,
            /// Memory fences executed (including fenced atomics' implied fences).
            fences,
            /// Atomic RMWs executed by cores.
            core_rmws,
            /// Tasks offloaded via `invoke`.
            invokes,
            /// Invokes that were NACKed (engine context buffer full) and retried.
            invoke_nacks,
            /// Invokes that executed on the local tile due to the 1/32 migrate-up
            /// policy.
            invoke_migrations,
            /// Data-triggered constructor actions executed.
            ctor_actions,
            /// Data-triggered destructor actions executed.
            dtor_actions,
            /// Stream entries pushed by producers.
            stream_pushes,
            /// Stream entries popped by consumers.
            stream_pops,
            /// Cycles consumer loads stalled waiting for stream data.
            stream_stall_cycles,
            /// L2 prefetches issued.
            prefetches,
            /// Fault windows injected by the configured
            /// [`FaultPlan`](crate::fault::FaultPlan) (0 when no plan is set).
            faults_injected,
            /// Invoke retries caused by fault-refused engines (backoff path).
            fault_nack_retries,
            /// Invokes that exhausted the retry budget and fell back to executing
            /// on the issuing core.
            fault_fallbacks,
            /// Extra cycles attributable to injected faults: backoff waits,
            /// squeeze stalls, NoC slowdown/outage delay, DRAM throttle delay.
            fault_degraded_cycles,
        }
        latencies {
            /// Invoke round-trip latency (issue to acknowledgment) in cycles.
            invoke_rtt,
            /// Load-to-use latency (issue of a core load to data return) in cycles.
            load_to_use,
            /// DRAM controller queueing delay (arrival to service start) in cycles.
            dram_queue,
            /// Duration of individual stream-pop stalls in cycles.
            stream_stall,
            /// Backoff delay per fault-induced invoke retry, in cycles.
            fault_backoff,
        }
        xlat {
            /// TLB lookups that hit (0 unless translation is enabled; see
            /// [`crate::xlat`]).
            tlb_hits,
            /// TLB lookups that missed and paid a page walk.
            tlb_misses,
            /// Total cycles charged to page walks (NoC + DRAM + fixed per-level
            /// latency).
            tlb_walk_cycles,
            /// Invokes NACKed by the tenant engine-slot quota (subset of
            /// `invoke_nacks`).
            tenant_quota_nacks,
        }
        xlat_latencies {
            /// Per-walk latency distribution (empty unless translation is on).
            xlat_walk,
        }
        tenants {
            /// LLC misses attributed to each tenant (empty unless tenancy is on).
            tenant_llc_misses => "_llc_misses",
            /// Invokes issued by each tenant.
            tenant_invokes => "_invokes",
            /// Latest core-thread finish cycle observed per tenant (a slowdown
            /// proxy: the spread shows inter-tenant interference).
            tenant_finish => "_finish_cycles",
        }
        other {
            /// DRAM accesses attributed per phase (see [`Stats::set_phase`]).
            pub dram_by_phase: [u64; MAX_PHASES],
            /// Host wall-time attributed to simulator phases by the scoped
            /// profiler (see [`crate::perf`]). Empty unless the crate is built
            /// with the `self-profile` feature; [`crate::Machine::run`] drains the
            /// thread-local accumulator here when it returns. Never printed by
            /// `Display` — wall-clock nanoseconds are nondeterministic and must
            /// stay out of byte-identical outputs.
            pub host_phases: crate::perf::PhaseProfile,
            /// Structured event recorder (off by default; see
            /// [`crate::config::MachineConfig::trace`]).
            pub trace: Tracer,
            /// Causal invoke-lifecycle spans for the critical-path analyzer (off
            /// by default; see
            /// [`crate::config::MachineConfig::trace_spans`]).
            pub spans: SpanTable,
            /// Periodic time-series sampler (off by default; see
            /// [`crate::config::MachineConfig::sample_interval`]).
            pub timeline: TimeSeries,
            current_phase: usize,
        }
    }
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current workload phase for phase-attributed counters.
    ///
    /// # Panics
    /// Panics if `phase >= MAX_PHASES`.
    pub fn set_phase(&mut self, phase: usize) {
        assert!(phase < MAX_PHASES, "phase {phase} out of range");
        self.current_phase = phase;
    }

    /// The current phase index.
    pub fn phase(&self) -> usize {
        self.current_phase
    }

    /// Records one DRAM access in the current phase.
    pub(crate) fn count_dram(&mut self) {
        self.dram_accesses += 1;
        self.dram_by_phase[self.current_phase] += 1;
    }

    /// Branch misprediction rate in \[0, 1\].
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:            {}", self.cycles)?;
        writeln!(f, "core instrs:       {}", self.core_instrs)?;
        writeln!(f, "engine instrs:     {}", self.engine_instrs)?;
        writeln!(
            f,
            "L1  hits/misses:   {}/{} ({:.1}% miss)",
            self.l1.hits,
            self.l1.misses,
            self.l1.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "L2  hits/misses:   {}/{} ({:.1}% miss)",
            self.l2.hits,
            self.l2.misses,
            self.l2.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "LLC hits/misses:   {}/{} ({:.1}% miss)",
            self.llc.hits,
            self.llc.misses,
            self.llc.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "eL1 hits/misses:   {}/{} ({:.1}% miss)",
            self.engine_l1.hits,
            self.engine_l1.misses,
            self.engine_l1.miss_ratio() * 100.0
        )?;
        writeln!(
            f,
            "writebacks:        L1 {} / L2 {} / LLC {} / eL1 {}",
            self.l1.writebacks, self.l2.writebacks, self.llc.writebacks, self.engine_l1.writebacks
        )?;
        writeln!(f, "DRAM accesses:     {}", self.dram_accesses)?;
        writeln!(f, "MC cache hits:     {}", self.mc_cache_hits)?;
        writeln!(f, "NoC flit-hops:     {}", self.noc_flit_hops)?;
        writeln!(
            f,
            "branches:          {} ({:.2}% mispredicted)",
            self.branches,
            self.mispredict_ratio() * 100.0
        )?;
        writeln!(f, "fences:            {}", self.fences)?;
        writeln!(
            f,
            "invokes:           {} ({} NACKed)",
            self.invokes, self.invoke_nacks
        )?;
        writeln!(
            f,
            "ctor/dtor actions: {}/{}",
            self.ctor_actions, self.dtor_actions
        )?;
        write!(
            f,
            "stream push/pop:   {}/{}",
            self.stream_pushes, self.stream_pops
        )?;
        if !self.invoke_rtt.is_empty() {
            write!(f, "\ninvoke RTT:        {}", self.invoke_rtt)?;
        }
        if !self.stream_stall.is_empty() {
            write!(f, "\nstream stall:      {}", self.stream_stall)?;
        }
        // Fault lines are emitted only when a plan injected something, so
        // unfaulted runs keep byte-identical output to pre-fault builds.
        if self.faults_injected > 0 {
            write!(
                f,
                "\nfaults:            {} injected; {} NACK-retries, {} core-fallbacks, {} degraded cycles",
                self.faults_injected,
                self.fault_nack_retries,
                self.fault_fallbacks,
                self.fault_degraded_cycles
            )?;
            if !self.fault_backoff.is_empty() {
                write!(f, "\nfault backoff:     {}", self.fault_backoff)?;
            }
        }
        // Translation and tenancy lines are likewise gated: runs with
        // both features off keep byte-identical output.
        if self.tlb_hits + self.tlb_misses > 0 {
            let total = self.tlb_hits + self.tlb_misses;
            write!(
                f,
                "\nTLB hits/misses:   {}/{} ({:.1}% hit); {} walk cycles",
                self.tlb_hits,
                self.tlb_misses,
                self.tlb_hits as f64 / total as f64 * 100.0,
                self.tlb_walk_cycles
            )?;
            if !self.xlat_walk.is_empty() {
                write!(f, "\nwalk latency:      {}", self.xlat_walk)?;
            }
        }
        if !self.tenant_finish.is_empty() {
            write!(f, "\ntenants:           {}", self.tenant_finish.len())?;
            for t in 0..self.tenant_finish.len() {
                write!(
                    f,
                    "\n  tenant {t}: {} LLC misses, {} invokes, finish @{}",
                    self.tenant_llc_misses.get(t).copied().unwrap_or(0),
                    self.tenant_invokes.get(t).copied().unwrap_or(0),
                    self.tenant_finish[t]
                )?;
            }
            if self.tenant_quota_nacks > 0 {
                write!(f, "\nquota NACKs:       {}", self.tenant_quota_nacks)?;
            }
        }
        // Dropped-event and span lines are gated the same way: runs
        // without tracing/spans keep byte-identical output.
        if self.trace.dropped() > 0 {
            write!(
                f,
                "\ntrace dropped:     {} events (ring capacity {} exceeded)",
                self.trace.dropped(),
                self.trace.len()
            )?;
        }
        if !self.spans.is_empty() || self.spans.dropped() > 0 {
            let cp = self.spans.critical_path(TOP_SLOW_INVOKES);
            write!(
                f,
                "\ninvoke spans:      {} recorded ({} complete, {} incomplete, {} dropped)",
                self.spans.len(),
                cp.completed,
                cp.incomplete,
                self.spans.dropped()
            )?;
            if cp.completed > 0 {
                write!(
                    f,
                    "\nspan stages:       {} (summed cycles; rtt {}, dominated by {})",
                    cp.totals,
                    cp.rtt_total,
                    cp.dominant_stage().0
                )?;
                for s in &cp.slowest {
                    write!(f, "\n  slow {}: rtt {} = {}", s.id, s.rtt, s.stages)?;
                    match s.target {
                        Some(t) => write!(f, " (tile {} -> {})", s.src_tile, t)?,
                        None => write!(f, " (tile {})", s.src_tile)?,
                    }
                }
            }
        }
        Ok(())
    }
}

/// One periodic snapshot of machine activity over a sampling interval.
///
/// Rate-like fields (`ipc`, miss ratios) and count fields are all computed
/// over the *interval* since the previous sample, not cumulatively, so a
/// plot of samples shows phase behavior directly (Fig. 21 style).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Simulated cycle the sample was taken at.
    pub cycle: u64,
    /// Instructions (core + engine) per cycle over the interval.
    pub ipc: f64,
    /// Core instructions retired in the interval.
    pub core_instrs: u64,
    /// Engine instructions retired in the interval.
    pub engine_instrs: u64,
    /// L1 miss ratio over the interval.
    pub l1_miss_ratio: f64,
    /// L2 miss ratio over the interval.
    pub l2_miss_ratio: f64,
    /// LLC miss ratio over the interval.
    pub llc_miss_ratio: f64,
    /// NoC flit-hops in the interval.
    pub noc_flit_hops: u64,
    /// DRAM line accesses in the interval.
    pub dram_accesses: u64,
    /// Engine task contexts in use at the sample instant (all engines).
    pub engine_ctxs: u32,
    /// Entries buffered in hardware streams at the sample instant.
    pub stream_depth: u64,
}

/// Counter snapshot used to compute per-interval deltas.
#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    cycle: u64,
    core_instrs: u64,
    engine_instrs: u64,
    l1: LevelStats,
    l2: LevelStats,
    llc: LevelStats,
    noc_flit_hops: u64,
    dram_accesses: u64,
}

/// Periodic time-series sampler: every `interval` cycles the machine
/// snapshots interval deltas of the headline counters into a [`Sample`].
/// Disabled when `interval == 0` (the default).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    interval: u64,
    next: u64,
    samples: Vec<Sample>,
    base: Baseline,
}

impl TimeSeries {
    /// Creates a sampler firing every `interval` cycles (0 disables it).
    pub fn new(interval: u64) -> Self {
        TimeSeries {
            interval,
            next: interval,
            samples: Vec::new(),
            base: Baseline::default(),
        }
    }

    /// True when sampling is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.interval != 0
    }

    /// True when the simulated clock has reached the next sample point.
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        self.interval != 0 && now >= self.next
    }

    /// The configured sampling interval in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

impl Stats {
    /// Takes one time-series sample at cycle `now`. `engine_ctxs` and
    /// `stream_depth` are instantaneous occupancy readings supplied by the
    /// caller ([`crate::hw::Hw::maybe_sample`]).
    pub(crate) fn take_sample(&mut self, now: u64, engine_ctxs: u32, stream_depth: u64) {
        let b = self.timeline.base;
        let dt = now.saturating_sub(b.cycle);
        let dc = self.core_instrs - b.core_instrs;
        let de = self.engine_instrs - b.engine_instrs;
        let delta = |cur: LevelStats, old: LevelStats| LevelStats {
            hits: cur.hits - old.hits,
            misses: cur.misses - old.misses,
            writebacks: cur.writebacks - old.writebacks,
        };
        let l1 = delta(self.l1, b.l1);
        let l2 = delta(self.l2, b.l2);
        let llc = delta(self.llc, b.llc);
        self.timeline.samples.push(Sample {
            cycle: now,
            ipc: if dt == 0 {
                0.0
            } else {
                (dc + de) as f64 / dt as f64
            },
            core_instrs: dc,
            engine_instrs: de,
            l1_miss_ratio: l1.miss_ratio(),
            l2_miss_ratio: l2.miss_ratio(),
            llc_miss_ratio: llc.miss_ratio(),
            noc_flit_hops: self.noc_flit_hops - b.noc_flit_hops,
            dram_accesses: self.dram_accesses - b.dram_accesses,
            engine_ctxs,
            stream_depth,
        });
        self.timeline.base = Baseline {
            cycle: now,
            core_instrs: self.core_instrs,
            engine_instrs: self.engine_instrs,
            l1: self.l1,
            l2: self.l2,
            llc: self.llc,
            noc_flit_hops: self.noc_flit_hops,
            dram_accesses: self.dram_accesses,
        };
        // Schedule the next sample strictly after `now`, skipping any
        // intervals the event-driven clock jumped over.
        let interval = self.timeline.interval;
        while self.timeline.next <= now {
            self.timeline.next += interval;
        }
    }
}

fn w_level(w: &mut Writer, l: &LevelStats) {
    w.u64(l.hits);
    w.u64(l.misses);
    w.u64(l.writebacks);
}

fn r_level(r: &mut Reader) -> Result<LevelStats, CodecError> {
    Ok(LevelStats {
        hits: r.u64()?,
        misses: r.u64()?,
        writebacks: r.u64()?,
    })
}

impl TimeSeries {
    /// Serializes sampler state (see [`crate::snapshot`]).
    pub(crate) fn snap_write(&self, w: &mut Writer) {
        w.u64(self.interval);
        w.u64(self.next);
        w.u64(self.base.cycle);
        w.u64(self.base.core_instrs);
        w.u64(self.base.engine_instrs);
        w_level(w, &self.base.l1);
        w_level(w, &self.base.l2);
        w_level(w, &self.base.llc);
        w.u64(self.base.noc_flit_hops);
        w.u64(self.base.dram_accesses);
        w.u32(self.samples.len() as u32);
        for s in &self.samples {
            w.u64(s.cycle);
            w.f64(s.ipc);
            w.u64(s.core_instrs);
            w.u64(s.engine_instrs);
            w.f64(s.l1_miss_ratio);
            w.f64(s.l2_miss_ratio);
            w.f64(s.llc_miss_ratio);
            w.u64(s.noc_flit_hops);
            w.u64(s.dram_accesses);
            w.u32(s.engine_ctxs);
            w.u64(s.stream_depth);
        }
    }

    /// Restores a sampler written by [`TimeSeries::snap_write`].
    pub(crate) fn snap_read(r: &mut Reader) -> Result<Self, CodecError> {
        let interval = r.u64()?;
        let next = r.u64()?;
        let base = Baseline {
            cycle: r.u64()?,
            core_instrs: r.u64()?,
            engine_instrs: r.u64()?,
            l1: r_level(r)?,
            l2: r_level(r)?,
            llc: r_level(r)?,
            noc_flit_hops: r.u64()?,
            dram_accesses: r.u64()?,
        };
        let n = r.count(40)?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(Sample {
                cycle: r.u64()?,
                ipc: r.f64()?,
                core_instrs: r.u64()?,
                engine_instrs: r.u64()?,
                l1_miss_ratio: r.f64()?,
                l2_miss_ratio: r.f64()?,
                llc_miss_ratio: r.f64()?,
                noc_flit_hops: r.u64()?,
                dram_accesses: r.u64()?,
                engine_ctxs: r.u32()?,
                stream_depth: r.u64()?,
            });
        }
        Ok(TimeSeries {
            interval,
            next,
            samples,
            base,
        })
    }
}

impl Stats {
    /// Serializes the statistics (everything the machine snapshot
    /// covers) into a standalone byte vector, for embedding in run
    /// journals and other external records.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.snap_write(&mut w);
        w.into_bytes()
    }

    /// Rebuilds statistics from [`Stats::to_snapshot_bytes`] output.
    ///
    /// # Errors
    /// Malformed bytes are rejected with a typed
    /// [`SnapshotError`](crate::snapshot::SnapshotError).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        let mut r = Reader::new(bytes);
        let mut s = Stats::new();
        s.snap_read(&mut r)?;
        if !r.is_exhausted() {
            return Err(crate::snapshot::SnapshotError::Corrupted(
                "trailing bytes after stats",
            ));
        }
        Ok(s)
    }

    /// A deterministic digest of every serialized statistic — counters,
    /// histograms, traces, spans, and timeline (everything except the
    /// wall-clock `host_phases`). Two runs with equal digests observed
    /// identical simulated behavior; checkpoint verification compares the
    /// digest of a restored replica against the primary run.
    pub fn digest(&self) -> u64 {
        crate::snapshot::fnv1a(&self.to_snapshot_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_attribution() {
        let mut s = Stats::new();
        s.count_dram();
        s.set_phase(1);
        s.count_dram();
        s.count_dram();
        assert_eq!(s.dram_accesses, 3);
        assert_eq!(s.dram_by_phase[0], 1);
        assert_eq!(s.dram_by_phase[1], 2);
        assert_eq!(s.phase(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phase_bounds_checked() {
        Stats::new().set_phase(MAX_PHASES);
    }

    #[test]
    fn ratios() {
        let mut s = Stats::new();
        assert_eq!(s.mispredict_ratio(), 0.0);
        s.branches = 10;
        s.mispredicts = 3;
        assert!((s.mispredict_ratio() - 0.3).abs() < 1e-12);
        let lv = LevelStats {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert_eq!(lv.accesses(), 4);
        assert!((lv.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_nonempty() {
        let s = Stats::new();
        let text = s.to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("DRAM"));
    }

    #[test]
    fn display_includes_engine_l1_and_writebacks() {
        let mut s = Stats::new();
        s.engine_l1.hits = 7;
        s.engine_l1.misses = 3;
        s.l2.writebacks = 11;
        let text = s.to_string();
        assert!(
            text.contains("eL1 hits/misses:   7/3 (30.0% miss)"),
            "{text}"
        );
        assert!(
            text.contains("writebacks:        L1 0 / L2 11 / LLC 0 / eL1 0"),
            "{text}"
        );
    }

    #[test]
    fn display_shows_histograms_when_populated() {
        let mut s = Stats::new();
        assert!(!s.to_string().contains("invoke RTT"));
        s.invoke_rtt.record(40);
        s.stream_stall.record(9);
        let text = s.to_string();
        assert!(text.contains("invoke RTT:        n=1"), "{text}");
        assert!(text.contains("stream stall:      n=1"), "{text}");
    }

    #[test]
    fn display_fault_lines_gated_on_injection() {
        let mut s = Stats::new();
        // Degradation counters alone must not change the output: only an
        // actual injected plan unlocks the fault lines.
        s.fault_degraded_cycles = 7;
        assert!(!s.to_string().contains("faults:"), "{s}");
        s.faults_injected = 2;
        s.fault_nack_retries = 3;
        s.fault_fallbacks = 1;
        let text = s.to_string();
        assert!(
            text.contains("faults:            2 injected; 3 NACK-retries, 1 core-fallbacks, 7 degraded cycles"),
            "{text}"
        );
        assert!(!text.contains("fault backoff"), "{text}");
        s.fault_backoff.record(16);
        assert!(s.to_string().contains("fault backoff:     n=1"), "{s}");
    }

    #[test]
    fn snapshot_rejects_more_tenants_than_the_cap() {
        let mut s = Stats::new();
        s.tenant_invokes = vec![1; MAX_TENANTS as usize];
        let restored = Stats::from_snapshot_bytes(&s.to_snapshot_bytes()).unwrap();
        assert_eq!(restored.tenant_invokes, s.tenant_invokes);
        s.tenant_invokes.push(1);
        assert!(Stats::from_snapshot_bytes(&s.to_snapshot_bytes()).is_err());
    }

    #[test]
    fn sampler_deltas_and_schedule() {
        let mut s = Stats::new();
        s.timeline = TimeSeries::new(100);
        assert!(s.timeline.enabled());
        assert!(!s.timeline.due(99));
        assert!(s.timeline.due(100));

        s.core_instrs = 400;
        s.l1.hits = 90;
        s.l1.misses = 10;
        s.take_sample(100, 3, 5);
        // The clock can jump past several intervals; the next sample point
        // must land strictly after `now`.
        assert!(!s.timeline.due(100));
        assert!(s.timeline.due(200));

        s.core_instrs = 600;
        s.engine_instrs = 100;
        s.l1.hits = 90; // no L1 activity this interval
        s.take_sample(350, 0, 0);
        assert!(!s.timeline.due(350));
        assert!(s.timeline.due(400));

        let samples = s.timeline.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].cycle, 100);
        assert!((samples[0].ipc - 4.0).abs() < 1e-12);
        assert!((samples[0].l1_miss_ratio - 0.1).abs() < 1e-12);
        assert_eq!(samples[0].engine_ctxs, 3);
        assert_eq!(samples[0].stream_depth, 5);
        // Second sample covers only the interval since the first.
        assert_eq!(samples[1].core_instrs, 200);
        assert_eq!(samples[1].engine_instrs, 100);
        assert!((samples[1].ipc - 300.0 / 250.0).abs() < 1e-12);
        assert_eq!(samples[1].l1_miss_ratio, 0.0);
    }

    #[test]
    fn disabled_sampler_is_never_due() {
        let s = Stats::new();
        assert!(!s.timeline.enabled());
        assert!(!s.timeline.due(u64::MAX));
    }
}
