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
//! registry entry ([`crate::telemetry::Telemetry`]), which both the JSONL
//! dump and `Stats`' `Display` report render. To add a counter, add one
//! line with a doc comment to the section whose order it should take.
//!
//! A new counter changes the snapshot bytes, and with them every pinned
//! digest: the `(cycles, Stats::digest)` pins in `tests/faults.rs` and the
//! benchmark's `model.stats_digest`. Re-pin them in the same change.

use levi_isa::codec::{Reader, Restore, Writer};

use crate::hist::Histogram;
use crate::span::SpanTable;
use crate::trace::Tracer;
use crate::xlat::MAX_TENANTS;

/// Slowest invokes listed by the critical-path report (JSONL and `Display`).
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
/// `latencies` then `xlat_latencies`. The snapshot order is the field list
/// of the `codec_struct!` below, which names each `other` field by hand.
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
            /// config validation and the snapshot codec rule out.
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
        }

        // Every deterministic counter, histogram, and recorder (see
        // [`crate::snapshot`]). `host_phases` is wall-clock data and is
        // deliberately kept out: it is nondeterministic, never part of
        // byte-identical outputs, and is left as it is on restore.
        levi_isa::codec_struct! {
            in_place Stats {
                $( $run, )*
                $( $ev, )*
                $( $lvl, )*
                dram_by_phase,
                current_phase,
                $( $lat, )*
                trace,
                spans,
                timeline,
                $( $xl, )*
                $( $xh, )*
                $( $tn, )*
            }
            kept { host_phases }
            ensure *current_phase < MAX_PHASES => "phase index";
            $( ensure $tn.len() <= MAX_TENANTS as usize => "tenant count"; )*
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
            /// by default; see [`crate::config::MachineConfig::trace`]).
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

levi_isa::codec_struct!(LevelStats {
    hits,
    misses,
    writebacks,
});
levi_isa::codec_struct!(Baseline {
    cycle,
    core_instrs,
    engine_instrs,
    l1,
    l2,
    llc,
    noc_flit_hops,
    dram_accesses,
});
levi_isa::codec_struct!(Sample {
    cycle,
    ipc,
    core_instrs,
    engine_instrs,
    l1_miss_ratio,
    l2_miss_ratio,
    llc_miss_ratio,
    noc_flit_hops,
    dram_accesses,
    engine_ctxs,
    stream_depth,
});
levi_isa::codec_struct!(TimeSeries {
    interval,
    next,
    base,
    samples,
});

impl Stats {
    /// Serializes the statistics (everything the machine snapshot
    /// covers) into a standalone byte vector, for embedding in run
    /// journals and other external records.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.save(&mut w);
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
        s.restore(&mut r)?;
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
        let lv = LevelStats {
            hits: 3,
            misses: 1,
            writebacks: 0,
        };
        assert_eq!(lv.accesses(), 4);
        assert!((lv.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_ratio(), 0.0);
    }

    /// The value on `name`'s row of the `Display` report, if it has one.
    fn row(s: &Stats, name: &str) -> Option<String> {
        s.to_string().lines().find_map(|line| {
            let (n, v) = line.split_once(' ')?;
            (n == name).then(|| v.trim_start().to_string())
        })
    }

    #[test]
    fn display_nonempty() {
        let s = Stats::new();
        assert_eq!(row(&s, "cycles").as_deref(), Some("0"));
        assert_eq!(row(&s, "dram_accesses").as_deref(), Some("0"));
        assert_eq!(row(&s, "dram_phase3").as_deref(), Some("0"));
        // No spans, histograms or tenants: every line is a counter row.
        let text = s.to_string();
        for line in text.lines() {
            let (_, v) = line.split_once(' ').expect("name value");
            assert!(v.trim_start().parse::<u64>().is_ok(), "{line}");
        }
        assert!(!text.contains("tenant0"), "{text}");
    }

    #[test]
    fn display_includes_engine_l1_and_writebacks() {
        let mut s = Stats::new();
        s.engine_l1.hits = 7;
        s.engine_l1.misses = 3;
        s.l2.writebacks = 11;
        for (name, value) in [
            ("engine_l1_hits", "7"),
            ("engine_l1_misses", "3"),
            ("engine_l1_writebacks", "0"),
            ("l1_writebacks", "0"),
            ("l2_writebacks", "11"),
            ("llc_writebacks", "0"),
        ] {
            assert_eq!(row(&s, name).as_deref(), Some(value), "{name}: {s}");
        }
    }

    #[test]
    fn display_shows_histograms_when_populated() {
        let mut s = Stats::new();
        assert_eq!(row(&s, "invoke_rtt"), None);
        s.invoke_rtt.record(40);
        s.stream_stall.record(9);
        assert_eq!(row(&s, "invoke_rtt"), Some(s.invoke_rtt.to_string()));
        assert!(row(&s, "stream_stall").unwrap().starts_with("n=1 "), "{s}");
        assert_eq!(row(&s, "load_to_use"), None, "{s}");
    }

    #[test]
    fn display_fault_lines_gated_on_injection() {
        let mut s = Stats::new();
        // Fault counters are rows like any other, so an unfaulted run
        // prints them as zeros; only the backoff histogram waits for data.
        assert_eq!(row(&s, "faults_injected").as_deref(), Some("0"));
        s.fault_degraded_cycles = 7;
        s.faults_injected = 2;
        s.fault_nack_retries = 3;
        s.fault_fallbacks = 1;
        for (name, value) in [
            ("faults_injected", "2"),
            ("fault_nack_retries", "3"),
            ("fault_fallbacks", "1"),
            ("fault_degraded_cycles", "7"),
        ] {
            assert_eq!(row(&s, name).as_deref(), Some(value), "{name}: {s}");
        }
        assert_eq!(row(&s, "fault_backoff"), None, "{s}");
        s.fault_backoff.record(16);
        assert!(row(&s, "fault_backoff").unwrap().starts_with("n=1 "), "{s}");
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
