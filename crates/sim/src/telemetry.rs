//! The unified telemetry registry: one view over every metric surface.
//!
//! `Stats` accumulates counters, log2 histograms, time-series samples,
//! host-phase wall-time, fault counters, and invoke-lifecycle span
//! attributions — each grown in a different PR with its own ad-hoc
//! accessor. [`Telemetry`] presents them behind one registry with
//! self-describing exporters:
//!
//! * [`Telemetry::to_jsonl`] — a JSON-lines metrics dump (one metric per
//!   line, first line a header naming the schema version and scope).
//!   `levi-bench run --telemetry <path>` appends one block per run and
//!   `levi-bench check-report` validates the result.
//! * `Stats`' `Display` — the same counters and histograms as
//!   `name value` rows, in the same order, then the critical-path summary.
//! * The Chrome/Perfetto trace export stays on
//!   [`Tracer::to_chrome_json`](crate::trace::Tracer::to_chrome_json),
//!   which flow-links each invoke's span-linked events; the registry does
//!   not duplicate the event buffer into the metrics dump.
//!
//! Everything here reads a finished [`Stats`] — building a `Telemetry`
//! has no effect on simulation and costs nothing unless an exporter is
//! called. Wall-clock host phases are nondeterministic: the JSONL carries
//! them only when populated (the `self-profile` feature), and `Display`
//! never prints them.

use std::fmt::{self, Write as _};

use crate::hist::Histogram;
use crate::perf::Phase;
use crate::stats::{Stats, DRAM_PHASE_NAMES, TOP_SLOW_INVOKES};

/// Schema version stamped into every JSON-lines dump header.
pub const TELEMETRY_VERSION: u32 = 1;

/// A read-only registry over one run's telemetry surfaces.
pub struct Telemetry<'a> {
    stats: &'a Stats,
}

/// Appends `s` to `out` escaped for embedding in a JSON string: `\` and
/// `"` always, the common control characters as their short escapes, and
/// any other control character as `\u00XX`. The bench harness's JSON
/// writer escapes through it too.
pub fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl<'a> Telemetry<'a> {
    /// Wraps a finished run's statistics.
    pub fn new(stats: &'a Stats) -> Self {
        Telemetry { stats }
    }

    /// Every scalar counter in the registry, as `(name, value)` in a
    /// stable order. This is the single source both exporters render.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let s = self.stats;
        let mut v = s.table_counters();
        // Derived from the recorders, not from counter fields.
        v.extend([
            ("trace_events", s.trace.len() as u64),
            ("trace_dropped", s.trace.dropped()),
            ("spans_recorded", s.spans.len() as u64),
            ("spans_dropped", s.spans.dropped()),
            ("timeline_samples", s.timeline.samples().len() as u64),
        ]);
        v.extend(DRAM_PHASE_NAMES.into_iter().zip(s.dram_by_phase));
        // Per-tenant series appear only when tenancy is configured, so
        // single-tenant dumps stay byte-identical to pre-tenancy builds.
        v.extend(s.tenant_counters());
        v
    }

    /// Every latency histogram in the registry, as `(name, histogram)`.
    pub fn histograms(&self) -> [(&'static str, &'a Histogram); Stats::HISTOGRAMS] {
        self.stats.histograms()
    }

    /// Renders the registry as one self-describing JSON-lines block:
    /// a `{"telemetry":{...}}` header, then one line per counter,
    /// populated histogram, time-series sample, host phase (when the
    /// `self-profile` feature filled them), span stage total, and
    /// top-k slowest invoke.
    pub fn to_jsonl(&self, scope: &str) -> String {
        let s = self.stats;
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"telemetry\":{{\"version\":{TELEMETRY_VERSION},\"scope\":\""
        );
        write_escaped(&mut out, scope);
        out.push_str("\"}}\n");
        for (name, value) in self.counters() {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{name}\",\"type\":\"counter\",\"value\":{value}}}"
            );
        }
        for (name, h) in self.populated_histograms() {
            let _ = writeln!(
                out,
                "{{\"metric\":\"{name}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"mean\":{:.6},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
            );
        }
        // Host wall-time is nondeterministic; it only appears when the
        // self-profile feature populated it, tagged as gauges.
        if !s.host_phases.is_empty() {
            for p in Phase::ALL {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"host_ns_{}\",\"type\":\"gauge\",\"value\":{}}}",
                    p.name(),
                    s.host_phases.ns(p)
                );
            }
        }
        for sample in s.timeline.samples() {
            let _ = writeln!(
                out,
                "{{\"sample\":{{\"cycle\":{},\"ipc\":{:.6},\"core_instrs\":{},\
                 \"engine_instrs\":{},\"l1_miss_ratio\":{:.6},\"l2_miss_ratio\":{:.6},\
                 \"llc_miss_ratio\":{:.6},\"noc_flit_hops\":{},\"dram_accesses\":{},\
                 \"engine_ctxs\":{},\"stream_depth\":{}}}}}",
                sample.cycle,
                sample.ipc,
                sample.core_instrs,
                sample.engine_instrs,
                sample.l1_miss_ratio,
                sample.l2_miss_ratio,
                sample.llc_miss_ratio,
                sample.noc_flit_hops,
                sample.dram_accesses,
                sample.engine_ctxs,
                sample.stream_depth,
            );
        }
        if !s.spans.is_empty() {
            let cp = s.spans.critical_path(TOP_SLOW_INVOKES);
            let _ = writeln!(
                out,
                "{{\"span_summary\":{{\"recorded\":{},\"complete\":{},\"incomplete\":{},\
                 \"dropped\":{},\"rtt_total\":{}}}}}",
                s.spans.len(),
                cp.completed,
                cp.incomplete,
                s.spans.dropped(),
                cp.rtt_total,
            );
            for (stage, cycles) in cp.totals.named() {
                let _ = writeln!(
                    out,
                    "{{\"span_stage\":{{\"stage\":\"{stage}\",\"cycles\":{cycles}}}}}"
                );
            }
            for (rank, slow) in cp.slowest.iter().enumerate() {
                let _ = write!(
                    out,
                    "{{\"slow_invoke\":{{\"rank\":{},\"span\":{},\"src_tile\":{},\"rtt\":{}",
                    rank + 1,
                    slow.id.0,
                    slow.src_tile,
                    slow.rtt,
                );
                for (stage, cycles) in slow.stages.named() {
                    let _ = write!(out, ",\"{stage}\":{cycles}");
                }
                out.push_str("}}\n");
            }
        }
        out
    }

    /// The populated latency histograms: empty ones are rendered by
    /// neither the JSONL nor the `Display` report.
    fn populated_histograms(&self) -> impl Iterator<Item = (&'static str, &'a Histogram)> {
        self.histograms().into_iter().filter(|(_, h)| !h.is_empty())
    }
}

/// The human-readable report, rendered from the registry: one
/// `name value` line per counter and one `name <histogram>` line per
/// populated histogram, in the JSONL's order, then the critical-path
/// summary when spans were recorded. Host phases are never printed:
/// wall-clock values must stay out of deterministic output.
impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = Telemetry::new(self);
        for (name, value) in t.counters() {
            writeln!(f, "{name:<21} {value}")?;
        }
        for (name, h) in t.populated_histograms() {
            writeln!(f, "{name:<21} {h}")?;
        }
        if !self.spans.is_empty() || self.spans.dropped() > 0 {
            let cp = self.spans.critical_path(TOP_SLOW_INVOKES);
            writeln!(
                f,
                "invoke spans:      {} recorded ({} complete, {} incomplete, {} dropped)",
                self.spans.len(),
                cp.completed,
                cp.incomplete,
                self.spans.dropped()
            )?;
            if cp.completed > 0 {
                writeln!(
                    f,
                    "span stages:       {} (summed cycles; rtt {}, dominated by {})",
                    cp.totals,
                    cp.rtt_total,
                    cp.dominant_stage().0
                )?;
                for s in &cp.slowest {
                    write!(f, "  slow {}: rtt {} = {}", s.id, s.rtt, s.stages)?;
                    match s.target {
                        Some(t) => writeln!(f, " (tile {} -> {})", s.src_tile, t)?,
                        None => writeln!(f, " (tile {})", s.src_tile)?,
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Stats {
        let mut s = Stats::new();
        s.cycles = 1000;
        s.core_instrs = 4000;
        s.invokes = 3;
        s.invoke_rtt.record(40);
        s.invoke_rtt.record(64);
        s.spans = crate::span::SpanTable::new(true, 8);
        let id = s.spans.begin(0, 0).unwrap();
        let eng = crate::engine::EngineId {
            tile: 1,
            level: crate::engine::EngineLevel::Llc,
        };
        s.spans.note_issue(id, 2, eng, false);
        s.spans.note_arrival(id, 8);
        s.spans.note_dispatch(id, 8);
        s.spans.note_ack(id, 14);
        s.spans.note_retire(id, 40);
        s
    }

    #[test]
    fn jsonl_has_header_counters_histograms_and_spans() {
        let s = populated();
        let dump = Telemetry::new(&s).to_jsonl("unit/test");
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"telemetry\":{\"version\":1,\"scope\":\"unit/test\"}"));
        assert!(dump.contains("{\"metric\":\"cycles\",\"type\":\"counter\",\"value\":1000}"));
        assert!(dump.contains("\"metric\":\"invoke_rtt\",\"type\":\"histogram\",\"count\":2"));
        assert!(dump.contains("\"span_stage\":{\"stage\":\"exec\",\"cycles\":32}"));
        assert!(dump.contains("\"slow_invoke\":{\"rank\":1,\"span\":0,"));
        assert!(dump.contains("\"span_summary\":{\"recorded\":1,\"complete\":1,"));
        // Empty histograms are skipped.
        assert!(!dump.contains("\"metric\":\"dram_queue\""));
        // No host-phase lines without the self-profile feature's data.
        if s.host_phases.is_empty() {
            assert!(!dump.contains("host_ns_"));
        }
        // Every line is a single JSON object.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn jsonl_scope_is_escaped() {
        let s = Stats::new();
        let dump = Telemetry::new(&s).to_jsonl("we\"ird\\scope");
        assert!(dump.starts_with("{\"telemetry\":"));
        assert!(dump.contains("we\\\"ird\\\\scope"));
    }

    #[test]
    fn display_rows_follow_the_jsonl_registry() {
        let mut s = populated();
        s.stream_stall.record(9);
        s.tenant_llc_misses = vec![5, 6];
        s.tenant_invokes = vec![1, 2];
        s.tenant_finish = vec![900, 1000];
        let text = s.to_string();
        let dump = Telemetry::new(&s).to_jsonl("unit/test");

        // JSONL `(metric, value)` pairs of one type, in dump order.
        let jsonl = |ty: &str| -> Vec<(String, String)> {
            let tag = format!("\"type\":\"{ty}\"");
            dump.lines()
                .filter(|l| l.contains(&tag))
                .map(|l| {
                    let name = l.split('"').nth(3).expect("metric name");
                    let last = l.rsplit(':').next().expect("last field");
                    (name.to_string(), last.trim_end_matches('}').to_string())
                })
                .collect()
        };
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        let mut other = Vec::new();
        for line in text.lines() {
            let (name, value) = line.split_once(' ').expect("name value");
            let value = value.trim_start();
            if value.parse::<u64>().is_ok() {
                counters.push((name.to_string(), value.to_string()));
            } else if value.starts_with("n=") {
                histograms.push(name.to_string());
            } else {
                other.push(line);
            }
        }
        assert_eq!(counters, jsonl("counter"));
        let jsonl_histograms: Vec<String> = jsonl("histogram")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(histograms, jsonl_histograms);
        assert_eq!(histograms, ["invoke_rtt", "stream_stall"]);
        assert!(counters.iter().any(|(n, _)| n == "tenant1_finish_cycles"));
        // What is left is the critical-path block, last in the report.
        assert!(
            other[0].starts_with("invoke spans:      1 recorded"),
            "{text}"
        );
        assert!(other[1].starts_with("span stages:"), "{text}");
        assert!(other[2].starts_with("  slow #0: rtt 40 ="), "{text}");
        assert_eq!(other.len(), 3, "{text}");
        let rows = counters.len() + histograms.len();
        assert_eq!(text.lines().skip(rows).collect::<Vec<_>>(), other);
    }

    #[test]
    fn counters_cover_span_and_trace_loss() {
        let s = populated();
        let counters = Telemetry::new(&s).counters();
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(get("spans_recorded"), 1);
        assert_eq!(get("spans_dropped"), 0);
        assert_eq!(get("trace_dropped"), 0);
        assert_eq!(get("invokes"), 3);
    }
}
