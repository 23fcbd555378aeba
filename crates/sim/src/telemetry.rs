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
//! * [`Telemetry::to_prometheus`] — Prometheus text exposition format
//!   (`levi_*` families), ready for a scrape endpoint.
//! * The Chrome/Perfetto trace export stays on
//!   [`Tracer::to_chrome_json`](crate::trace::Tracer::to_chrome_json),
//!   which flow-links each invoke's span-linked events; the registry does
//!   not duplicate the event buffer into the metrics dump.
//!
//! Everything here reads a finished [`Stats`] — building a `Telemetry`
//! has no effect on simulation and costs nothing unless an exporter is
//! called. Wall-clock host phases are included only when populated (the
//! `self-profile` feature), since their values are nondeterministic.

use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::perf::Phase;
use crate::stats::{Stats, DRAM_PHASE_NAMES, TOP_SLOW_INVOKES};

/// Schema version stamped into every JSON-lines dump header.
pub const TELEMETRY_VERSION: u32 = 1;

/// A read-only registry over one run's telemetry surfaces.
pub struct Telemetry<'a> {
    stats: &'a Stats,
}

/// Appends `s` to `out` escaped for embedding in a JSON string or a
/// Prometheus label value: `\` and `"` always, the common control
/// characters as their short escapes, and any other control character as
/// `\u00XX`. The bench harness's JSON writer escapes through it too.
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
        for (name, h) in self.histograms() {
            if h.is_empty() {
                continue;
            }
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

    /// Renders the registry in the Prometheus text exposition format
    /// (`levi_*` metric families). `scope` becomes a `scope="..."` label
    /// on every series when non-empty.
    pub fn to_prometheus(&self, scope: &str) -> String {
        let s = self.stats;
        let mut scope_esc = String::new();
        write_escaped(&mut scope_esc, scope);
        let label = if scope.is_empty() {
            String::new()
        } else {
            format!("{{scope=\"{scope_esc}\"}}")
        };
        let with = |extra: &str| {
            if scope.is_empty() {
                format!("{{{extra}}}")
            } else {
                format!("{{scope=\"{scope_esc}\",{extra}}}")
            }
        };
        let mut out = String::with_capacity(4096);
        for (name, value) in self.counters() {
            let _ = writeln!(out, "# TYPE levi_{name} counter");
            let _ = writeln!(out, "levi_{name}{label} {value}");
        }
        for (name, h) in self.histograms() {
            if h.is_empty() {
                continue;
            }
            let _ = writeln!(out, "# TYPE levi_{name} summary");
            for (q, v) in [
                ("0.5", h.percentile(0.50)),
                ("0.9", h.percentile(0.90)),
                ("0.99", h.percentile(0.99)),
            ] {
                let _ = writeln!(out, "levi_{name}{} {v}", with(&format!("quantile=\"{q}\"")));
            }
            let _ = writeln!(out, "levi_{name}_sum{label} {}", h.sum());
            let _ = writeln!(out, "levi_{name}_count{label} {}", h.count());
        }
        if !s.host_phases.is_empty() {
            let _ = writeln!(out, "# TYPE levi_host_ns gauge");
            for p in Phase::ALL {
                let _ = writeln!(
                    out,
                    "levi_host_ns{} {}",
                    with(&format!("phase=\"{}\"", p.name())),
                    s.host_phases.ns(p)
                );
            }
        }
        if !s.spans.is_empty() {
            let cp = s.spans.critical_path(TOP_SLOW_INVOKES);
            let _ = writeln!(out, "# TYPE levi_span_stage_cycles counter");
            for (stage, cycles) in cp.totals.named() {
                let _ = writeln!(
                    out,
                    "levi_span_stage_cycles{} {cycles}",
                    with(&format!("stage=\"{stage}\""))
                );
            }
            let _ = writeln!(out, "# TYPE levi_span_rtt_cycles_total counter");
            let _ = writeln!(out, "levi_span_rtt_cycles_total{label} {}", cp.rtt_total);
        }
        out
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
    fn prometheus_families_and_labels() {
        let s = populated();
        let text = Telemetry::new(&s).to_prometheus("fig05/Leviathan");
        assert!(text.contains("# TYPE levi_cycles counter"));
        assert!(text.contains("levi_cycles{scope=\"fig05/Leviathan\"} 1000"));
        assert!(text.contains("levi_invoke_rtt{scope=\"fig05/Leviathan\",quantile=\"0.5\"} 32"));
        assert!(text.contains("levi_invoke_rtt_count{scope=\"fig05/Leviathan\"} 2"));
        assert!(
            text.contains("levi_span_stage_cycles{scope=\"fig05/Leviathan\",stage=\"exec\"} 32")
        );

        let unscoped = Telemetry::new(&s).to_prometheus("");
        assert!(unscoped.contains("levi_cycles 1000"));
        assert!(unscoped.contains("levi_invoke_rtt{quantile=\"0.5\"} 32"));
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
