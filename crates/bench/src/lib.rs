//! The figure runner behind `levi-bench`. The crate root holds the shared
//! reporting utilities; [`runner`] is the one run path every simulated
//! figure takes.
//!
//! Every figure in [`figures::ALL`] regenerates one table or figure of the
//! paper's evaluation and prints the measured values next to the paper's
//! reported numbers. We reproduce *shape* — who wins, by roughly what
//! factor, where crossovers fall — not absolute cycle counts (the
//! substrate is a from-scratch simulator, not the authors' testbed). See
//! EXPERIMENTS.md for the recorded comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::sync::{Arc, Mutex};

use levi_sim::Histogram;
use levi_workloads::metrics::RunMetrics;

use crate::runner::RunCtx;

pub mod figures;
pub mod journal;
pub mod json;
pub mod runner;

/// Prints a figure/table header.
pub fn header(title: &str, description: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("{description}");
    println!("==================================================================");
}

/// One measured variant row against the baseline, with the paper's numbers.
pub struct Row<'a> {
    /// Variant label.
    pub label: &'a str,
    /// Measured metrics.
    pub metrics: &'a RunMetrics,
    /// The paper's speedup for this bar (None if not reported).
    pub paper_speedup: Option<f64>,
    /// The paper's relative energy (1.0 = baseline) if reported.
    pub paper_energy: Option<f64>,
}

/// Prints a speedup/energy comparison table. `rows\[0\]` is the baseline.
pub fn speedup_table(rows: &[Row<'_>]) {
    let base = rows[0].metrics;
    println!(
        "{:<22} {:>12} {:>9} {:>9} {:>10} {:>10}",
        "variant", "cycles", "speedup", "(paper)", "energy", "(paper)"
    );
    for r in rows {
        let speedup = base.cycles as f64 / r.metrics.cycles as f64;
        let energy = r.metrics.energy.relative_to(&base.energy);
        println!(
            "{:<22} {:>12} {:>8.2}x {:>9} {:>9.0}% {:>10}",
            r.label,
            r.metrics.cycles,
            speedup,
            r.paper_speedup
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
            energy * 100.0,
            r.paper_energy
                .map_or_else(|| "-".into(), |e| format!("{:.0}%", e * 100.0)),
        );
    }
}

/// Prints the speedup/energy table and appends one machine-readable JSON
/// line for the figure to the ctx's `--json` report, if any, so results
/// across commits are diffable.
///
/// The JSON schema (one object per line, one line per figure run):
///
/// ```json
/// {"figure": "fig20_hats",
///  "rows": [{"label": "Baseline", "cycles": 1234, "speedup": 1.0,
///            "rel_energy": 1.0, "energy_uj": 5.6,
///            "invoke_rtt": {"count": 10, "p50": 32, "p90": 64, "p99": 64},
///            "load_to_use": {...}, "dram_queue": {...},
///            "stream_stall": {...}, "trace_dropped": 0}]}
/// ```
pub fn report(ctx: &RunCtx, rows: &[Row<'_>]) {
    speedup_table(rows);
    if let Some(json) = &ctx.json {
        json.line(&figure_json(ctx.figure, rows));
    }
}

/// An output file that every run of an invocation appends to: the
/// `--json` report or the `--telemetry` dump. The CLI opens it before any
/// simulation starts, so a bad path fails fast; clones share one handle.
#[derive(Clone, Debug)]
pub struct Sink {
    path: String,
    file: Arc<Mutex<std::fs::File>>,
}

impl Sink {
    /// Opens `path` for appending, creating it if absent and emptying it
    /// first when `truncate` is set.
    ///
    /// # Errors
    /// Propagates the I/O error of opening the file.
    pub fn open(path: &str, truncate: bool) -> std::io::Result<Sink> {
        let file = if truncate {
            std::fs::File::create(path)?
        } else {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?
        };
        Ok(Sink {
            path: path.to_string(),
            file: Arc::new(Mutex::new(file)),
        })
    }

    /// Appends `text` verbatim (a telemetry block is newline-terminated).
    ///
    /// # Panics
    /// Panics if the write fails.
    pub fn write(&self, text: &str) {
        let written = self
            .file
            .lock()
            .expect("sink poisoned")
            .write_all(text.as_bytes());
        written.unwrap_or_else(|e| panic!("{}: {e}", self.path));
    }

    /// Appends one line (a JSON report object, say) and a newline.
    ///
    /// # Panics
    /// Panics if the write fails.
    pub fn line(&self, line: &str) {
        self.write(&format!("{line}\n"));
    }
}

/// Renders one figure's rows as a single JSON object (no trailing newline).
pub fn figure_json(figure: &str, rows: &[Row<'_>]) -> String {
    let base = rows[0].metrics;
    let mut w = json::JsonWriter::new();
    w.begin_obj();
    w.key("figure").str(figure);
    w.key("rows").begin_arr();
    for r in rows {
        let speedup = base.cycles as f64 / r.metrics.cycles as f64;
        let energy = r.metrics.energy.relative_to(&base.energy);
        w.begin_obj();
        w.key("label").str(r.label);
        w.key("cycles").u64(r.metrics.cycles);
        w.key("speedup").fixed(speedup, 6);
        w.key("rel_energy").fixed(energy, 6);
        w.key("energy_uj").fixed(r.metrics.energy.total_uj(), 3);
        for (name, h) in [
            ("invoke_rtt", &r.metrics.stats.invoke_rtt),
            ("load_to_use", &r.metrics.stats.load_to_use),
            ("dram_queue", &r.metrics.stats.dram_queue),
            ("stream_stall", &r.metrics.stats.stream_stall),
        ] {
            w.key(name);
            hist_json(&mut w, h);
        }
        w.key("trace_dropped").u64(r.metrics.stats.trace.dropped());
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn hist_json(w: &mut json::JsonWriter, h: &Histogram) {
    w.begin_obj();
    w.key("count").u64(h.count());
    w.key("p50").u64(h.p50());
    w.key("p90").u64(h.p90());
    w.key("p99").u64(h.p99());
    w.key("max").u64(h.max());
    w.end_obj();
}

/// Renders a generic column table as a single JSON object (no trailing
/// newline); see [`table_report`] for the schema.
fn table_json(figure: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut w = json::JsonWriter::new();
    w.begin_obj();
    w.key("figure").str(figure);
    w.key("table").begin_obj();
    w.key("headers").begin_arr();
    for h in headers {
        w.str(h);
    }
    w.end_arr();
    w.key("rows").begin_arr();
    for row in rows {
        w.begin_arr();
        for cell in row {
            w.str(cell);
        }
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Prints the table and appends one JSON line for the figure to the
/// ctx's `--json` report, if any — the table-shaped counterpart of
/// [`report`]. The line mirrors [`figure_json`] for figures whose natural
/// output is a [`table`] rather than a speedup comparison:
///
/// ```json
/// {"figure": "fig22_invoke_buffer",
///  "table": {"headers": ["entries", ...], "rows": [["1", ...], ...]}}
/// ```
pub fn table_report(ctx: &RunCtx, headers: &[&str], rows: &[Vec<String>]) {
    table(headers, rows);
    if let Some(json) = &ctx.json {
        json.line(&table_json(ctx.figure, headers, rows));
    }
}

/// Prints a generic column table.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sweep_jobs;
    use levi_workloads::{RunOutcome, RunStatus};
    use leviathan::{System, SystemConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A serial and a parallel context: each sweep test runs under both.
    fn serial_and_parallel() -> [RunCtx; 2] {
        [
            RunCtx {
                serial: true,
                ..RunCtx::default()
            },
            RunCtx::default(),
        ]
    }

    /// Metrics of an idle small system, for jobs that simulate nothing.
    fn idle_metrics() -> RunMetrics {
        let sys = System::try_new(SystemConfig::small()).expect("small config is valid");
        RunMetrics::capture("job", &sys)
    }

    /// Sweeps three jobs of which the middle one panics; returns how many
    /// jobs ran to completion and the sweep's panic message.
    fn sweep_with_a_poisoned_job(ctx: &RunCtx) -> (u32, String) {
        use std::sync::atomic::{AtomicU32, Ordering};
        let completed = AtomicU32::new(0);
        let metrics = idle_metrics();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sweep_jobs(
                ctx,
                [("ok-1", 1u64), ("boom", 2), ("ok-2", 3)],
                |&job, _| {
                    assert!(job != 2, "job {job} is poisoned");
                    completed.fetch_add(1, Ordering::SeqCst);
                    RunStatus::Done(Box::new(RunOutcome::new(metrics.clone(), job)))
                },
                |&job| job,
            )
        }));
        let message = match caught {
            Ok(_) => panic!("a panicked job must make the sweep panic"),
            Err(p) => *p.downcast::<String>().expect("summary is a String"),
        };
        (completed.load(Ordering::SeqCst), message)
    }

    #[test]
    fn try_run_contains_panics_and_completes_the_other_variants() {
        for ctx in serial_and_parallel() {
            let (completed, _) = sweep_with_a_poisoned_job(&ctx);
            assert_eq!(
                completed, 2,
                "the healthy jobs still ran to completion (serial: {})",
                ctx.serial
            );
        }
    }

    #[test]
    fn run_panics_with_a_summary_after_completing_all_variants() {
        for ctx in serial_and_parallel() {
            let (_, msg) = sweep_with_a_poisoned_job(&ctx);
            assert!(
                msg.contains("1 sweep variant(s) panicked")
                    && msg.contains("variant \"boom\" panicked")
                    && msg.contains("job 2 is poisoned"),
                "summary names the failed job and its payload (serial: {}): {msg}",
                ctx.serial
            );
        }
    }

    #[test]
    fn sweep_collects_in_declaration_order() {
        let metrics = idle_metrics();
        for ctx in serial_and_parallel() {
            // The slowest job is declared first; a completion-order
            // collector would return it last.
            let outcomes = sweep_jobs(
                &ctx,
                [("slow", 30u64), ("mid", 5), ("fast", 0)],
                |&ms, _| {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    RunStatus::Done(Box::new(RunOutcome::new(metrics.clone(), ms)))
                },
                |&ms| ms,
            );
            let got: Vec<(&str, u64)> = outcomes.iter().map(|(l, o)| (l, o.checksum)).collect();
            assert_eq!(got, [("slow", 30), ("mid", 5), ("fast", 0)]);
        }
    }

    #[test]
    fn sweep_parallel_matches_serial_on_simulated_runs() {
        use levi_workloads::hashtable::{HashtableWorkload, HtScale, HtVariant};
        use levi_workloads::Workload;
        let w = HashtableWorkload;
        let scale = HtScale::test(64);
        let jobs = [
            ("Baseline", HtVariant::Baseline),
            ("Leviathan", HtVariant::Leviathan),
            ("Ideal", HtVariant::Ideal),
            ("Baseline2", HtVariant::Baseline),
        ];
        let [serial, parallel] = serial_and_parallel().map(|ctx| {
            let outcomes = sweep_jobs(
                &ctx,
                jobs,
                |&v, env| w.run(v, &scale, &(), env),
                |&v| w.golden(v, &scale, &()),
            );
            outcomes
                .iter()
                .map(|(_, o)| (o.metrics.cycles, o.checksum))
                .collect::<Vec<_>>()
        });
        assert_eq!(serial, parallel);
        // Identical configs give identical runs even across threads.
        assert_eq!(parallel[0], parallel[3]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(super::pct(0.064), "6.4%");
    }

    #[test]
    fn figure_json_contains_cycles_speedup_and_percentiles() {
        let sys = System::try_new(SystemConfig::small()).expect("small config is valid");
        let mut base = RunMetrics::capture("Baseline", &sys);
        base.cycles = 1000;
        base.stats.invoke_rtt.record(40);
        let mut levi = RunMetrics::capture("Leviathan", &sys);
        levi.cycles = 250;
        let rows = [
            Row {
                label: "Baseline",
                metrics: &base,
                paper_speedup: None,
                paper_energy: None,
            },
            Row {
                label: "Leviathan",
                metrics: &levi,
                paper_speedup: None,
                paper_energy: None,
            },
        ];
        let json = figure_json("fig_test", &rows);
        assert!(json.starts_with("{\"figure\":\"fig_test\""), "{json}");
        assert!(json.contains("\"cycles\":1000"), "{json}");
        assert!(json.contains("\"speedup\":4.000000"), "{json}");
        assert!(
            json.contains(
                "\"invoke_rtt\":{\"count\":1,\"p50\":32,\"p90\":32,\"p99\":32,\"max\":40}"
            ),
            "{json}"
        );
        assert!(json.contains("\"stream_stall\":{\"count\":0"), "{json}");
        assert!(json.contains("\"trace_dropped\":0"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn table_json_round_trips_headers_and_rows() {
        let json = table_json("t", &["a", "b"], &[vec!["1".into(), "x\"y".into()]]);
        assert_eq!(
            json,
            "{\"figure\":\"t\",\"table\":{\"headers\":[\"a\",\"b\"],\
             \"rows\":[[\"1\",\"x\\\"y\"]]}}"
        );
    }

    #[test]
    fn escape_handles_quotes() {
        let mut out = String::new();
        levi_sim::telemetry::write_escaped(&mut out, "a\"b\\c");
        assert_eq!(out, "a\\\"b\\\\c");
    }
}
