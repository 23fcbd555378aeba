//! The figure runner behind `levi-bench`, and its shared reporting
//! utilities.
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
pub mod micro_timers;
pub mod runner;

/// Runs `f(label, item)` for every labelled item and returns the results
/// **in declaration order**, one per item.
///
/// Each item runs to completion even if others panic: a panicking item
/// becomes an `Err(`[`VariantPanic`]`)` in its slot, so one poisoned
/// configuration cannot take down its siblings' (possibly hours of)
/// completed work. Unless `serial` is set or there is at most one item,
/// the items fan out over [`std::thread::scope`]. Every simulated run is
/// a pure function of its configuration and seed (the simulator shares
/// no global state), so a parallel fan-out yields the same results as a
/// serial one, just sooner. `f` must therefore not print; return per-item
/// output and emit it afterwards.
///
/// ```no_run
/// let results = levi_bench::fan_out(false, &[("small", 4u32), ("large", 64)], |_, &t| t * 2);
/// let doubled: Vec<u32> = results.into_iter().map(Result::unwrap).collect();
/// assert_eq!(doubled, [8, 128]);
/// ```
pub fn fan_out<T, R, F>(serial: bool, items: &[(&str, T)], f: F) -> Vec<Result<R, VariantPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&str, &T) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let panicked = |label: &str, p: Box<dyn std::any::Any + Send>| VariantPanic {
        label: label.to_string(),
        message: panic_message(p.as_ref()),
    };
    let guarded = |label: &str, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(label, item))).map_err(|p| panicked(label, p))
    };
    if serial || items.len() < 2 {
        return items
            .iter()
            .map(|(label, item)| guarded(label, item))
            .collect();
    }
    let guarded = &guarded;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .iter()
            .map(|(label, item)| s.spawn(move || guarded(label, item)))
            .collect();
        // The closure catches its own panics; a join error would mean the
        // thread died some other way.
        handles
            .into_iter()
            .zip(items)
            .map(|(h, (label, _))| h.join().unwrap_or_else(|p| Err(panicked(label, p))))
            .collect()
    })
}

/// A fanned-out item whose run panicked (see [`fan_out`]).
#[derive(Clone, Debug)]
pub struct VariantPanic {
    /// The variant's label.
    pub label: String,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl std::fmt::Display for VariantPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "variant {:?} panicked: {}", self.label, self.message)
    }
}

impl std::error::Error for VariantPanic {}

/// Panics with a summary naming every variant in `failed`, if any.
fn raise_variant_panics(failed: &[VariantPanic]) {
    if failed.is_empty() {
        return;
    }
    let mut msg = format!("{} sweep variant(s) panicked:", failed.len());
    for p in failed {
        msg.push_str(&format!("\n  {p}"));
    }
    panic!("{msg}");
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

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
/// newline); see [`emit_table`] for the schema.
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

/// Prints the table and appends its JSON line to the ctx's `--json`
/// report (see [`emit_table`]) — the table-shaped counterpart of
/// [`report`].
pub fn table_report(ctx: &RunCtx, headers: &[&str], rows: &[Vec<String>]) {
    table(headers, rows);
    emit_table(ctx, headers, rows);
}

/// Appends a table's JSON line to the ctx's `--json` report, if any,
/// without printing it (for figures that print their own layout). The
/// line mirrors [`figure_json`] for figures whose natural output is a
/// [`table`] rather than a speedup comparison:
///
/// ```json
/// {"figure": "fig22_invoke_buffer",
///  "table": {"headers": ["entries", ...], "rows": [["1", ...], ...]}}
/// ```
pub fn emit_table(ctx: &RunCtx, headers: &[&str], rows: &[Vec<String>]) {
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
    use leviathan::{System, SystemConfig};

    #[test]
    fn pct_formats() {
        assert_eq!(super::pct(0.064), "6.4%");
    }

    #[test]
    fn try_run_contains_panics_and_completes_the_other_variants() {
        for serial in [false, true] {
            let results = fan_out(
                serial,
                &[("ok-1", 1u32), ("boom", 2), ("ok-2", 3)],
                |name, &v| {
                    assert!(name != "boom", "variant {v} is poisoned");
                    v * 10
                },
            );
            assert_eq!(results.len(), 3, "every variant reports, panicked or not");
            assert_eq!(*results[0].as_ref().unwrap(), 10);
            let err = results[1].as_ref().unwrap_err();
            assert_eq!(err.label, "boom");
            assert!(
                err.message.contains("variant 2 is poisoned"),
                "payload text surfaces: {}",
                err.message
            );
            assert_eq!(*results[2].as_ref().unwrap(), 30);
        }
    }

    #[test]
    fn run_panics_with_a_summary_after_completing_all_variants() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let completed = AtomicU32::new(0);
        let results = fan_out(false, &[("a", 0u32), ("bad", 1), ("c", 2)], |name, _| {
            assert!(name != "bad", "injected failure");
            completed.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(
            completed.load(Ordering::SeqCst),
            2,
            "the healthy variants still ran to completion"
        );
        let failed: Vec<VariantPanic> = results.into_iter().filter_map(Result::err).collect();
        let caught = std::panic::catch_unwind(|| raise_variant_panics(&failed));
        let msg = match caught {
            Ok(()) => panic!("a failed variant must raise a panic"),
            Err(p) => *p.downcast::<String>().expect("summary is a String"),
        };
        assert!(
            msg.contains("1 sweep variant(s) panicked") && msg.contains("\"bad\""),
            "summary names the failed variant: {msg}"
        );
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

    #[test]
    fn sweep_collects_in_declaration_order() {
        // The slowest variant is declared first; a completion-order
        // collector would return it last.
        let results = fan_out(
            false,
            &[("slow", 30u64), ("mid", 5), ("fast", 0)],
            |name, &ms| {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                format!("{name}:{ms}")
            },
        );
        let results: Vec<String> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, ["slow:30", "mid:5", "fast:0"]);
    }

    #[test]
    fn sweep_parallel_matches_serial_on_simulated_runs() {
        use levi_workloads::hashtable::{run_hashtable, HtScale, HtVariant};
        let scale = HtScale::test(64);
        let variants = [
            ("Baseline", HtVariant::Baseline),
            ("Leviathan", HtVariant::Leviathan),
            ("Ideal", HtVariant::Ideal),
            ("Baseline2", HtVariant::Baseline),
        ];
        let run = |serial| -> Vec<(u64, u64)> {
            fan_out(serial, &variants, |_, &v| {
                let r = run_hashtable(v, &scale);
                (r.metrics.cycles, r.checksum)
            })
            .into_iter()
            .map(Result::unwrap)
            .collect()
        };
        let parallel = run(false);
        assert_eq!(parallel, run(true));
        // Identical configs give identical runs even across threads.
        assert_eq!(parallel[0], parallel[3]);
    }
}
