//! The unified figure runner: a registry of figure descriptors and the
//! one run path that drives their simulations, [`sweep_jobs`].
//!
//! Each figure of the paper's evaluation is one [`Figure`] descriptor in
//! [`crate::figures::ALL`]: a static id, a one-line summary, the registry
//! workloads it exercises, and a `run` function that prints the figure.
//! The `levi-bench` binary dispatches through [`run_figure`], so there is
//! exactly one implementation of every figure.
//!
//! Shared plumbing lives here so descriptors stay declarative:
//!
//! * [`RunCtx`] — every switch of one invocation: scale selection
//!   (`--quick`), variant filtering (`--filter`), `--serial`, the
//!   [`RunEnv`] injected into every run (`--fault-plan`, ...), the
//!   `--json` and `--telemetry` sinks, the `--resume` journal, and the id
//!   of the figure being run. Nothing else carries run state.
//! * [`sweep_jobs`] — every simulated run of every figure goes through
//!   it: labelled jobs run in parallel, each is golden-checked, journaled
//!   (`--resume`), reported on stderr and dumped as one telemetry block
//!   (`--telemetry`). It is the only place that spawns threads or
//!   contains panics. [`sweep_variants`] / [`sweep_prepared`] adapt it
//!   to "a workload's (filtered) variants at one scale".
//! * [`report_figure`] — join measured outcomes with the paper's numbers
//!   by label and emit the standard speedup/energy report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use levi_workloads::harness::{
    DynWorkload, PreparedRun, RunEnv, RunOutcome, RunStatus, ScaleKind, Workload,
};

use crate::journal::Journal;
use crate::{report, Row, Sink};

/// Per-invocation context threaded into every figure's `run` function.
/// The CLI fills it once, opening every output before any simulation
/// starts; [`run_figure`] then sets the figure id.
#[derive(Clone, Default)]
pub struct RunCtx {
    /// Run at reduced scale (`--quick`).
    pub quick: bool,
    /// Case-insensitive substring filter on variant labels; the baseline
    /// (first) variant always runs so speedups stay well-defined.
    pub filter: Option<String>,
    /// Environment applied uniformly to every simulated run.
    pub env: RunEnv,
    /// Run each sweep's jobs one after another on the calling thread
    /// (`--serial`). The output is byte-identical either way; the serial
    /// run is the reference the parallel one is checked against, and the
    /// easier one to debug.
    pub serial: bool,
    /// The id of the figure being run (empty outside [`run_figure`]):
    /// the `"figure"` key of report JSON, the key of journal records and
    /// the `figure/label` scope of telemetry blocks.
    pub figure: &'static str,
    /// The `--json` report: one line per figure.
    pub json: Option<Sink>,
    /// The `--telemetry` dump: one registry block per run. Its presence
    /// should match `env.telemetry`, which makes runs record spans.
    pub telemetry: Option<Sink>,
    /// The `--resume` journal, shared by a sweep's parallel jobs.
    pub journal: Option<Arc<Mutex<Journal>>>,
}

impl RunCtx {
    /// The scale kind this context selects.
    pub fn kind(&self) -> ScaleKind {
        if self.quick {
            ScaleKind::Quick
        } else {
            ScaleKind::Paper
        }
    }

    /// Whether the variant at `index` with display `label` should run.
    pub fn keeps(&self, index: usize, label: &str) -> bool {
        index == 0
            || match &self.filter {
                None => true,
                Some(f) => label.to_ascii_lowercase().contains(&f.to_ascii_lowercase()),
            }
    }
}

/// Labelled outcomes of one sweep, in job order. Unsupported jobs are
/// absent (they printed their reason instead).
pub struct Outcomes {
    entries: Vec<(String, RunOutcome)>,
}

impl Outcomes {
    /// The outcome for the job labelled `label`, if it ran.
    pub fn get(&self, label: &str) -> Option<&RunOutcome> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, o)| o)
    }

    /// Iterates `(label, outcome)` pairs in job order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RunOutcome)> {
        self.entries.iter().map(|(l, o)| (l.as_str(), o))
    }
}

impl std::ops::Index<&str> for Outcomes {
    type Output = RunOutcome;

    /// The outcome for `label`.
    ///
    /// # Panics
    /// Panics if the job did not run (unsupported, or not in the sweep).
    fn index(&self, label: &str) -> &RunOutcome {
        self.get(label)
            .unwrap_or_else(|| panic!("{label}: no outcome (the job did not run)"))
    }
}

/// Runs labelled jobs as one sweep of `ctx`'s figure: the one run path
/// every simulated figure takes.
///
/// Each job is either loaded from the ctx's journal (`--resume`) or run
/// as `run(job, &ctx.env)`, on its own thread unless `ctx.serial` is set.
/// Every simulated run is a pure function of its configuration and seed
/// (the simulator shares no global state), so the parallel sweep returns
/// what the serial one does, in job order. A panicking job is contained
/// so it cannot abort its siblings' (possibly hours of) completed work.
///
/// Every outcome is checked against `golden(job)`: a fresh one inside its
/// job, a resumed one here (which also catches a stale journal from an
/// older build). A fresh outcome is
/// recorded in the journal inside its job, right after its golden check,
/// so a kill or a panic later in the sweep cannot lose finished work.
/// Progress goes to stderr, `UNSUPPORTED` notices to stdout, and one
/// telemetry block per run, in job order, to the `--telemetry` dump.
///
/// Applies no `--filter`: knob sweeps run every job.
///
/// # Panics
/// Panics if two jobs share a label (journal records are keyed by
/// `(figure, sweep, label)` and telemetry scopes by `figure/label`, so a
/// duplicate is a harness bug), on a golden mismatch, if a journal append
/// fails, and after every job has reported if any job panicked.
pub fn sweep_jobs<L, J, F, G>(
    ctx: &RunCtx,
    jobs: impl IntoIterator<Item = (L, J)>,
    run: F,
    golden: G,
) -> Outcomes
where
    L: Into<String>,
    J: Sync,
    F: Fn(&J, &RunEnv) -> RunStatus + Sync,
    G: Fn(&J) -> u64 + Sync,
{
    let figure = ctx.figure;
    let jobs: Vec<(String, J)> = jobs.into_iter().map(|(l, j)| (l.into(), j)).collect();
    let mut seen = std::collections::HashSet::new();
    for (label, _) in &jobs {
        assert!(
            seen.insert(label.as_str()),
            "duplicate sweep label {label:?} in figure {figure:?}"
        );
    }

    let (sweep, resumed): (Option<u32>, Vec<Option<RunOutcome>>) = match &ctx.journal {
        Some(journal) => {
            let mut journal = journal.lock().expect("journal poisoned");
            let sweep = journal.begin_sweep(figure);
            let resumed = jobs
                .iter()
                .map(|(label, _)| journal.lookup(figure, sweep, label))
                .collect();
            (Some(sweep), resumed)
        }
        None => (None, jobs.iter().map(|_| None).collect()),
    };
    let pending: Vec<(&str, &J)> = jobs
        .iter()
        .zip(&resumed)
        .filter(|(_, r)| r.is_none())
        .map(|((label, job), _)| (label.as_str(), job))
        .collect();
    let mut fresh = fan_out(ctx.serial, &pending, |label, &job| {
        let status = run(job, &ctx.env);
        if let RunStatus::Done(o) = &status {
            assert_eq!(
                o.checksum,
                golden(job),
                "{label} diverged from the golden model"
            );
            if let (Some(journal), Some(sweep)) = (&ctx.journal, sweep) {
                let appended = journal
                    .lock()
                    .expect("journal poisoned")
                    .record(figure, sweep, label, o);
                appended.unwrap_or_else(|e| panic!("journal append failed: {e}"));
            }
        }
        status
    })
    .into_iter();

    let mut entries = Vec::new();
    let mut failed = Vec::new();
    for ((label, job), resumed) in jobs.iter().zip(resumed) {
        let o = match resumed {
            Some(o) => {
                assert_eq!(
                    o.checksum,
                    golden(job),
                    "{label}: journaled outcome diverged from the golden model (stale journal?)"
                );
                eprintln!(
                    "  journal {:<14} {:>12} cycles (resumed)",
                    label, o.metrics.cycles
                );
                o
            }
            None => match fresh.next().expect("one result per pending job") {
                Ok(RunStatus::Done(o)) => {
                    eprintln!("  ran {:<18} {:>12} cycles", label, o.metrics.cycles);
                    *o
                }
                Ok(RunStatus::Unsupported(reason)) => {
                    println!("{label:<22} UNSUPPORTED — {reason}");
                    continue;
                }
                Err(message) => {
                    failed.push(format!("variant {label:?} panicked: {message}"));
                    continue;
                }
            },
        };
        if let Some(dump) = &ctx.telemetry {
            let scope = if figure.is_empty() {
                label.to_string()
            } else {
                format!("{figure}/{label}")
            };
            dump.write(&levi_sim::Telemetry::new(&o.metrics.stats).to_jsonl(&scope));
        }
        entries.push((label.clone(), o));
    }
    if !failed.is_empty() {
        panic!(
            "{} sweep variant(s) panicked:\n  {}",
            failed.len(),
            failed.join("\n  ")
        );
    }
    Outcomes { entries }
}

/// Runs `f(label, item)` for every labelled item, on scoped threads unless
/// `serial` is set or there is at most one item, and returns the results
/// in declaration order. A panicking item becomes an `Err` holding its
/// panic message; the other items still run to completion.
fn fan_out<T, R, F>(serial: bool, items: &[(&str, T)], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&str, &T) -> R + Sync,
{
    let guarded = |label: &str, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(label, item))).map_err(|p| panic_message(p.as_ref()))
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
            .map(|h| h.join().unwrap_or_else(|p| Err(panic_message(p.as_ref()))))
            .collect()
    })
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

/// Runs the (filtered) variants of a typed workload at `scale` through
/// [`sweep_jobs`]; the first variant always runs.
pub fn sweep_variants<W: Workload>(w: &W, scale: &W::Scale, ctx: &RunCtx) -> Outcomes {
    let input = w.build_input(scale);
    let variants = w
        .variants()
        .into_iter()
        .enumerate()
        .filter(|&(i, (label, _))| ctx.keeps(i, label))
        .map(|(_, pair)| pair);
    sweep_jobs(
        ctx,
        variants,
        |&v, env| w.run(v, scale, &input, env),
        |&v| w.golden(v, scale, &input),
    )
}

/// Registry-path counterpart of [`sweep_variants`]: runs a
/// [`PreparedRun`]'s (filtered) variants by label. This is how figures
/// drive workloads they only know by registry name.
pub fn sweep_prepared(w: &dyn DynWorkload, prepared: &dyn PreparedRun, ctx: &RunCtx) -> Outcomes {
    let labels = w
        .variant_labels()
        .into_iter()
        .enumerate()
        .filter(|&(i, label)| ctx.keeps(i, label))
        .map(|(_, label)| (label, label));
    sweep_jobs(
        ctx,
        labels,
        |&label, env| prepared.run(label, env),
        |&label| prepared.golden(label),
    )
}

/// Emits the standard speedup/energy report for a variant sweep, joining
/// the paper's `(label, speedup, relative energy)` numbers by label.
/// Rows keep the sweep's presentation order; the first outcome is the
/// baseline.
pub fn report_figure(
    ctx: &RunCtx,
    outcomes: &Outcomes,
    paper: &[(&str, Option<f64>, Option<f64>)],
) {
    let rows: Vec<Row<'_>> = outcomes
        .iter()
        .map(|(label, o)| {
            let (ps, pe) = paper
                .iter()
                .find(|(l, _, _)| *l == label)
                .map_or((None, None), |&(_, ps, pe)| (ps, pe));
            Row {
                label,
                metrics: &o.metrics,
                paper_speedup: ps,
                paper_energy: pe,
            }
        })
        .collect();
    report(ctx, &rows);
}

/// One figure or table of the paper's evaluation.
pub struct Figure {
    /// Stable identifier (`fig05_phi`, `table04_area`, ...) — the name
    /// `levi-bench run` accepts and the `"figure"` key in report JSON.
    pub id: &'static str,
    /// One-line summary shown by `levi-bench list`.
    pub about: &'static str,
    /// Registry workloads this figure exercises (empty for figures that
    /// print static configuration and simulate nothing).
    pub workloads: &'static [&'static str],
    /// Prints the figure (and emits its report JSON) for a context.
    pub run: fn(&RunCtx),
}

/// Finds a figure by exact id, or by unique prefix.
pub fn find_figure(id: &str) -> Option<&'static Figure> {
    let all = crate::figures::ALL;
    if let Some(f) = all.iter().find(|f| f.id == id) {
        return Some(f);
    }
    let mut matches = all.iter().filter(|f| f.id.starts_with(id));
    match (matches.next(), matches.next()) {
        (Some(f), None) => Some(f),
        _ => None,
    }
}

/// Runs one figure under `ctx`, with [`RunCtx::figure`] set to its id so
/// the report JSON, journal records and telemetry blocks of the runs it
/// drives carry it.
pub fn run_figure(fig: &Figure, ctx: &RunCtx) {
    (fig.run)(&RunCtx {
        figure: fig.id,
        ..ctx.clone()
    });
}

/// Renders the roll-up manifest emitted after `levi-bench run all`: which
/// figures ran, which registry workloads each exercises, and the full
/// registry, so report consumers can check coverage without compiling the
/// workspace.
pub fn manifest_json(quick: bool) -> String {
    let mut w = crate::json::JsonWriter::new();
    w.begin_obj();
    w.key("manifest").begin_obj();
    w.key("version").u64(1);
    w.key("quick").bool(quick);
    w.key("figures").begin_arr();
    for f in crate::figures::ALL {
        w.begin_obj();
        w.key("id").str(f.id);
        w.key("workloads").begin_arr();
        for name in f.workloads {
            w.str(name);
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.key("workloads").begin_arr();
    for wl in levi_workloads::REGISTRY {
        w.str(wl.name());
    }
    w.end_arr();
    w.end_obj();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_are_unique_and_prefix_resolvable() {
        let mut ids: Vec<_> = crate::figures::ALL.iter().map(|f| f.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate figure ids");
        assert!(find_figure("fig05_phi").is_some());
        assert_eq!(find_figure("fig05").unwrap().id, "fig05_phi");
        assert!(
            find_figure("fig2").is_none(),
            "ambiguous prefix must not resolve"
        );
        assert!(find_figure("nope").is_none());
    }

    #[test]
    fn every_registry_workload_is_covered_by_some_figure() {
        for w in levi_workloads::REGISTRY {
            assert!(
                crate::figures::ALL
                    .iter()
                    .any(|f| f.workloads.contains(&w.name())),
                "workload {} appears in no figure",
                w.name()
            );
        }
        for f in crate::figures::ALL {
            for w in f.workloads {
                assert!(
                    levi_workloads::harness::find_workload(w).is_some(),
                    "figure {} names unregistered workload {w}",
                    f.id
                );
            }
        }
    }

    #[test]
    fn manifest_lists_every_figure_and_workload() {
        let m = manifest_json(true);
        for f in crate::figures::ALL {
            assert!(m.contains(&format!("\"id\":\"{}\"", f.id)), "{m}");
        }
        for w in levi_workloads::REGISTRY {
            assert!(m.contains(&format!("\"{}\"", w.name())), "{m}");
        }
        assert_eq!(m.matches('{').count(), m.matches('}').count());
    }

    #[test]
    #[should_panic(expected = "duplicate sweep label \"a\"")]
    fn a_repeated_sweep_label_panics() {
        sweep_jobs(
            &RunCtx::default(),
            [("a", 1u32), ("b", 2), ("a", 3)],
            |_, _| RunStatus::Unsupported("never runs"),
            |_| 0,
        );
    }

    #[test]
    fn a_finished_job_is_journaled_before_the_next_starts() {
        use crate::journal::{Journal, RunParams};
        use levi_workloads::metrics::RunMetrics;
        use leviathan::{System, SystemConfig};

        let dir = std::env::temp_dir().join("levi-runner-test-journal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.journal");
        let path = path.to_str().unwrap();
        let params = RunParams {
            quick: true,
            fault: None,
        };
        let ctx = RunCtx {
            serial: true,
            figure: "fig_test",
            journal: Some(Arc::new(Mutex::new(Journal::open(path, params).unwrap()))),
            ..RunCtx::default()
        };
        let sys = System::try_new(SystemConfig::small()).expect("small config is valid");
        let metrics = RunMetrics::capture("job", &sys);
        let outcomes = sweep_jobs(
            &ctx,
            [("first", 1u32), ("second", 2)],
            |&job, _| {
                if job == 2 {
                    // A kill here must not lose the first job's work.
                    let on_disk = Journal::open(path, params).expect("reopen");
                    assert!(
                        on_disk.lookup("fig_test", 0, "first").is_some(),
                        "the first job's record is on disk before the second runs"
                    );
                }
                RunStatus::Done(Box::new(RunOutcome::new(metrics.clone(), 7)))
            },
            |_| 7,
        );
        assert_eq!(outcomes.iter().count(), 2);
        assert_eq!(Journal::open(path, params).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn filter_keeps_the_baseline() {
        let ctx = RunCtx {
            filter: Some("leviathan".into()),
            ..RunCtx::default()
        };
        assert!(ctx.keeps(0, "Baseline"));
        assert!(ctx.keeps(3, "Leviathan"));
        assert!(ctx.keeps(4, "Leviathan (DYNAMIC)"));
        assert!(!ctx.keeps(2, "tako Relax"));
        assert!(RunCtx::default().keeps(2, "tako Relax"));
    }
}
