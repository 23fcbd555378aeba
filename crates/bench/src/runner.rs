//! The unified figure runner: a registry of figure descriptors and the
//! one run path that drives their simulations.
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
//!   `--json` and `--telemetry` sinks, the `--resume` journal, the id of
//!   the figure being run, and the [`RunMemo`] of the runs simulated so
//!   far. Nothing else carries run state.
//! * [`sweep_runs`] — a typed workload's runs, each named by its
//!   `(variant, scale)`. The runner makes the [`Workload::run`] call
//!   itself, so it can key each run and reuse the outcome of an identical
//!   run an earlier figure simulated: one invocation simulates each
//!   distinct run once. [`sweep_variants`] adapts it to "a workload's
//!   (filtered) variants at one scale".
//! * [`sweep_jobs`] — labelled jobs run by a closure, for runs a key
//!   cannot name (config overrides); these are never reused.
//!   [`sweep_prepared`] adapts it to workloads known by registry name.
//!
//!   Both take one path: every job is resumed from the journal
//!   (`--resume`), reused from the memo, or simulated on a pool of
//!   `available_parallelism()` workers; each is golden-checked,
//!   journaled, reported on stderr and dumped as one telemetry block
//!   (`--telemetry`). It is the only place that spawns threads or
//!   contains panics.
//! * [`report_figure`] — join measured outcomes with the paper's numbers
//!   by label and emit the standard speedup/energy report.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use levi_sim::telemetry::write_escaped;
use levi_sim::{Telemetry, TELEMETRY_VERSION};
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
    /// The runs [`sweep_runs`] has simulated or resumed so far, shared by
    /// every clone of this context.
    pub memo: RunMemo,
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

/// The outcomes of the runs one invocation has simulated, keyed by what
/// determines a run (see [`sweep_runs`]), so a later sweep of an
/// identical run reuses its outcome. Clones share one table.
#[derive(Clone, Default)]
pub struct RunMemo(Arc<Mutex<HashMap<String, Arc<Memoized>>>>);

/// One run kept for reuse.
struct Memoized {
    /// The `figure/label` scope of the sweep job that produced it.
    origin: String,
    /// Its outcome without the trace ring, the span table and the host
    /// phases: the recorders are the bulk of a traced run's memory, and a
    /// reused run spends no host time. Its `trace.dropped()` reads 0.
    outcome: RunOutcome,
    /// Its telemetry block after the header line, without the wall-clock
    /// `host_ns_*` gauges (`--telemetry` only).
    telemetry: Option<String>,
}

impl RunMemo {
    fn get(&self, key: &str) -> Option<Arc<Memoized>> {
        self.0.lock().expect("run memo poisoned").get(key).cloned()
    }

    fn keep(&self, key: &str, entry: impl FnOnce() -> Memoized) {
        let mut memo = self.0.lock().expect("run memo poisoned");
        if !memo.contains_key(key) {
            memo.insert(key.to_string(), Arc::new(entry()));
        }
    }
}

/// A copy of `o` without its trace ring, span table and host phases.
fn without_recorders(o: &mut RunOutcome) -> RunOutcome {
    let stats = &mut o.metrics.stats;
    let trace = std::mem::take(&mut stats.trace);
    let spans = std::mem::take(&mut stats.spans);
    let host_phases = std::mem::take(&mut stats.host_phases);
    let copy = o.clone();
    let stats = &mut o.metrics.stats;
    (stats.trace, stats.spans, stats.host_phases) = (trace, spans, host_phases);
    copy
}

/// The header line of the telemetry block scoped `scope`, as
/// [`Telemetry::to_jsonl`] writes it.
fn telemetry_header(scope: &str) -> String {
    let mut out = format!("{{\"telemetry\":{{\"version\":{TELEMETRY_VERSION},\"scope\":\"");
    write_escaped(&mut out, scope);
    out.push_str("\"}}\n");
    out
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

/// Runs labelled jobs as one sweep of `ctx`'s figure, each as
/// `run(job, &ctx.env)`. Use it for runs that [`sweep_runs`] cannot key,
/// such as runs with a system-config override; its jobs are never
/// reused. Otherwise it takes the same path:
///
/// Each job is loaded from the ctx's journal (`--resume`), reused from
/// its memo ([`sweep_runs`] jobs only), or simulated. Simulated jobs run
/// on `min(available_parallelism(), jobs)` scoped workers that take them
/// in job order, or one after another on the calling thread if
/// `ctx.serial` is set. Every simulated run is a pure function of its
/// configuration and seed (the simulator shares no global state), so the
/// parallel sweep returns what the serial one does, in job order. A
/// sweep's own jobs run concurrently, so a run listed twice in one sweep
/// is simulated twice. A panicking job is contained so it cannot abort
/// its siblings' (possibly hours of) completed work.
///
/// Every outcome is checked against `golden(job)`: a fresh one inside its
/// job, a resumed one here (which also catches a stale journal from an
/// older build); a reused one was checked when it was simulated. A fresh
/// outcome is recorded in the journal inside its job, right after its
/// golden check, so a kill or a panic later in the sweep cannot lose
/// finished work; a reused one is recorded before the simulated jobs
/// start. Progress goes to stderr (one line per outcome: `ran`, `journal
/// … (resumed)` or `reused … (figure/label)` naming the run it reuses),
/// `UNSUPPORTED` notices to stdout, and one telemetry block per outcome,
/// in job order, to the `--telemetry` dump.
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
    let jobs = jobs.into_iter().map(|(l, j)| (l.into(), j, None)).collect();
    sweep(ctx, jobs, run, golden)
}

/// Runs labelled `(variant, scale)` jobs of a typed workload as one sweep
/// of `ctx`'s figure, on the path [`sweep_jobs`] describes, reusing the
/// outcome of every identical run an earlier sweep on `ctx`'s memo
/// simulated or resumed.
///
/// A run's key is the workload's name and the `{:?}` of its variant, its
/// scale and `ctx.env`. The runner makes each [`Workload::run`] call
/// itself, on the input `w.build_input(input_scale)`; the key is sound
/// because that input is what `build_input` returns for each job's own
/// scale (the contract on [`Workload::run`]'s `input`). The input is
/// built once, lazily: a sweep whose jobs are all reused builds none.
///
/// # Panics
/// As [`sweep_jobs`].
pub fn sweep_runs<W, L>(
    ctx: &RunCtx,
    w: &W,
    input_scale: &W::Scale,
    jobs: impl IntoIterator<Item = (L, (W::Variant, W::Scale))>,
) -> Outcomes
where
    W: Workload,
    W::Variant: Debug,
    W::Scale: Debug,
    L: Into<String>,
{
    let input = OnceLock::new();
    let input = || input.get_or_init(|| w.build_input(input_scale));
    let name = Workload::name(w);
    let jobs = jobs
        .into_iter()
        .map(|(label, (v, scale))| {
            let key = format!("{name}|{v:?}|{scale:?}|{:?}", ctx.env);
            (label.into(), (v, scale), Some(key))
        })
        .collect();
    sweep(
        ctx,
        jobs,
        |(v, scale), env| w.run(*v, scale, input(), env),
        |(v, scale)| w.golden(*v, scale, input()),
    )
}

/// Where one sweep job's outcome comes from.
enum Source {
    /// The journal's record of this job (`--resume`).
    Resumed(Box<RunOutcome>),
    /// An identical run an earlier sweep kept in the memo.
    Reused(Arc<Memoized>),
    /// A fresh simulation.
    Run,
}

/// The path of [`sweep_jobs`] and [`sweep_runs`]: `(label, job, memo
/// key)` triples, where only keyed jobs are reused and kept.
fn sweep<J, F, G>(
    ctx: &RunCtx,
    jobs: Vec<(String, J, Option<String>)>,
    run: F,
    golden: G,
) -> Outcomes
where
    J: Sync,
    F: Fn(&J, &RunEnv) -> RunStatus + Sync,
    G: Fn(&J) -> u64 + Sync,
{
    let figure = ctx.figure;
    let mut seen = HashSet::new();
    for (label, _, _) in &jobs {
        assert!(
            seen.insert(label.as_str()),
            "duplicate sweep label {label:?} in figure {figure:?}"
        );
    }

    let mut journal = ctx
        .journal
        .as_ref()
        .map(|j| j.lock().expect("journal poisoned"));
    let sweep = journal.as_mut().map(|j| j.begin_sweep(figure));
    let mut sources = Vec::with_capacity(jobs.len());
    for (label, _, key) in &jobs {
        let resumed = journal
            .as_ref()
            .zip(sweep)
            .and_then(|(j, s)| j.lookup(figure, s, label));
        let source = if let Some(o) = resumed {
            Source::Resumed(Box::new(o))
        } else if let Some(entry) = key.as_deref().and_then(|k| ctx.memo.get(k)) {
            if let (Some(j), Some(s)) = (journal.as_mut(), sweep) {
                let appended = j.record(figure, s, label, &entry.outcome);
                appended.unwrap_or_else(|e| panic!("journal append failed: {e}"));
            }
            Source::Reused(entry)
        } else {
            Source::Run
        };
        sources.push(source);
    }
    drop(journal);

    let pending: Vec<(&str, &J)> = jobs
        .iter()
        .zip(&sources)
        .filter(|(_, source)| matches!(source, Source::Run))
        .map(|((label, job, _), _)| (label.as_str(), job))
        .collect();
    let workers = if ctx.serial {
        1
    } else {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    };
    let mut fresh = fan_out(workers, &pending, |label, &job| {
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
    for ((label, job, key), source) in jobs.iter().zip(sources) {
        let scope = if figure.is_empty() {
            label.to_string()
        } else {
            format!("{figure}/{label}")
        };
        let mut o = match source {
            Source::Resumed(o) => {
                assert_eq!(
                    o.checksum,
                    golden(job),
                    "{label}: journaled outcome diverged from the golden model (stale journal?)"
                );
                eprintln!(
                    "  journal {:<14} {:>12} cycles (resumed)",
                    label, o.metrics.cycles
                );
                *o
            }
            Source::Reused(entry) => {
                eprintln!(
                    "  reused {:<15} {:>12} cycles ({})",
                    label, entry.outcome.metrics.cycles, entry.origin
                );
                if let (Some(dump), Some(body)) = (&ctx.telemetry, &entry.telemetry) {
                    dump.write(&(telemetry_header(&scope) + body));
                }
                entries.push((label.clone(), entry.outcome.clone()));
                continue;
            }
            Source::Run => match fresh.next().expect("one result per pending job") {
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
        let block = ctx.telemetry.as_ref().map(|dump| {
            let block = Telemetry::new(&o.metrics.stats).to_jsonl(&scope);
            dump.write(&block);
            block
        });
        if let Some(key) = key {
            ctx.memo.keep(key, || Memoized {
                origin: scope,
                outcome: without_recorders(&mut o),
                telemetry: block.map(|block| {
                    block
                        .lines()
                        .skip(1)
                        .filter(|line| !line.contains("\"type\":\"gauge\""))
                        .map(|line| format!("{line}\n"))
                        .collect()
                }),
            });
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

/// Runs `f(label, item)` for every labelled item on `min(workers, items)`
/// scoped worker threads that take the items in declaration order (on
/// the calling thread when that is one), and returns the results in
/// declaration order. A panicking item becomes an `Err` holding its panic
/// message; the other items still run to completion.
fn fan_out<T, R, F>(workers: usize, items: &[(&str, T)], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&str, &T) -> R + Sync,
{
    let guarded = |(label, item): &(&str, T)| {
        catch_unwind(AssertUnwindSafe(|| f(label, item))).map_err(|p| panic_message(p.as_ref()))
    };
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(guarded).collect();
    }
    let (guarded, next) = (&guarded, &AtomicUsize::new(0));
    let mut results: Vec<Option<Result<R, String>>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes nothing; `items`
                        // predates the spawn and results return by `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break done;
                        };
                        done.push((i, guarded(item)));
                    }
                })
            })
            .collect();
        // `guarded` catches every job's panic, so a worker only returns.
        for h in handles {
            for (i, r) in h.join().expect("pool worker died outside a job") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
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
/// [`sweep_runs`]; the first variant always runs.
pub fn sweep_variants<W>(w: &W, scale: &W::Scale, ctx: &RunCtx) -> Outcomes
where
    W: Workload,
    W::Variant: Debug,
    W::Scale: Debug,
{
    let variants = w
        .variants()
        .into_iter()
        .enumerate()
        .filter(|&(i, (label, _))| ctx.keeps(i, label))
        .map(|(_, (label, v))| (label, (v, scale.clone())));
    sweep_runs(ctx, w, scale, variants)
}

/// Registry-path counterpart of [`sweep_variants`]: runs a
/// [`PreparedRun`]'s (filtered) variants by label through
/// [`sweep_jobs`]. This is how figures drive workloads they only know by
/// registry name.
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

    /// A workload whose run `v` at scale `s` takes `100 * v + s.knob`
    /// cycles, counting its `run` and `build_input` calls.
    #[derive(Default)]
    struct Counting {
        runs: AtomicUsize,
        inputs: AtomicUsize,
    }

    #[derive(Clone, Debug)]
    struct TestScale {
        size: u64,
        knob: u64,
    }

    const SCALE: TestScale = TestScale { size: 10, knob: 0 };

    impl Workload for Counting {
        type Variant = u32;
        type Scale = TestScale;
        type Input = u64;

        fn name(&self) -> &'static str {
            "counting"
        }

        fn variants(&self) -> Vec<(&'static str, u32)> {
            vec![("a", 1), ("b", 2)]
        }

        fn scale(&self, _: ScaleKind) -> TestScale {
            SCALE
        }

        fn build_input(&self, scale: &TestScale) -> u64 {
            self.inputs.fetch_add(1, Ordering::SeqCst);
            scale.size
        }

        fn describe(&self, _: &TestScale) -> String {
            String::new()
        }

        fn run(&self, v: u32, scale: &TestScale, input: &u64, _: &RunEnv) -> RunStatus {
            use levi_workloads::metrics::RunMetrics;
            self.runs.fetch_add(1, Ordering::SeqCst);
            let metrics = RunMetrics {
                label: format!("v{v}"),
                cycles: 100 * u64::from(v) + scale.knob,
                energy: levi_sim::EnergyBreakdown::default(),
                stats: levi_sim::Stats::default(),
            };
            let checksum = self.golden(v, scale, input);
            RunStatus::Done(Box::new(RunOutcome::new(metrics, checksum)))
        }

        fn golden(&self, v: u32, _: &TestScale, input: &u64) -> u64 {
            u64::from(v) + input
        }
    }

    /// A fresh, empty scratch directory for one test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The `figure/label` scope and body of every block of a dump.
    fn blocks(dump: &str) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for line in dump.lines() {
            if line.starts_with("{\"telemetry\":") {
                let doc = crate::json::parse(line).unwrap();
                let scope = doc.get("telemetry").and_then(|t| t.get("scope"));
                let scope = scope.and_then(crate::json::Json::as_str).unwrap();
                out.push((scope.to_string(), String::new()));
            } else {
                out.last_mut().unwrap().1 += line;
            }
        }
        out
    }

    #[test]
    fn an_identical_run_of_a_later_figure_is_simulated_once() {
        use crate::journal::{Journal, RunParams};

        let dir = scratch_dir("levi-runner-test-memo");
        let dump = dir.join("t.jsonl");
        let journal = dir.join("j.journal");
        let (dump, journal) = (dump.to_str().unwrap(), journal.to_str().unwrap());
        let params = RunParams {
            quick: true,
            fault: None,
        };
        let ctx = RunCtx {
            telemetry: Some(Sink::open(dump, true).unwrap()),
            journal: Some(Arc::new(Mutex::new(
                Journal::open(journal, params).unwrap(),
            ))),
            ..RunCtx::default()
        };
        let w = Counting::default();
        let first = sweep_variants(
            &w,
            &SCALE,
            &RunCtx {
                figure: "fig_a",
                ..ctx.clone()
            },
        );
        let second = sweep_runs(
            &RunCtx {
                figure: "fig_b",
                ..ctx.clone()
            },
            &w,
            &SCALE,
            [("again", (2, SCALE)), ("other", (3, SCALE))],
        );
        assert_eq!(w.runs.load(Ordering::SeqCst), 3, "b ran once");
        let (a, b) = (&first["b"], &second["again"]);
        assert_eq!(
            (a.metrics.cycles, a.checksum, &a.metrics.label),
            (b.metrics.cycles, b.checksum, &b.metrics.label)
        );
        assert_eq!(second["other"].metrics.cycles, 300);

        // A figure whose every run is reused builds no input.
        let inputs = w.inputs.load(Ordering::SeqCst);
        sweep_runs(
            &RunCtx {
                figure: "fig_c",
                ..ctx.clone()
            },
            &w,
            &SCALE,
            [("once more", (3, SCALE))],
        );
        assert_eq!(w.runs.load(Ordering::SeqCst), 3);
        assert_eq!(w.inputs.load(Ordering::SeqCst), inputs, "no input built");

        // Every figure still dumps its own block and journals its record.
        let blocks = blocks(&std::fs::read_to_string(dump).unwrap());
        let scopes: Vec<&str> = blocks.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            scopes,
            [
                "fig_a/a",
                "fig_a/b",
                "fig_b/again",
                "fig_b/other",
                "fig_c/once more"
            ]
        );
        assert_eq!(
            blocks[1].1, blocks[2].1,
            "a reused block equals its origin's"
        );
        assert_eq!(blocks[3].1, blocks[4].1);
        let on_disk = Journal::open(journal, params).unwrap();
        assert_eq!(on_disk.len(), 5);
        let again = on_disk.lookup("fig_b", 0, "again").expect("journaled");
        assert_eq!(again.metrics.cycles, 200);
        assert!(on_disk.lookup("fig_c", 0, "once more").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_that_differs_in_a_scale_field_or_the_fault_plan_is_not_reused() {
        let w = Counting::default();
        let ctx = RunCtx::default();
        let sweep = |ctx: &RunCtx, label: &str, scale: TestScale| {
            sweep_runs(ctx, &w, &SCALE, [(label, (1, scale))])[label]
                .metrics
                .cycles
        };
        assert_eq!(sweep(&ctx, "x", SCALE), 100);
        assert_eq!(sweep(&ctx, "knob", TestScale { knob: 1, ..SCALE }), 101);
        let faulted = RunCtx {
            env: RunEnv {
                fault: Some(levi_workloads::harness::FaultSpec::new(3)),
                ..RunEnv::default()
            },
            ..ctx.clone()
        };
        sweep(&faulted, "fault", SCALE);
        assert_eq!(w.runs.load(Ordering::SeqCst), 3, "three distinct runs");
        sweep(&ctx, "same", SCALE);
        sweep(&faulted, "same faulted", SCALE);
        assert_eq!(w.runs.load(Ordering::SeqCst), 3, "both reused");
        // A context with its own memo shares nothing.
        sweep(&RunCtx::default(), "fresh memo", SCALE);
        assert_eq!(w.runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn the_pool_runs_exactly_its_size_at_once() {
        // Each job waits at a 3-party barrier, so the pool must run three
        // jobs at once to finish, and the peak shows it never runs more.
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let barrier = std::sync::Barrier::new(3);
        let items: Vec<(&str, u64)> = (0..12).map(|i| ("job", i)).collect();
        let results = fan_out(3, &items, |_, &i| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            barrier.wait();
            running.fetch_sub(1, Ordering::SeqCst);
            i
        });
        assert_eq!(results.len(), 12);
        assert_eq!(peak.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn the_pool_returns_results_in_declaration_order() {
        // The first job waits until the second has finished.
        let (done, wait) = std::sync::mpsc::channel();
        let wait = Mutex::new(wait);
        let finished = Mutex::new(Vec::new());
        let items = [("first", 0u64), ("second", 1)];
        let results = fan_out(2, &items, |_, &i| {
            if i == 0 {
                wait.lock().unwrap().recv().unwrap();
            }
            finished.lock().unwrap().push(i);
            if i == 1 {
                done.send(()).unwrap();
            }
            i * 10
        });
        assert_eq!(*finished.lock().unwrap(), [1, 0]);
        let results: Vec<u64> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, [0, 10]);
    }

    #[test]
    fn a_panicking_job_is_contained_while_its_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let items: Vec<(&str, u64)> = (0..6).map(|i| ("job", i)).collect();
        let results = fan_out(2, &items, |_, &i| {
            assert_ne!(i, 1, "job 1 fails");
            finished.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(finished.load(Ordering::SeqCst), 5, "every sibling finished");
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i as u64),
                Err(message) => {
                    assert_eq!(i, 1);
                    assert!(message.contains("job 1 fails"), "{message}");
                }
            }
        }
        assert!(results[1].is_err());
    }
}
