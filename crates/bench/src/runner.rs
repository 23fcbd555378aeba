//! The unified figure runner: a registry of figure descriptors and the
//! one run path that drives their simulations through [`crate::Sweep`].
//!
//! Each figure of the paper's evaluation is one [`Figure`] descriptor in
//! [`crate::figures::ALL`]: a static id, a one-line summary, the registry
//! workloads it exercises, and a `run` function that prints the figure.
//! The `levi-bench` binary dispatches through [`run_figure`], so there is
//! exactly one implementation of every figure.
//!
//! Shared plumbing lives here so descriptors stay declarative:
//!
//! * [`RunCtx`] — scale selection (`--quick`), variant filtering
//!   (`--filter`), and the [`RunEnv`] injected into every run
//!   (`--fault-plan`).
//! * [`sweep_jobs`] — every simulated run of every figure goes through
//!   it: labelled jobs run in parallel, each is golden-checked, journaled
//!   (`--resume`), reported on stderr and dumped as one telemetry block
//!   (`--telemetry`). [`sweep_variants`] / [`sweep_prepared`] adapt it
//!   to "a workload's (filtered) variants at one scale".
//! * [`report_figure`] — join measured outcomes with the paper's numbers
//!   by label and emit the standard speedup/energy report.

use levi_workloads::harness::{
    DynWorkload, PreparedRun, RunEnv, RunOutcome, RunStatus, ScaleKind, Workload,
};

use crate::{report, Row, Sweep};

/// Per-invocation context threaded into every figure's `run` function.
#[derive(Clone, Debug, Default)]
pub struct RunCtx {
    /// Run at reduced scale (`--quick`).
    pub quick: bool,
    /// Case-insensitive substring filter on variant labels; the baseline
    /// (first) variant always runs so speedups stay well-defined.
    pub filter: Option<String>,
    /// Environment applied uniformly to every simulated run.
    pub env: RunEnv,
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

/// Runs labelled jobs as one sweep of the current figure: the one run
/// path every simulated figure takes.
///
/// Each job is either loaded from the active journal (`--resume`) or run
/// as `run(job, env)` through [`Sweep::try_run`], so one panicking job
/// cannot abort its siblings. Every outcome is checked against
/// `golden(job)`: a fresh one inside the sweep, a resumed one here (which
/// also catches a stale journal from an older build). Fresh outcomes are
/// recorded in the journal before any panic is re-raised, so a partly
/// failed invocation resumes without repeating its finished work.
/// Progress goes to stderr, `UNSUPPORTED` notices to stdout, and one
/// telemetry block per run to the `LEVI_TELEMETRY` dump.
///
/// Applies no `--filter`: knob sweeps run every job.
///
/// # Panics
/// Panics if two jobs share a label (journal records are keyed by
/// `(figure, sweep, label)` and telemetry scopes by `figure/label`, so a
/// duplicate is a harness bug), on a golden mismatch, and after every
/// job has reported if any job panicked.
pub fn sweep_jobs<L, J, F, G>(
    env: &RunEnv,
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
    let figure = current_figure();
    let jobs: Vec<(String, J)> = jobs.into_iter().map(|(l, j)| (l.into(), j)).collect();
    let mut seen = std::collections::HashSet::new();
    for (label, _) in &jobs {
        assert!(
            seen.insert(label.as_str()),
            "duplicate sweep label {label:?} in figure {figure:?}"
        );
    }

    let sweep_idx = crate::journal::begin_sweep(&figure);
    let resumed: Vec<Option<RunOutcome>> = jobs
        .iter()
        .map(|(label, _)| sweep_idx.and_then(|s| crate::journal::lookup(&figure, s, label)))
        .collect();
    let mut fresh = Sweep::new()
        .variants(
            jobs.iter()
                .zip(&resumed)
                .filter(|(_, r)| r.is_none())
                .map(|((label, job), _)| (label.as_str(), job)),
        )
        .try_run(|label, job| {
            let status = run(job, env);
            if let RunStatus::Done(o) = &status {
                assert_eq!(
                    o.checksum,
                    golden(job),
                    "{label} diverged from the golden model"
                );
            }
            status
        })
        .into_iter();

    let mut entries = Vec::new();
    let mut failed: Vec<crate::VariantPanic> = Vec::new();
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
            None => match fresh.next().expect("one result per pending job").1 {
                Ok(RunStatus::Done(o)) => {
                    if let Some(s) = sweep_idx {
                        crate::journal::record(&figure, s, label, &o);
                    }
                    eprintln!("  ran {:<18} {:>12} cycles", label, o.metrics.cycles);
                    *o
                }
                Ok(RunStatus::Unsupported(reason)) => {
                    println!("{label:<22} UNSUPPORTED — {reason}");
                    continue;
                }
                Err(p) => {
                    failed.push(p);
                    continue;
                }
            },
        };
        emit_run_telemetry(&figure, label, &o.metrics.stats);
        entries.push((label.clone(), o));
    }
    crate::raise_variant_panics(&failed);
    Outcomes { entries }
}

/// Appends one run's registry dump to the `LEVI_TELEMETRY` file (no-op
/// when unset). The block's scope is `figure/label`, using the figure id
/// [`run_figure`] exported for the runs it drives.
fn emit_run_telemetry(figure: &str, label: &str, stats: &levi_sim::Stats) {
    if std::env::var("LEVI_TELEMETRY").is_err() {
        return;
    }
    let scope = if figure.is_empty() {
        label.to_string()
    } else {
        format!("{figure}/{label}")
    };
    crate::emit_telemetry_block(&levi_sim::Telemetry::new(stats).to_jsonl(&scope));
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
        &ctx.env,
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
        &ctx.env,
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
    figure: &str,
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
    report(figure, &rows);
}

/// One figure or table of the paper's evaluation.
pub struct Figure {
    /// Stable identifier (`fig05_phi`, `table04_area`, ...) — the name
    /// `levi-bench run` accepts and the `"figure"` key in report JSON.
    pub id: &'static str,
    /// One-line summary shown by `levi-bench list`.
    pub about: &'static str,
    /// Registry workloads this figure exercises (empty for figures that
    /// measure the substrate or print static configuration).
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

thread_local! {
    /// The figure id the current thread is running (see [`run_figure`]).
    static CURRENT_FIGURE: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// The figure id the current thread is running (empty outside
/// [`run_figure`]). Journal records and telemetry scopes use this.
pub fn current_figure() -> String {
    CURRENT_FIGURE.with(|f| f.borrow().clone())
}

/// Runs one figure under `ctx`, scoping [`current_figure`] to its id for
/// the duration so telemetry blocks and journal records emitted by the
/// runs it drives carry a `figure/variant` scope. A figure runs entirely
/// on the calling thread (only its inner sweeps fan out), so the scope
/// is thread-local.
pub fn run_figure(fig: &Figure, ctx: &RunCtx) {
    struct Scope(String);
    impl Drop for Scope {
        fn drop(&mut self) {
            CURRENT_FIGURE.with(|f| *f.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let prev = CURRENT_FIGURE.with(|f| std::mem::replace(&mut *f.borrow_mut(), fig.id.to_string()));
    let _scope = Scope(prev);
    (fig.run)(ctx);
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
            &RunEnv::default(),
            [("a", 1u32), ("b", 2), ("a", 3)],
            |_, _| RunStatus::Unsupported("never runs"),
            |_| 0,
        );
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
