//! `figures-quick`: the `levi-bench` CLI as users and CI run it, in child
//! processes. The untraced build runs `run all --quick` once per rep; the
//! traced build runs each figure as its own child with `--telemetry`, so
//! host time is attributed per figure and per simulator phase.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use levi_sim::Phase;
use levi_workloads::{ScaleKind, REGISTRY};

use crate::json::{parse, Json};
use crate::os::children_cpu_s;
use crate::report::{RunReport, Tally};
use crate::run::{Bench, Rep, Setup, Spans};

pub struct Figures {
    cli: PathBuf,
    traced: bool,
    /// Scratch files (the `--json` report, telemetry dumps).
    work: PathBuf,
    ids: Vec<String>,
    stdout_digest: Option<u64>,
    /// Traced: seconds per figure, summed over timed reps.
    figure_s: Vec<(String, f64)>,
    timed_reps: u32,
}

impl Figures {
    pub fn new(cli: PathBuf, traced: bool, work: PathBuf) -> Figures {
        Figures {
            cli,
            traced,
            work,
            ids: Vec::new(),
            stdout_digest: None,
            figure_s: Vec::new(),
            timed_reps: 0,
        }
    }

    /// Runs the CLI, failing with its last stderr line on a nonzero exit.
    fn cli_ok(&self, args: &[&str]) -> Result<Output, String> {
        let out = Command::new(&self.cli)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("{}: {e}", self.cli.display()))?;
        if out.status.success() {
            Ok(out)
        } else {
            let stderr = String::from_utf8_lossy(&out.stderr);
            Err(format!(
                "levi-bench {} exited with {}: {}",
                args.join(" "),
                out.status,
                stderr.lines().last().unwrap_or("")
            ))
        }
    }

    /// Checks that this rep printed what the first rep printed.
    fn check_stdout(&mut self, stdout: &[u8], rep: &mut Rep) {
        let digest = stdout_digest(&String::from_utf8_lossy(stdout));
        match self.stdout_digest {
            None => self.stdout_digest = Some(digest),
            Some(d) if d != digest => rep.errors.push("figure output differs between reps".into()),
            Some(_) => {}
        }
    }

    fn untraced_rep(
        &mut self,
        spans: &mut Spans,
        parent: u64,
        rep: &mut Rep,
    ) -> Result<(), String> {
        let json = path_str(&self.work.join("figures.json"))?;
        rep.attempted += 1;
        let cpu = children_cpu_s();
        let span = spans.open(parent, "run all");
        let out = self.cli_ok(&["run", "all", "--quick", "--json", &json]);
        rep.host_s += spans.close(span);
        rep.cpu_s += children_cpu_s() - cpu;
        let out = out?;
        self.check_stdout(&out.stdout, rep);
        let text = std::fs::read_to_string(&json).map_err(|e| format!("{json}: {e}"))?;
        rep.cycles += report_cycles(&text)?;
        self.check_report(spans, parent, &json)
    }

    fn check_report(&self, spans: &mut Spans, parent: u64, path: &str) -> Result<(), String> {
        let span = spans.open(parent, "check-report");
        let checked = self.cli_ok(&["check-report", path]);
        spans.close(span);
        checked.map(drop)
    }

    fn traced_rep(&mut self, spans: &mut Spans, parent: u64, rep: &mut Rep) -> Result<(), String> {
        let telemetry = path_str(&self.work.join("telemetry.jsonl"))?;
        let all = self.work.join("telemetry-all.jsonl");
        let mut dumps = String::new();
        let mut stdout = Vec::new();
        for (i, id) in self.ids.clone().iter().enumerate() {
            rep.attempted += 1;
            let cpu = children_cpu_s();
            let span = spans.open(parent, id);
            let out = self.cli_ok(&["run", id, "--quick", "--telemetry", &telemetry]);
            let s = spans.close(span);
            rep.host_s += s;
            rep.cpu_s += children_cpu_s() - cpu;
            stdout.extend_from_slice(&out?.stdout);
            let text =
                std::fs::read_to_string(&telemetry).map_err(|e| format!("{telemetry}: {e}"))?;
            let phase_ns = add_telemetry(&text, &mut rep.tally)?;
            for (acc, ns) in rep.phase_ns.iter_mut().zip(phase_ns) {
                *acc += ns;
            }
            spans.attr(span, "phases_ns", crate::run::phases_json(&phase_ns));
            dumps.push_str(&text);
            match self.figure_s.get_mut(i) {
                Some((_, acc)) => *acc += s,
                None => self.figure_s.push((id.clone(), s)),
            }
        }
        rep.cycles += rep.tally.cycles;
        self.check_stdout(&stdout, rep);
        std::fs::write(&all, dumps).map_err(|e| format!("{}: {e}", all.display()))?;
        self.check_report(spans, parent, &path_str(&all)?)
    }
}

impl Bench for Figures {
    /// The figures' inputs and golden checksums: every registry workload
    /// at quick scale, built in this process through the same
    /// `build_input` and `golden` calls the simulator workloads time.
    /// (Inside `run all` this work is part of each figure; timing it here
    /// gives the workload a set-up measured like the others, free of
    /// process start-up noise.)
    fn setup(&mut self, spans: &mut Spans, parent: u64) -> Result<Setup, String> {
        if self.ids.is_empty() {
            std::fs::create_dir_all(&self.work)
                .map_err(|e| format!("{}: {e}", self.work.display()))?;
            let out = self.cli_ok(&["list"])?;
            self.ids = String::from_utf8_lossy(&out.stdout)
                .lines()
                .skip(1)
                .filter_map(|l| l.split_whitespace().next().map(str::to_string))
                .collect();
            if self.ids.is_empty() {
                return Err("levi-bench list printed no figures".into());
            }
        }
        let span = spans.open(parent, "build_input");
        let prepared: Vec<_> = REGISTRY
            .iter()
            .map(|w| w.prepare(ScaleKind::Quick))
            .collect();
        let input_s = spans.close(span);
        let span = spans.open(parent, "golden");
        for (w, p) in REGISTRY.iter().zip(&prepared) {
            for label in w.variant_labels() {
                std::hint::black_box(p.golden(label));
            }
        }
        let check_s = spans.close(span);
        Ok(Setup { input_s, check_s })
    }

    fn rep(&mut self, spans: &mut Spans, parent: u64, rep: &mut Rep) {
        let result = if self.traced {
            self.traced_rep(spans, parent, rep)
        } else {
            self.untraced_rep(spans, parent, rep)
        };
        if let Err(e) = result {
            rep.errors.push(e);
        }
        // Per-figure seconds are averaged over timed reps only; the run
        // loop calls `rep` for warm-ups first.
        self.timed_reps += 1;
    }

    fn start_timing(&mut self) {
        self.figure_s.clear();
        self.timed_reps = 0;
    }

    fn finish(&mut self, report: &mut RunReport) {
        if let Some(d) = self.stdout_digest {
            report.digests.push(("stdout".into(), d));
        }
        let reps = f64::from(self.timed_reps.max(1));
        report.figure_s = self
            .figure_s
            .iter()
            .map(|(id, s)| (id.clone(), s / reps))
            .collect();
        report.peak_rss_mb = crate::os::children_peak_rss_mb();
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{} is not UTF-8", p.display()))
}

/// FNV-1a of the figure output, without the lines that print host
/// wall-clock measurements (`micro_substrate`'s `ns/iter` rows).
pub fn stdout_digest(stdout: &str) -> u64 {
    let kept: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.trim_end().ends_with("ns/iter"))
        .collect();
    levi_sim::fnv1a(kept.join("\n").as_bytes())
}

/// Σ `cycles` over the rows of a `run all --json` report.
fn report_cycles(text: &str) -> Result<u64, String> {
    let mut total = 0.0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse(line).map_err(|e| format!("figure report: {e}"))?;
        for row in doc.get("rows").map(Json::as_arr).unwrap_or_default() {
            total += row.get("cycles").and_then(Json::as_num).unwrap_or(0.0);
        }
    }
    Ok(total as u64)
}

/// Adds every run block of a `--telemetry` dump to `tally`, returning
/// the host nanoseconds per simulator phase the dump attributes.
fn add_telemetry(
    text: &str,
    tally: &mut Tally,
) -> Result<[u64; levi_sim::perf::NUM_PHASES], String> {
    let mut phase_ns = [0; levi_sim::perf::NUM_PHASES];
    let mut blocks: Vec<Vec<(String, u64)>> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse(line).map_err(|e| format!("telemetry dump: {e}"))?;
        if doc.get("telemetry").is_some() {
            blocks.push(Vec::new());
            continue;
        }
        let (Some(name), Some(value)) = (
            doc.get("metric").and_then(Json::as_str),
            doc.get("value").and_then(Json::as_num),
        ) else {
            continue;
        };
        if let Some(phase) = name.strip_prefix("host_ns_").and_then(Phase::from_name) {
            phase_ns[phase as usize] += value as u64;
        } else if doc.get("type").and_then(Json::as_str) == Some("counter") {
            let block = blocks
                .last_mut()
                .ok_or("telemetry metric before any header")?;
            block.push((name.to_string(), value as u64));
        }
    }
    for block in &blocks {
        tally.add_run(block.iter().map(|(n, v)| (n.as_str(), *v)));
    }
    Ok(phase_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdout_digest_ignores_wall_clock_rows_only() {
        let a = "fig\n  scan   12.5 ns/iter\nrow 1\n";
        let b = "fig\n  scan   99.1 ns/iter\nrow 1\n";
        assert_eq!(stdout_digest(a), stdout_digest(b));
        assert_ne!(stdout_digest(a), stdout_digest("fig\nrow 2\n"));
    }

    #[test]
    fn report_cycles_sums_rows() {
        let text = "{\"figure\":\"a\",\"rows\":[{\"cycles\":10},{\"cycles\":5}]}\n\
                    {\"table\":\"t\"}\n{\"manifest\":{}}\n";
        assert_eq!(report_cycles(text), Ok(15));
    }

    #[test]
    fn telemetry_blocks_become_runs() {
        let dump = "{\"telemetry\":{\"version\":1,\"scope\":\"a\"}}\n\
                    {\"metric\":\"cycles\",\"type\":\"counter\",\"value\":100}\n\
                    {\"metric\":\"invokes\",\"type\":\"counter\",\"value\":3}\n\
                    {\"metric\":\"host_ns_exec\",\"type\":\"gauge\",\"value\":2000}\n\
                    {\"telemetry\":{\"version\":1,\"scope\":\"b\"}}\n\
                    {\"metric\":\"cycles\",\"type\":\"counter\",\"value\":50}\n";
        let mut t = Tally::default();
        let ns = add_telemetry(dump, &mut t).unwrap();
        assert_eq!((t.machines, t.cycles, t.invokes), (2, 150, 3));
        assert_eq!(ns[Phase::Exec as usize], 2000);
        assert!(add_telemetry(
            "{\"metric\":\"cycles\",\"type\":\"counter\",\"value\":1}",
            &mut t
        )
        .is_err());
    }
}
