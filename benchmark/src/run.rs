//! `levi-benchmark run`: one workload in one process.
//!
//! The process sets the workload up several times (set-up time is the
//! median), runs untimed warm-up reps, then timed reps, checking every
//! output, and prints each metric as `workload metric value unit` followed
//! by one JSON result line. The untraced build prints the end-to-end
//! metrics; the traced build first runs the untraced build on the same
//! input as a reference, then prints the per-layer metrics and writes its
//! spans as JSON lines.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use levi_sim::perf::NUM_PHASES;
use levi_sim::Phase;
use levi_workloads::ScaleKind;

use crate::figures::Figures;
use crate::json::{obj, parse, Json};
use crate::report::{declared_values, RunReport, Tally};
use crate::sim::Sim;

/// A workload of the benchmark: its name (as declared in `BENCHMARK.json`)
/// and how many untimed and timed reps one process runs in a set round.
pub struct Spec {
    pub name: &'static str,
    pub warmup: u32,
    pub reps: u32,
}

/// The workloads, in set-round order. Why each exists is recorded in
/// `BENCHMARK.json` and the README.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "phi-ndc",
        warmup: 0,
        reps: 1,
    },
    Spec {
        name: "hashtable-probe",
        warmup: 2,
        reps: 4,
    },
    Spec {
        name: "decompress-exec",
        warmup: 3,
        reps: 6,
    },
    Spec {
        name: "figures-quick",
        warmup: 1,
        reps: 3,
    },
];

pub fn spec(name: &str) -> Result<&'static Spec, String> {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// The two parts of one set-up: building the input, and computing the
/// golden results the runs are checked against.
pub struct Setup {
    pub input_s: f64,
    pub check_s: f64,
}

/// What one rep did.
#[derive(Default)]
pub struct Rep {
    pub attempted: u64,
    pub errors: Vec<String>,
    /// Seconds inside the workload's calls.
    pub host_s: f64,
    /// CPU seconds of those calls, on every thread.
    pub cpu_s: f64,
    pub cycles: u64,
    pub tally: Tally,
    pub phase_ns: [u64; NUM_PHASES],
}

/// A workload the run loop drives.
pub trait Bench {
    /// Builds the input and the reference results.
    fn setup(&mut self, spans: &mut Spans, parent: u64) -> Result<Setup, String>;
    /// Runs every operation of the workload once.
    fn rep(&mut self, spans: &mut Spans, parent: u64, rep: &mut Rep);
    /// Called after the warm-ups, before the first timed rep.
    fn start_timing(&mut self) {}
    /// Records digests, checksums, per-figure times and peak memory.
    fn finish(&mut self, report: &mut RunReport);
}

/// Spans around every call the benchmark makes into a layer, kept in
/// memory and written as JSON lines when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    parent: u64,
    name: String,
    start: Instant,
    end: Option<Instant>,
    attrs: Vec<(String, Json)>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent` (0 for none) and returns its id. The
    /// clock starts last, so the bookkeeping is outside the span.
    pub fn open(&mut self, parent: u64, name: &str) -> u64 {
        self.spans.push(Span {
            parent,
            name: name.to_string(),
            start: self.origin,
            end: None,
            attrs: Vec::new(),
        });
        let id = self.spans.len();
        self.spans[id - 1].start = Instant::now();
        id as u64
    }

    /// Closes span `id` and returns its length in seconds.
    pub fn close(&mut self, id: u64) -> f64 {
        let end = Instant::now();
        let span = &mut self.spans[id as usize - 1];
        span.end = Some(end);
        (end - span.start).as_secs_f64()
    }

    pub fn attr(&mut self, id: u64, key: &str, value: Json) {
        self.spans[id as usize - 1]
            .attrs
            .push((key.to_string(), value));
    }

    fn to_jsonl(&self, workload: &str) -> String {
        let ns = |t: Instant| Json::from((t - self.origin).as_nanos() as u64);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut members = vec![
                ("workload".to_string(), Json::from(workload)),
                ("span".to_string(), Json::from(i as u64 + 1)),
                ("parent".to_string(), Json::from(s.parent)),
                ("name".to_string(), Json::from(s.name.as_str())),
                ("start_ns".to_string(), ns(s.start)),
                ("end_ns".to_string(), s.end.map_or(Json::Null, ns)),
            ];
            members.extend(s.attrs.iter().cloned());
            out.push_str(&Json::Obj(members).render());
            out.push('\n');
        }
        out
    }
}

/// Host nanoseconds per simulator phase, keyed by phase name.
pub fn phases_json(ns: &[u64; NUM_PHASES]) -> Json {
    obj(Phase::ALL
        .iter()
        .map(|p| (p.name(), Json::from(ns[*p as usize]))))
}

/// How long the timed part of a run lasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Length {
    /// Exactly this many timed reps.
    Reps(u32),
    /// Timed reps while the next one is expected to end within this many
    /// seconds (always at least one).
    Seconds(f64),
}

/// The arguments of `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: Option<u64>,
    pub scale: ScaleKind,
    pub length: Length,
    pub warmup: Option<u32>,
    pub traced: bool,
    pub cli: Option<PathBuf>,
    pub untraced: Option<PathBuf>,
    pub untraced_cli: Option<PathBuf>,
    pub report: Option<PathBuf>,
    pub out: PathBuf,
}

impl RunArgs {
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut a = RunArgs {
            workload: String::new(),
            seed: None,
            scale: ScaleKind::Paper,
            length: Length::Seconds(10.0),
            warmup: None,
            traced: false,
            cli: None,
            untraced: None,
            untraced_cli: None,
            report: None,
            out: PathBuf::from("benchmark/out"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?.clone(),
                "--seed" => a.seed = Some(number(flag, value()?)?),
                "--seconds" => {
                    let s: f64 = number(flag, value()?)?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    a.length = Length::Seconds(s);
                }
                "--reps" => a.length = Length::Reps(number::<u32>(flag, value()?)?.max(1)),
                "--warmup" => a.warmup = Some(number(flag, value()?)?),
                "--scale" => a.scale = scale(value()?)?,
                "--trace" => {
                    a.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--cli" => a.cli = Some(value()?.into()),
                "--untraced" => a.untraced = Some(value()?.into()),
                "--untraced-cli" => a.untraced_cli = Some(value()?.into()),
                "--report" => a.report = Some(value()?.into()),
                "--out" => a.out = value()?.into(),
                other => return Err(format!("unknown option {other}")),
            }
        }
        spec(&a.workload)?;
        Ok(a)
    }

    /// The command line [`RunArgs::parse`] reads back into these
    /// arguments, without `--report` (set by [`run_child`]).
    fn to_args(&self) -> Vec<String> {
        let mut v: Vec<String> = [
            "--workload",
            &self.workload,
            "--scale",
            scale_name(self.scale),
        ]
        .map(String::from)
        .into();
        v.extend(["--trace".into(), if self.traced { "1" } else { "0" }.into()]);
        v.extend(match self.length {
            Length::Reps(n) => ["--reps".into(), n.to_string()],
            Length::Seconds(s) => ["--seconds".into(), s.to_string()],
        });
        let paths = [
            ("--cli", &self.cli),
            ("--untraced", &self.untraced),
            ("--untraced-cli", &self.untraced_cli),
            ("--out", &Some(self.out.clone())),
        ];
        for (flag, p) in paths {
            if let Some(p) = p {
                v.extend([flag.into(), p.display().to_string()]);
            }
        }
        for (flag, n) in [
            ("--seed", self.seed),
            ("--warmup", self.warmup.map(u64::from)),
        ] {
            if let Some(n) = n {
                v.extend([flag.into(), n.to_string()]);
            }
        }
        v
    }
}

/// Runs `bin run` with `a` as a child process, its stdout discarded, and
/// returns the report it writes.
pub fn run_child(bin: &Path, a: &RunArgs) -> Result<RunReport, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let path = a
        .out
        .join(format!("report-{}-{}.json", a.workload, std::process::id()));
    let status = Command::new(bin)
        .arg("run")
        .args(a.to_args())
        .arg("--report")
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let text = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    let text = text.map_err(|e| {
        format!(
            "{} exited with {status} and wrote no report: {e}",
            a.workload
        )
    })?;
    RunReport::from_json(&parse(&text)?)
}

pub fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
}

fn scale(v: &str) -> Result<ScaleKind, String> {
    match v {
        "paper" => Ok(ScaleKind::Paper),
        "test" => Ok(ScaleKind::Test),
        other => Err(format!("--scale takes paper or test, not {other:?}")),
    }
}

fn scale_name(kind: ScaleKind) -> &'static str {
    match kind {
        ScaleKind::Paper => "paper",
        _ => "test",
    }
}

/// Runs one workload process and returns its exit code.
pub fn main(args: &[String]) -> Result<i32, String> {
    let a = RunArgs::parse(args)?;
    // Headline numbers must come from the untraced build and per-layer
    // numbers from the traced one; refuse the other pairings.
    if a.traced != cfg!(feature = "traced") {
        return Err(if a.traced {
            "--trace 1 needs the build with --features traced".into()
        } else {
            "--trace 0 needs the build without --features traced".into()
        });
    }
    let report = measure(&a)?;
    if let Some(path) = &a.report {
        std::fs::write(path, report.to_json().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for e in &report.errors {
        eprintln!("{}: {e}", report.workload);
    }
    let values = declared_values(&report)?;
    for (m, v) in &values {
        println!("{} {} {v} {}", report.workload, m.name, m.unit);
    }
    for (id, s) in &report.figure_s {
        println!("{} bench.fig_s.{id} {s} s", report.workload);
    }
    let metrics = obj(values.iter().map(|(m, v)| {
        let value = obj([
            ("value", Json::from(*v)),
            ("unit", Json::from(m.unit.as_str())),
        ]);
        (m.name.clone(), value)
    }));
    let result = obj([
        ("correct", Json::from(report.correct())),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(if report.correct() { 0 } else { 1 })
}

/// Sets up, warms up and times one workload.
fn measure(a: &RunArgs) -> Result<RunReport, String> {
    let spec = spec(&a.workload)?;
    let warmup = a.warmup.unwrap_or(spec.warmup);
    let mut report = RunReport {
        workload: a.workload.clone(),
        scale: scale_name(a.scale).into(),
        traced: a.traced,
        ..RunReport::default()
    };
    let reference = if a.traced {
        Some(reference(a, warmup)?)
    } else {
        None
    };
    let work = a
        .out
        .join(format!("work-{}-{}", a.workload, std::process::id()));
    let mut bench: Box<dyn Bench> = if a.workload == "figures-quick" {
        let cli = a.cli.clone().ok_or("figures-quick needs --cli")?;
        Box::new(Figures::new(cli, a.traced, work))
    } else {
        let (sim, seed) = Sim::open(&a.workload, a.scale, a.seed)?;
        report.seed = Some(seed);
        Box::new(sim)
    };
    let mut spans = Spans::new();

    // Set up several times and keep the median, so one slow set-up does
    // not decide the metric. The last set-up's input is the one timed.
    let setup_start = Instant::now();
    while report.setup_s.len() < 5
        || (setup_start.elapsed() < Duration::from_secs(1) && report.setup_s.len() < 101)
    {
        let span = spans.open(0, "setup");
        let s = bench.setup(&mut spans, span)?;
        spans.close(span);
        report.setup_s.push(s.input_s + s.check_s);
        report.build_input_s.push(s.input_s);
        report.golden_s.push(s.check_s);
    }

    let mut run_rep = |bench: &mut Box<dyn Bench>, report: &mut RunReport, timed: bool| {
        let span = spans.open(0, if timed { "rep" } else { "warmup" });
        let mut rep = Rep::default();
        bench.rep(&mut spans, span, &mut rep);
        let rep_s = spans.close(span);
        report.attempted += rep.attempted;
        report.errors.append(&mut rep.errors);
        if timed {
            report.host_s.push(rep.host_s);
            report.cpu_s.push(rep.cpu_s);
            report
                .kcycles_per_s
                .push(rep.cycles as f64 / 1e3 / rep.host_s);
            report.rep_s.push(rep_s);
            for (acc, ns) in report.phase_ns.iter_mut().zip(rep.phase_ns) {
                *acc += ns as f64;
            }
            if report.host_s.len() == 1 {
                report.tally = rep.tally;
            } else if rep.tally != report.tally {
                report
                    .errors
                    .push("simulated work differs between reps".into());
            }
        }
        rep_s
    };
    for _ in 0..warmup {
        run_rep(&mut bench, &mut report, false);
    }
    bench.start_timing();
    let timed_start = Instant::now();
    let mut longest = 0.0f64;
    loop {
        longest = longest.max(run_rep(&mut bench, &mut report, true));
        let done = match a.length {
            Length::Reps(n) => report.host_s.len() >= n as usize,
            Length::Seconds(s) => timed_start.elapsed().as_secs_f64() + longest > s,
        };
        if done {
            break;
        }
    }
    let reps = report.host_s.len() as f64;
    for ns in &mut report.phase_ns {
        *ns /= reps;
    }
    bench.finish(&mut report);

    if let Some(r) = reference {
        report.attempted += r.attempted;
        report
            .errors
            .extend(r.errors.iter().map(|e| format!("untraced: {e}")));
        report.untraced_host_s = Some(crate::summary::median(&r.host_s));
        compare_passes(&r, &mut report);
        let path = a.out.join(format!("trace-{}.jsonl", a.workload));
        std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
        std::fs::write(&path, spans.to_jsonl(&a.workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Runs the untraced build on the same input, for the trace overhead and
/// the check that tracing changed no simulated statistic.
fn reference(a: &RunArgs, warmup: u32) -> Result<RunReport, String> {
    let bin = a
        .untraced
        .as_ref()
        .ok_or("--trace 1 needs --untraced BIN")?;
    let child = RunArgs {
        traced: false,
        warmup: Some(warmup),
        length: match a.length {
            // Half the time, so the traced run still fits its budget.
            Length::Seconds(s) => Length::Seconds(s / 2.0),
            reps => reps,
        },
        cli: a.untraced_cli.clone(),
        untraced: None,
        untraced_cli: None,
        report: None,
        ..a.clone()
    };
    run_child(bin, &child)
}

/// Tracing must change no simulated statistic: the digests and the exact
/// counts of the two passes must agree.
fn compare_passes(untraced: &RunReport, traced: &mut RunReport) {
    if untraced.digests != traced.digests {
        traced
            .errors
            .push("a digest differs between the untraced and traced passes".into());
    }
    // The untraced `figures-quick` pass reads no counters (no telemetry).
    if untraced.tally != Tally::default() {
        for ((name, u), (_, t)) in untraced.tally.exact().iter().zip(traced.tally.exact()) {
            if *u != t {
                traced
                    .errors
                    .push(format!("{name} is {u} untraced but {t} traced"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declared_workloads_are_the_ones_run() {
        let declared = &crate::catalogue::catalogue().workloads;
        let run: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(declared, &run);
    }

    #[test]
    fn run_arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = RunArgs::parse(&args("--workload phi-ndc --seed 9 --seconds 2.5 --trace 1"))
            .expect("valid");
        assert_eq!(a.seed, Some(9));
        assert!(a.traced);
        assert!(matches!(a.length, Length::Seconds(s) if s == 2.5));
        let full = RunArgs {
            warmup: Some(2),
            cli: Some("bin/levi-bench".into()),
            untraced: Some("u/levi-benchmark".into()),
            ..a.clone()
        };
        for a in [a, full] {
            assert_eq!(RunArgs::parse(&a.to_args()), Ok(a));
        }
        for bad in [
            "--workload nope",
            "--workload phi-ndc --seconds 0",
            "--workload phi-ndc --seconds nan",
            "--workload phi-ndc --trace 2",
            "--workload phi-ndc --seed",
            "--workload phi-ndc --scale huge",
            "--workload phi-ndc --frobnicate",
        ] {
            assert!(RunArgs::parse(&args(bad)).is_err(), "{bad} accepted");
        }
    }
}
