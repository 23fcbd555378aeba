//! `levi-benchmark set`: one set of measurements of every workload.
//!
//! A set is 5 interleaved rounds of the untraced build, each running every
//! workload once, one process at a time, so a burst of noise on a shared
//! host spreads over all workloads instead of one workload's samples.
//! One traced round follows. The set checks every output, compares the
//! exact counts and digests against the pins in `benchmark/expected/`,
//! and writes one JSON result.

use std::path::{Path, PathBuf};

use levi_workloads::ScaleKind;

use crate::catalogue::catalogue;
use crate::json::{hex, obj, parse, parse_hex, Json};
use crate::report::{e2e_samples, exact_values, layer_value, RunReport};
use crate::run::{number, run_child, Length, RunArgs, Spec, SPECS};
use crate::summary::Summary;

/// Rounds per set.
const ROUNDS: u32 = 5;

/// The pins, relative to the repository root.
const EXPECTED: &str = "benchmark/expected";

struct SetArgs {
    seed: Option<u64>,
    smoke: bool,
    traced: PathBuf,
    cli: PathBuf,
    traced_cli: PathBuf,
    /// The result file; reports and spans go to its directory.
    out: PathBuf,
    update_expected: bool,
    commit: String,
    dirty: bool,
}

impl SetArgs {
    fn parse(args: &[String]) -> Result<SetArgs, String> {
        let mut a = SetArgs {
            seed: None,
            smoke: false,
            traced: PathBuf::new(),
            cli: PathBuf::new(),
            traced_cli: PathBuf::new(),
            out: PathBuf::new(),
            update_expected: false,
            commit: "unknown".into(),
            dirty: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--seed" => a.seed = Some(number(flag, value()?)?),
                "--smoke" => a.smoke = true,
                "--traced" => a.traced = value()?.into(),
                "--cli" => a.cli = value()?.into(),
                "--traced-cli" => a.traced_cli = value()?.into(),
                "--out" => a.out = value()?.into(),
                "--update-expected" => a.update_expected = true,
                "--commit" => a.commit = value()?.clone(),
                "--dirty" => a.dirty = value()? == "1",
                other => return Err(format!("unknown option {other}")),
            }
        }
        for (flag, p) in [
            ("--traced", &a.traced),
            ("--cli", &a.cli),
            ("--traced-cli", &a.traced_cli),
            ("--out", &a.out),
        ] {
            if p.as_os_str().is_empty() {
                return Err(format!("set needs {flag}"));
            }
        }
        Ok(a)
    }

    fn rounds(&self) -> u32 {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    /// Runs one workload process and returns its report.
    fn run(&self, spec: &Spec, traced: bool) -> Result<RunReport, String> {
        let me = std::env::current_exe().map_err(|e| e.to_string())?;
        let (warmup, reps) = if self.smoke {
            (0, 1)
        } else {
            (spec.warmup, spec.reps)
        };
        let args = RunArgs {
            workload: spec.name.into(),
            seed: self.seed,
            scale: if self.smoke {
                ScaleKind::Test
            } else {
                ScaleKind::Paper
            },
            length: Length::Reps(reps),
            warmup: Some(warmup),
            traced,
            cli: Some(if traced { &self.traced_cli } else { &self.cli }.clone()),
            untraced: traced.then(|| me.clone()),
            untraced_cli: traced.then(|| self.cli.clone()),
            report: None,
            out: self
                .out
                .parent()
                .map_or_else(|| PathBuf::from("."), Path::to_path_buf),
        };
        run_child(if traced { &self.traced } else { &me }, &args)
    }
}

/// One workload's results in a set.
struct WorkloadResult {
    spec: &'static Spec,
    untraced: Vec<RunReport>,
    traced: RunReport,
    errors: Vec<String>,
}

impl WorkloadResult {
    fn attempted(&self) -> u64 {
        self.untraced.iter().map(|r| r.attempted).sum::<u64>() + self.traced.attempted
    }

    fn failed(&self) -> u64 {
        self.untraced.iter().map(|r| r.failed()).sum::<u64>() + self.traced.failed()
    }

    fn e2e(&self) -> Vec<(String, String, Summary)> {
        catalogue()
            .end_to_end
            .iter()
            .map(|m| {
                let samples: Vec<f64> = self
                    .untraced
                    .iter()
                    .flat_map(|r| e2e_samples(&m.name, r).expect("declared metrics are defined"))
                    .collect();
                (m.name.clone(), m.unit.clone(), Summary::of(&samples))
            })
            .collect()
    }

    /// The pins: digests and checksums of the untraced pass, and the
    /// exact counts of the traced pass (which equal the untraced ones,
    /// checked by the traced process).
    fn pins(&self) -> Json {
        let first = &self.untraced[0];
        let pairs = |v: &[(String, u64)]| obj(v.iter().map(|(k, d)| (k.clone(), hex(*d))));
        obj([
            ("workload", Json::from(self.spec.name)),
            ("seed", first.seed.map_or(Json::Null, Json::from)),
            ("digests", pairs(&first.digests)),
            ("checksums", pairs(&first.checksums)),
            (
                "exact",
                obj(exact_values(&self.traced)
                    .into_iter()
                    .map(|(n, v)| (n, Json::from(v)))),
            ),
        ])
    }

    fn to_json(&self) -> Json {
        let attempted = self.attempted();
        let e2e = self
            .e2e()
            .into_iter()
            .map(|(name, unit, s)| (name, s.to_json(&unit)));
        let layers = catalogue().per_layer.iter().filter_map(|m| {
            Some((
                m.name.clone(),
                Json::from(layer_value(&m.name, &self.traced)?),
            ))
        });
        obj([
            ("name", Json::from(self.spec.name)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(self.failed())),
            (
                "error_rate",
                Json::from(self.failed() as f64 / attempted.max(1) as f64),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::from(e.as_str())).collect()),
            ),
            ("e2e", obj(e2e)),
            ("pins", self.pins()),
            ("layers", obj(layers)),
            (
                "figure_s",
                obj(self
                    .traced
                    .figure_s
                    .iter()
                    .map(|(id, s)| (id.clone(), Json::from(*s)))),
            ),
        ])
    }
}

/// Compares a workload's pins with the committed ones, naming each drift.
fn drift(expected: &Json, actual: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for section in ["digests", "checksums", "exact"] {
        let want = expected.get(section).map(Json::members).unwrap_or_default();
        let got = actual.get(section).map(Json::members).unwrap_or_default();
        for (key, w) in want {
            let g = got.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let same = match (w, g) {
                (Json::Str(_), Some(g)) => parse_hex(w) == parse_hex(g),
                (w, Some(g)) => w == g,
                (_, None) => false,
            };
            if !same {
                out.push(format!(
                    "{section} {key} drifted from {} to {} (a behaviour change, not noise)",
                    w.render(),
                    g.map_or("nothing".into(), Json::render)
                ));
            }
        }
        for (key, g) in got {
            if !want.iter().any(|(k, _)| k == key) {
                out.push(format!("{section} {key} = {} has no pin", g.render()));
            }
        }
    }
    out
}

pub fn main(args: &[String]) -> Result<i32, String> {
    let a = SetArgs::parse(args)?;
    let mut untraced: Vec<Vec<RunReport>> = vec![Vec::new(); SPECS.len()];
    for round in 1..=a.rounds() {
        for (spec, reports) in SPECS.iter().zip(&mut untraced) {
            let r = a.run(spec, false)?;
            eprintln!(
                "round {round}/{}: {} host_s {:?}",
                a.rounds(),
                spec.name,
                r.host_s
            );
            reports.push(r);
        }
    }
    let mut results = Vec::new();
    for (spec, reports) in SPECS.iter().zip(untraced) {
        let traced = a.run(spec, true)?;
        eprintln!("traced: {} host_s {:?}", spec.name, traced.host_s);
        let mut errors: Vec<String> = reports
            .iter()
            .chain([&traced])
            .flat_map(|r| r.errors.iter().cloned())
            .collect();
        let first = &reports[0];
        if reports
            .iter()
            .any(|r| r.digests != first.digests || r.tally != first.tally)
        {
            errors.push("simulated work differs between rounds".into());
        }
        results.push(WorkloadResult {
            spec,
            untraced: reports,
            traced,
            errors,
        });
    }

    // Pins hold for the default seeds at paper scale only.
    if a.smoke || a.seed.is_some() {
        eprintln!("pins not checked: they hold for the default seeds at paper scale");
    } else {
        for w in &mut results {
            let path = Path::new(EXPECTED).join(format!("{}.json", w.spec.name));
            let pins = w.pins();
            if a.update_expected {
                std::fs::create_dir_all(EXPECTED)
                    .and_then(|()| std::fs::write(&path, pins.render_pretty()))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                continue;
            }
            let expected = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| parse(&t))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            w.errors.extend(drift(&expected, &pins));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = obj([
        ("benchmark", Json::from("levi-benchmark")),
        ("commit", Json::from(a.commit.as_str())),
        ("dirty", Json::from(a.dirty)),
        ("nproc", Json::from(nproc)),
        (
            "features",
            obj([
                ("untraced", Json::from("levi-bench --no-default-features")),
                (
                    "traced",
                    Json::from("--features traced (levi-sim/self-profile); levi-bench --features self-profile"),
                ),
            ]),
        ),
        ("scale", Json::from(if a.smoke { "test" } else { "paper" })),
        ("seed", a.seed.map_or(Json::Null, Json::from)),
        ("rounds", Json::from(u64::from(a.rounds()))),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    std::fs::write(&a.out, doc.render_pretty()).map_err(|e| format!("{}: {e}", a.out.display()))?;

    let mut failed = false;
    for w in &results {
        for (name, unit, s) in w.e2e() {
            println!(
                "{} {name} {} {unit} n={} q1={} q3={}",
                w.spec.name,
                s.median,
                s.samples.len(),
                s.q1,
                s.q3
            );
        }
        for m in &catalogue().per_layer {
            if let Some(v) = layer_value(&m.name, &w.traced) {
                println!("{} {} {v} {}", w.spec.name, m.name, m.unit);
            }
        }
        for (id, s) in &w.traced.figure_s {
            println!("{} bench.fig_s.{id} {s} s", w.spec.name);
        }
        println!(
            "{} error_rate {} ratio ({} of {})",
            w.spec.name,
            w.failed() as f64 / w.attempted().max(1) as f64,
            w.failed(),
            w.attempted()
        );
        for e in &w.errors {
            eprintln!("{}: {e}", w.spec.name);
            failed = true;
        }
    }
    eprintln!("wrote {}", a.out.display());
    Ok(if failed { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_names_every_changed_missing_and_new_pin() {
        let want = parse(
            r#"{"digests":{"Leviathan":"0x00000000000000ff"},"exact":{"sched.cycles":10,"noc.flit_hops":3}}"#,
        )
        .unwrap();
        let same = parse(
            r#"{"digests":{"Leviathan":"0x00000000000000ff"},"exact":{"sched.cycles":10,"noc.flit_hops":3}}"#,
        )
        .unwrap();
        assert!(drift(&want, &same).is_empty());
        let got = parse(
            r#"{"digests":{"Leviathan":"0x00000000000000fe"},"exact":{"sched.cycles":11,"dram.accesses":1}}"#,
        )
        .unwrap();
        let d = drift(&want, &got);
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d[0].contains("digests Leviathan drifted"));
        assert!(d[1].contains("sched.cycles drifted from 10 to 11"));
        assert!(d[2].contains("noc.flit_hops drifted from 3 to nothing"));
        assert!(d[3].contains("dram.accesses = 1 has no pin"));
    }
}
