//! `levi-bench` — the figure runner.
//!
//! One binary regenerates any figure or table of the paper's evaluation
//! from the figure registry:
//!
//! ```text
//! levi-bench list
//! levi-bench run <figure|all> [--quick] [--serial] [--json PATH]
//!                             [--telemetry PATH] [--resume PATH]
//!                             [--checkpoint-every N] [--snapshot-verify]
//!                             [--fault-plan SEED[:HORIZON]] [--filter VARIANT]
//! levi-bench check-report <PATH>
//! ```
//!
//! `run all --json PATH` truncates `PATH`, appends one JSON line per
//! figure, and finishes with a roll-up manifest line; `check-report`
//! validates such a file (parses, one manifest, every manifest figure
//! present, every registry workload covered).
//!
//! `run ... --resume PATH` journals every completed sweep variant to
//! `PATH` and, when the journal already holds records (from a run that was
//! killed or crashed part-way), loads them instead of re-running: the
//! merged report is identical to an uninterrupted run, because every run
//! is a pure function of its configuration. The journal records the scale
//! and fault plan it was written under, and resuming it with others fails.
//! `--checkpoint-every N` arms the in-simulation snapshot hook, and
//! `--snapshot-verify` restores each run's last checkpoint afterwards and
//! replays it to the end, failing on divergence.
//!
//! `run ... --telemetry PATH` additionally records invoke-lifecycle spans
//! and trace events in every run and appends one self-describing
//! JSON-lines registry dump per run to `PATH` (see
//! `levi_sim::Telemetry::to_jsonl`); the printed tables are byte-identical
//! with or without the flag. `check-report` recognizes such dumps by their
//! `{"telemetry":...}` header lines and validates them structurally.

use std::sync::{Arc, Mutex};

use levi_bench::figures::ALL;
use levi_bench::journal::{Journal, RunParams};
use levi_bench::json::{parse, Json};
use levi_bench::runner::{find_figure, manifest_json, run_figure, RunCtx};
use levi_bench::Sink;
use levi_workloads::harness::FaultSpec;
use levi_workloads::REGISTRY;

fn usage() -> ! {
    eprintln!("usage: levi-bench <command>");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  list                         list figures and the workloads they exercise");
    eprintln!("  run <figure|all> [options]   regenerate one figure, or all in order");
    eprintln!("  check-report <path>          validate a --json report or --telemetry dump");
    eprintln!();
    eprintln!("run options:");
    eprintln!("  --quick              reduced scales");
    eprintln!("  --serial             run each sweep's jobs one after another");
    eprintln!("  --json PATH          append per-figure JSON lines to PATH");
    eprintln!("                       ('all' truncates PATH and adds a manifest)");
    eprintln!("  --telemetry PATH     record spans + traces in every run and dump");
    eprintln!("                       the full telemetry registry to PATH (JSONL);");
    eprintln!("                       printed output is identical with or without");
    eprintln!("  --resume PATH        journal completed variants to PATH and skip");
    eprintln!("                       the ones already on record (crash recovery;");
    eprintln!("                       --quick and --fault-plan must match the journal)");
    eprintln!("  --checkpoint-every N snapshot the machine every N cycles");
    eprintln!("  --snapshot-verify    restore each run's last checkpoint and replay");
    eprintln!("                       it to the end; fail on divergence");
    eprintln!("  --fault-plan SEED[:HORIZON]");
    eprintln!("                       inject a seeded fault plan into every run");
    eprintln!("  --filter VARIANT     only run variants whose label contains VARIANT");
    eprintln!("                       (baselines always run; knob sweeps ignore this)");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("levi-bench: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("check-report") => cmd_check(&args[1..]),
        _ => usage(),
    }
}

fn cmd_list() {
    println!("{:<22} {:<28} about", "figure", "workloads");
    for f in ALL {
        println!(
            "{:<22} {:<28} {}",
            f.id,
            if f.workloads.is_empty() {
                "-".to_string()
            } else {
                f.workloads.join(", ")
            },
            f.about
        );
    }
}

fn parse_fault_plan(spec: &str) -> FaultSpec {
    let (seed_s, horizon_s) = match spec.split_once(':') {
        Some((s, h)) => (s, Some(h)),
        None => (spec, None),
    };
    let seed = seed_s
        .parse()
        .unwrap_or_else(|_| fail(&format!("--fault-plan: bad seed {seed_s:?}")));
    let mut fault = FaultSpec::new(seed);
    if let Some(h) = horizon_s {
        fault.horizon = h
            .parse()
            .unwrap_or_else(|_| fail(&format!("--fault-plan: bad horizon {h:?}")));
        if fault.horizon == 0 {
            fail("--fault-plan: horizon must be nonzero");
        }
    }
    fault
}

fn cmd_run(args: &[String]) {
    let mut target = None;
    let mut ctx = RunCtx::default();
    let mut json: Option<String> = None;
    let mut telemetry: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--serial" => ctx.serial = true,
            "--json" => json = Some(value("--json")),
            "--telemetry" => telemetry = Some(value("--telemetry")),
            "--resume" => resume = Some(value("--resume")),
            "--checkpoint-every" => {
                let v = value("--checkpoint-every");
                ctx.env.checkpoint_every = v.parse().unwrap_or_else(|_| {
                    fail(&format!("--checkpoint-every: bad cycle count {v:?}"))
                });
            }
            "--snapshot-verify" => ctx.env.snapshot_verify = true,
            "--fault-plan" => ctx.env.fault = Some(parse_fault_plan(&value("--fault-plan"))),
            "--filter" => ctx.filter = Some(value("--filter")),
            other if other.starts_with('-') => fail(&format!("unknown option {other}")),
            other => {
                if target.replace(other.to_string()).is_some() {
                    fail("run takes one figure (or 'all')");
                }
            }
        }
    }
    let Some(target) = target else {
        fail("run needs a figure id (see 'levi-bench list') or 'all'");
    };

    let figures: Vec<_> = if target == "all" {
        ALL.iter().collect()
    } else {
        let Some(fig) = find_figure(&target) else {
            fail(&format!("unknown figure {target:?}; see 'levi-bench list'"));
        };
        vec![fig]
    };

    // Open every output before any simulation starts, so a bad path or a
    // journal mismatch fails fast.
    let open = |flag: &str, path: &str, truncate: bool| {
        Sink::open(path, truncate).unwrap_or_else(|e| fail(&format!("{flag} {path}: {e}")))
    };
    // `all` starts a fresh roll-up; a single figure appends to the report.
    ctx.json = json.map(|path| open("--json", &path, target == "all"));
    // Each invocation starts a fresh dump; runs append blocks.
    ctx.telemetry = telemetry.map(|path| open("--telemetry", &path, true));
    ctx.env.telemetry = ctx.telemetry.is_some();
    if let Some(path) = &resume {
        let params = RunParams {
            quick: ctx.quick,
            fault: ctx.env.fault,
        };
        let journal =
            Journal::open(path, params).unwrap_or_else(|e| fail(&format!("--resume {path}: {e}")));
        if !journal.is_empty() {
            eprintln!(
                "levi-bench: resuming from {path}: {} completed variant(s) on record",
                journal.len()
            );
        }
        ctx.journal = Some(Arc::new(Mutex::new(journal)));
    }

    for fig in figures {
        run_figure(fig, &ctx);
    }
    if let (Some(json), "all") = (&ctx.json, target.as_str()) {
        json.line(&manifest_json(ctx.quick));
    }
}

fn cmd_check(args: &[String]) {
    let [path] = args else {
        fail("check-report takes exactly one path");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));

    // A telemetry dump announces itself with a `{"telemetry":...}` header
    // on its first line; everything else is a figure report.
    if let Some(first) = text.lines().find(|l| !l.trim().is_empty()) {
        if parse(first)
            .ok()
            .is_some_and(|doc| doc.get("telemetry").is_some())
        {
            check_telemetry(path, &text);
            return;
        }
    }

    let mut figures_seen = Vec::new();
    let mut manifest = None;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let doc =
            parse(line).unwrap_or_else(|e| fail(&format!("{path}:{}: invalid JSON: {e}", i + 1)));
        if let Some(fig) = doc.get("figure").and_then(Json::as_str) {
            figures_seen.push(fig.to_string());
        } else if let Some(m) = doc.get("manifest") {
            if manifest.replace(m.clone()).is_some() {
                fail(&format!("{path}: more than one manifest line"));
            }
        } else {
            fail(&format!(
                "{path}:{}: line is neither a figure nor a manifest",
                i + 1
            ));
        }
    }

    let Some(manifest) = manifest else {
        fail(&format!(
            "{path}: no manifest line (reports come from 'levi-bench run all --json')"
        ));
    };
    let figures = manifest
        .get("figures")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{path}: manifest has no figures array")));
    let mut covered_workloads = Vec::new();
    for fig in figures {
        let id = fig
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{path}: manifest figure without id")));
        if !figures_seen.iter().any(|seen| seen == id) {
            fail(&format!(
                "{path}: manifest figure {id:?} emitted no JSON line"
            ));
        }
        for w in fig.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(name) = w.as_str() {
                covered_workloads.push(name.to_string());
            }
        }
    }
    for fig in &figures_seen {
        if !figures
            .iter()
            .any(|f| f.get("id").and_then(Json::as_str) == Some(fig))
        {
            fail(&format!("{path}: figure {fig:?} missing from the manifest"));
        }
    }
    for w in REGISTRY {
        if !covered_workloads.iter().any(|c| c == w.name()) {
            fail(&format!(
                "{path}: registry workload {:?} covered by no figure",
                w.name()
            ));
        }
    }
    println!(
        "report OK: {} lines, {} figures, {} registry workloads covered",
        lines,
        figures.len(),
        REGISTRY.len()
    );
}

/// Structurally validates a `--telemetry` registry dump: every line
/// parses, every line is a known kind, every block starts with a
/// version-1 header carrying a scope, and data lines only appear inside a
/// block.
fn check_telemetry(path: &str, text: &str) {
    let line_fail = |i: usize, msg: &str| -> ! { fail(&format!("{path}:{}: {msg}", i + 1)) };
    let mut blocks = 0usize;
    let mut lines = 0usize;
    let mut metrics = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let doc =
            parse(line).unwrap_or_else(|e| fail(&format!("{path}:{}: invalid JSON: {e}", i + 1)));
        if let Some(header) = doc.get("telemetry") {
            if header.get("version").and_then(Json::as_num) != Some(1.0) {
                line_fail(i, "unsupported telemetry version (expected 1)");
            }
            if header.get("scope").and_then(Json::as_str).is_none() {
                line_fail(i, "telemetry header without a scope string");
            }
            blocks += 1;
            continue;
        }
        if blocks == 0 {
            line_fail(i, "data line before any telemetry header");
        }
        if doc.get("metric").is_some() {
            if doc.get("metric").and_then(Json::as_str).is_none() {
                line_fail(i, "metric name is not a string");
            }
            let ty = doc
                .get("type")
                .and_then(Json::as_str)
                .unwrap_or_else(|| line_fail(i, "metric line without a type"));
            match ty {
                "counter" | "gauge" => {
                    if doc.get("value").and_then(Json::as_num).is_none() {
                        line_fail(i, "counter/gauge without a numeric value");
                    }
                }
                "histogram" => {
                    for key in ["count", "sum", "min", "max", "mean", "p50", "p90", "p99"] {
                        if doc.get(key).and_then(Json::as_num).is_none() {
                            line_fail(i, &format!("histogram missing numeric {key:?}"));
                        }
                    }
                }
                other => line_fail(i, &format!("unknown metric type {other:?}")),
            }
            metrics += 1;
        } else if let Some(slow) = doc.get("slow_invoke") {
            for key in [
                "rank", "span", "rtt", "offload", "noc", "queue", "exec", "response",
            ] {
                if slow.get(key).and_then(Json::as_num).is_none() {
                    line_fail(i, &format!("slow_invoke missing numeric {key:?}"));
                }
            }
        } else if let Some(stage) = doc.get("span_stage") {
            if stage.get("stage").and_then(Json::as_str).is_none()
                || stage.get("cycles").and_then(Json::as_num).is_none()
            {
                line_fail(i, "span_stage needs a stage string and cycle count");
            }
        } else if doc.get("sample").is_none() && doc.get("span_summary").is_none() {
            line_fail(i, "unknown telemetry line kind");
        }
    }
    if blocks == 0 {
        fail(&format!(
            "{path}: no telemetry blocks (dumps come from 'levi-bench run --telemetry')"
        ));
    }
    println!("telemetry OK: {lines} lines, {blocks} run blocks, {metrics} metrics");
}
