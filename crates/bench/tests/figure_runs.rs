//! End-to-end runs of the `levi-bench` binary. Every figure prints
//! deterministic stdout, so `run all --quick` must print the committed
//! golden byte for byte. Every simulated run of a figure takes the
//! runner's one sweep path, so `--telemetry` dumps one block per run and a
//! second `--resume` of the same journal replays every run instead of
//! simulating it again. One invocation simulates each distinct run once:
//! `run all --quick` reuses exactly the runs that repeat an earlier
//! figure's.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use levi_bench::json::parse;

/// Two figures that sweep scale and config knobs rather than a
/// workload's variants; each runs four simulations at quick scale.
const FIGURES: [&str; 2] = ["fig24_input_size", "ablation_translation"];
const RUNS_PER_FIGURE: usize = 4;

/// The `--telemetry` dumps of `run ablation_translation --quick` then
/// `run ablation_tenancy --quick`: eight blocks whose values cover the
/// TLB counters, the `xlat_walk` histogram and the per-tenant series.
const TELEMETRY_GOLDEN: &str = include_str!("../../../tests/golden/telemetry_quick.jsonl");

/// The stdout of `run all --quick`. A change that moves a figure on
/// purpose regenerates it in the same commit.
const RUN_ALL_QUICK_GOLDEN: &str = include_str!("../../../tests/golden/run_all_quick.txt");

/// A fresh path under the test's scratch directory.
fn scratch(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path.to_str().expect("scratch path is UTF-8").to_string()
}

/// Runs `levi-bench` with `args`, requiring a zero exit.
fn levi_bench(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_levi-bench"))
        .args(args)
        .output()
        .expect("spawn levi-bench");
    assert!(
        out.status.success(),
        "levi-bench {} failed:\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The output of `run all --quick`, run once for every test that reads it.
fn run_all_quick() -> &'static Output {
    static OUT: OnceLock<Output> = OnceLock::new();
    OUT.get_or_init(|| levi_bench(&["run", "all", "--quick"]))
}

#[test]
fn run_all_quick_prints_the_golden_byte_for_byte() {
    let stdout = std::str::from_utf8(&run_all_quick().stdout).expect("figure output is UTF-8");
    for (i, (got, want)) in stdout.lines().zip(RUN_ALL_QUICK_GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "stdout line {} differs from the golden", i + 1);
    }
    assert_eq!(
        stdout, RUN_ALL_QUICK_GOLDEN,
        "stdout differs from the golden in length or line endings"
    );
}

#[test]
fn run_all_quick_reuses_exactly_the_runs_an_earlier_figure_simulated() {
    // (label, the `figure/label` of the run it repeats), in run order.
    let want = [
        ("Baseline", "fig20_hats/Baseline"),
        ("SW BDFS", "fig20_hats/SW BDFS"),
        ("tako", "fig20_hats/tako"),
        ("Leviathan", "fig20_hats/Leviathan"),
        ("Ideal", "fig20_hats/Ideal"),
        ("buffer=4", "fig05_phi/Leviathan"),
        ("capacity=64", "fig20_hats/Leviathan"),
        ("base x4", "fig18_hashtable/64B base"),
        ("lev x4", "fig18_hashtable/64B lev"),
        ("baseline (core walk)", "fig18_hashtable/64B base"),
        ("REMOTE placement", "fig18_hashtable/64B lev"),
        ("baseline (no PHI)", "fig05_phi/Baseline"),
        ("in-place (mem-side)", "fig05_phi/Leviathan"),
    ];
    let stderr = String::from_utf8_lossy(&run_all_quick().stderr);
    let reused: Vec<(&str, &str)> = stderr
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("  reused ")?;
            let (label, origin) = rest.split_once(" cycles (")?;
            let label = label.trim_end().rsplit_once(' ')?.0.trim_end();
            Some((label, origin.strip_suffix(')')?))
        })
        .collect();
    assert_eq!(reused, want, "reuses:\n{stderr}");
    let progress = stderr.lines().filter(|l| l.contains(" cycles")).count();
    assert_eq!(progress, 68, "one progress line per run:\n{stderr}");
}

#[test]
fn telemetry_dumps_one_uniquely_scoped_block_per_run() {
    for fig in FIGURES {
        let dump = scratch(&format!("{fig}.telemetry.jsonl"));
        levi_bench(&["run", fig, "--quick", "--telemetry", &dump]);
        let text = std::fs::read_to_string(&dump).unwrap_or_default();
        let mut scopes: Vec<String> = text
            .lines()
            .filter_map(|line| {
                let doc = parse(line).expect("telemetry lines are JSON");
                let scope = doc.get("telemetry")?.get("scope")?.as_str()?;
                Some(scope.to_string())
            })
            .collect();
        assert_eq!(
            scopes.len(),
            RUNS_PER_FIGURE,
            "{fig}: one telemetry block per run: {scopes:?}"
        );
        assert!(
            scopes.iter().all(|s| s.starts_with(&format!("{fig}/"))),
            "{fig}: every scope is figure/label: {scopes:?}"
        );
        scopes.sort();
        scopes.dedup();
        assert_eq!(scopes.len(), RUNS_PER_FIGURE, "{fig}: scopes are unique");
    }
}

#[test]
fn a_second_resume_replays_every_run_into_the_same_report() {
    for fig in FIGURES {
        let journal = scratch(&format!("{fig}.journal"));
        let first = scratch(&format!("{fig}.first.json"));
        let second = scratch(&format!("{fig}.second.json"));
        levi_bench(&[
            "run", fig, "--quick", "--resume", &journal, "--json", &first,
        ]);
        let out = levi_bench(&[
            "run", fig, "--quick", "--resume", &journal, "--json", &second,
        ]);
        let log = String::from_utf8_lossy(&out.stderr);
        let runs: Vec<&str> = log.lines().filter(|l| l.contains(" cycles")).collect();
        assert_eq!(
            runs.len(),
            RUNS_PER_FIGURE,
            "{fig}: one progress line per run:\n{log}"
        );
        assert!(
            runs.iter().all(|l| l.ends_with("(resumed)")),
            "{fig}: every run is resumed from the journal:\n{log}"
        );
        let read = |path: &str| std::fs::read_to_string(path).expect("report written");
        assert_eq!(read(&first), read(&second), "{fig}: resumed report differs");
    }
}

#[test]
fn telemetry_values_match_the_golden_dump() {
    let mut dump = String::new();
    for fig in ["ablation_translation", "ablation_tenancy"] {
        let path = scratch(&format!("{fig}.golden.jsonl"));
        levi_bench(&["run", fig, "--quick", "--telemetry", &path]);
        dump += &std::fs::read_to_string(&path).expect("telemetry written");
    }
    // Gauges carry wall-clock `host_ns_*` values (self-profile builds only).
    let dump: Vec<&str> = dump
        .lines()
        .filter(|l| !l.contains("\"type\":\"gauge\""))
        .collect();
    let golden: Vec<&str> = TELEMETRY_GOLDEN.lines().collect();
    for (i, (got, want)) in dump.iter().zip(&golden).enumerate() {
        assert_eq!(
            got,
            want,
            "telemetry line {} differs from the golden",
            i + 1
        );
    }
    assert_eq!(dump.len(), golden.len(), "telemetry dump length");
}

#[test]
fn a_bad_json_path_fails_before_any_figure_runs() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/x.json");
    let out = Command::new(env!("CARGO_BIN_EXE_levi-bench"))
        .args(["run", "table05_config", "--json"])
        .arg(&missing)
        .output()
        .expect("spawn levi-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "exit code; stderr:\n{stderr}");
    assert!(
        stderr.starts_with("levi-bench: --json ") && !stderr.contains("panicked"),
        "a typed error, not a panic:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "no figure ran before the failure");
}
