//! End-to-end smoke test of `benchmark/run.sh --smoke`: it builds every
//! binary, runs one test-scale round of each workload and one traced
//! round, at a non-default seed so the golden checks run on inputs no pin
//! covers. It must pass every check and print every declared metric for
//! every workload.

use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

#[test]
fn smoke_set_passes_and_prints_every_declared_metric() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new("bash")
        .args(["benchmark/run.sh", "--smoke", "--seed", "7"])
        .current_dir(root)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run.sh --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("declaration");
    let decl = json::parse(&text).expect("BENCHMARK.json parses");
    let metrics: Vec<(&str, &str)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| decl.get(k).expect("metric list").as_arr())
        .map(|m| (m.str("name").unwrap(), m.str("unit").unwrap()))
        .collect();
    for w in decl.get("workloads").expect("workloads").as_arr() {
        let w = w.str("name").unwrap();
        for (name, unit) in &metrics {
            let printed = stdout.lines().any(|l| {
                let cols: Vec<&str> = l.split_whitespace().collect();
                cols.len() >= 4
                    && cols[0] == w
                    && cols[1] == *name
                    && cols[2].parse::<f64>().is_ok()
                    && cols[3] == *unit
            });
            assert!(printed, "{w} {name} ({unit}) not printed:\n{stdout}");
        }
    }
}
