//! `levi-benchmark` — the simulator-speed benchmark of the Leviathan
//! reproduction.
//!
//! ```text
//! levi-benchmark run --workload NAME [--seed N] [--seconds S | --reps N]
//!                    [--warmup N] [--scale paper|test] [--trace 0|1]
//!                    [--cli LEVI_BENCH] [--untraced BIN --untraced-cli LEVI_BENCH]
//!                    [--report PATH] [--out DIR]
//! levi-benchmark set --traced BIN --cli LEVI_BENCH --traced-cli LEVI_BENCH
//!                    --out PATH [--seed N] [--smoke]
//!                    [--update-expected] [--commit SHA] [--dirty 0|1]
//! levi-benchmark diff A.json B.json
//! ```
//!
//! `benchmark/run.sh` builds the binaries and calls these; see
//! `benchmark/README.md`.

mod catalogue;
mod diff;
mod figures;
mod json;
mod os;
mod report;
mod run;
mod set;
mod sim;
mod summary;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => run::main(rest),
        Some("set") => set::main(rest),
        Some("diff") => diff::main(rest),
        _ => Err("usage: levi-benchmark <run|set|diff> [options] (see benchmark/README.md)".into()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("levi-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
