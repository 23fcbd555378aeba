#!/usr/bin/env bash
# The whole CI: .github/workflows/ci.yml runs this script and nothing else.
# Everything is offline — the workspace has no crates.io dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== module size guard =="
# The sim monolith was split into layered modules on purpose; keep it
# that way. Fails if any source file under a src/ tree reaches 1200 lines.
oversized=0
while IFS= read -r f; do
  lines=$(wc -l < "$f")
  if [ "$lines" -gt 1200 ]; then
    echo "FAIL: $f has $lines lines (limit 1200) — split it into modules"
    oversized=1
  fi
done < <(find . -path ./target -prune -o -path '*/src/*.rs' -print -o -path './src/*.rs' -print)
[ "$oversized" -eq 0 ]

echo "== fmt ==";    cargo fmt --all -- --check
echo "== clippy =="; cargo clippy --workspace --all-targets -- -D warnings
echo "== build ==";  cargo build --workspace --release
echo "== doc ==";    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "== test ==";   cargo test --workspace -q
echo "== fault smoke =="
# Fault injection must be a pure function of the seed: two runs with the
# same seed must print byte-identical output.
# Scratch files stay behind if a check fails, so CI can upload the
# crash-recovery journal; they are removed only after every check passed.
tmp="$(mktemp -d)"
cargo run --release --quiet --example fault_demo -- 3 > "$tmp/a.txt"
cargo run --release --quiet --example fault_demo -- 3 > "$tmp/b.txt"
diff "$tmp/a.txt" "$tmp/b.txt"
echo "== examples =="
# Every example asserts its own results, so each must run to completion
# (fault_demo ran above).
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  case "$name" in
    fault_demo) ;;
    trace_demo) cargo run --release --quiet --example trace_demo -- "$tmp/trace.json" > /dev/null ;;
    *) cargo run --release --quiet --example "$name" > /dev/null ;;
  esac
done
cargo run --release --quiet -p levi-workloads --example fault_replay > /dev/null
echo "== bench runner =="
# Every figure must run end-to-end at quick scale and the JSON report
# must be complete (one line per figure + a manifest covering them all).
rm -f "$tmp/bench-report.json"
cargo run --release --quiet -p levi-bench -- run all --quick --json "$tmp/bench-report.json" \
  > "$tmp/run-all-quick.txt"
cargo run --release --quiet -p levi-bench -- check-report "$tmp/bench-report.json"
echo "== figure golden =="
# Figure stdout is deterministic and must not drift across commits: the
# run above must equal the committed golden byte for byte. A change that
# moves a figure on purpose regenerates the golden in the same commit.
diff tests/golden/run_all_quick.txt "$tmp/run-all-quick.txt"
echo "== serial golden =="
# --serial reaches every sweep through the run context, not a side
# channel: the serial run must print the same golden as the parallel one.
cargo run --release --quiet -p levi-bench -- run all --quick --serial \
  > "$tmp/run-all-serial.txt" 2> /dev/null
diff tests/golden/run_all_quick.txt "$tmp/run-all-serial.txt"
echo "== paper-scale goldens =="
# The quick golden never builds the paper-scale inputs. Fig. 5 (power-law
# PHI graph) and Fig. 16 (Zipfian decompression accesses) run at paper
# scale and must print their committed goldens byte for byte.
cargo run --release --quiet -p levi-bench -- run fig05_phi > "$tmp/fig05-paper.txt" 2> /dev/null
diff tests/golden/fig05_paper.txt "$tmp/fig05-paper.txt"
cargo run --release --quiet -p levi-bench -- run fig16_decompress > "$tmp/fig16-paper.txt" 2> /dev/null
diff tests/golden/fig16_paper.txt "$tmp/fig16-paper.txt"
echo "== telemetry smoke =="
# --telemetry must be purely observational and cover every run, simulated
# or reused from an earlier figure: `run all --quick` with the flag must
# print the committed golden, its dump must pass structural validation and
# hold one block per stderr progress line (68), and every figure that
# names a workload in `levi-bench list` must have dumped at least one
# `<figure>/<label>` block.
cargo run --release --quiet -p levi-bench -- run all --quick \
  --telemetry "$tmp/telemetry.jsonl" > "$tmp/run-all-telemetry.txt" 2> "$tmp/run-all-telemetry.log"
diff tests/golden/run_all_quick.txt "$tmp/run-all-telemetry.txt"
cargo run --release --quiet -p levi-bench -- check-report "$tmp/telemetry.jsonl"
runs=$(grep -c ' cycles' "$tmp/run-all-telemetry.log" || true)
blocks=$(grep -c '^{"telemetry":' "$tmp/telemetry.jsonl" || true)
[ "$runs" -eq 68 ] && [ "$blocks" -eq "$runs" ] \
  || { echo "FAIL: $blocks telemetry blocks for $runs progress lines (want 68 of each)"; exit 1; }
cargo run --release --quiet -p levi-bench -- list > "$tmp/figures.txt"
for fig in $(awk 'NR > 1 && $2 != "-" { print $1 }' "$tmp/figures.txt"); do
  grep -q "\"scope\":\"$fig/" "$tmp/telemetry.jsonl" \
    || { echo "FAIL: $fig dumped no telemetry block"; exit 1; }
done
echo "== crash recovery smoke =="
# A journaled run that dies mid-sweep must resume to a byte-identical
# report: run a figure to completion under --resume, truncate its journal
# down to the header + one record + a torn half-written line (what a
# kill mid-append leaves behind), resume, and diff the two reports.
rm -f "$tmp/run.journal" "$tmp/resume-a.json" "$tmp/resume-b.json"
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --json "$tmp/resume-a.json" --resume "$tmp/run.journal" > /dev/null 2> /dev/null
head -n 2 "$tmp/run.journal" > "$tmp/dead.journal"
torn=$(sed -n '3p' "$tmp/run.journal")
printf '%s' "${torn:0:40}" >> "$tmp/dead.journal"
mv "$tmp/dead.journal" "$tmp/run.journal"
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --json "$tmp/resume-b.json" --resume "$tmp/run.journal" > /dev/null 2> "$tmp/resume.log"
grep -q "(resumed)" "$tmp/resume.log"
diff "$tmp/resume-a.json" "$tmp/resume-b.json"
# The journal is bound to its fault plan: resuming it under one must fail
# (exit 1) instead of merging faulted cycle counts into a fault-free report.
status=0
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --resume "$tmp/run.journal" --fault-plan 3 > /dev/null 2> "$tmp/mismatch.log" || status=$?
[ "$status" -eq 1 ]
grep -q "fault=3:" "$tmp/mismatch.log"
echo "== snapshot verify smoke =="
# Periodic checkpointing + post-run replay verification must be purely
# observational: fig05 prints byte-identical stdout with both armed, and
# the verification replays must all pass.
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  > "$tmp/fig05-plain.txt" 2> /dev/null
cargo run --release --quiet -p levi-bench -- run fig05 --quick \
  --snapshot-verify --checkpoint-every 50000 \
  > "$tmp/fig05-verified.txt" 2> /dev/null
diff "$tmp/fig05-plain.txt" "$tmp/fig05-verified.txt"
echo "== alloc smoke =="
# The data-oriented substrate's core claim: once warm, neither the
# per-instruction hot path, nor an LLC eviction that runs Morph destructors
# inline, nor an offloaded invoke (with arguments, or carrying a future)
# performs a heap allocation. A counting global allocator (release build,
# so the measured path is the shipped one) enforces all three.
cargo test --release -q -p levi-sim --test alloc_smoke
echo "== benchmark smoke =="
# The simulator-speed benchmark at test scale: builds its untraced and
# traced binaries, runs one round of every workload, and fails on any
# failed check or drifted pin (goldens, Stats digests, exact counts, the
# figures-quick stdout digest).
bash benchmark/run.sh --smoke > /dev/null
rm -rf "$tmp"
echo "== ok =="
