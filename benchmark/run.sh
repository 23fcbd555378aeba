#!/usr/bin/env bash
# Builds the benchmark's binaries and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in one process: prints `workload metric value unit`
#       lines and a final JSON result line. --trace 0 measures the
#       untraced build (end-to-end metrics); --trace 1 the traced build
#       (per-layer metrics), after an untraced reference on the same input.
#
#   benchmark/run.sh [--sets N] [--seed S] [--smoke] [--update-expected]
#       N sets, each 5 interleaved untraced rounds of every workload plus
#       one traced round, written to benchmark/out/setK.json. Exits
#       nonzero on any failed check or drifted pin. --smoke runs one round
#       at test scale (the CI entry point). --update-expected rewrites the
#       pins in benchmark/expected/ from one set at the default seeds.
#
# Binaries are built into $CARGO_TARGET_DIR (default benchmark/target),
# untraced and traced in separate directories so neither build ever
# rebuilds the other with the wrong features.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
out=benchmark/out

build() {
    cargo build --release --offline --quiet "$@" >&2
}
build --manifest-path benchmark/Cargo.toml --target-dir "$target/untraced"
build --manifest-path Cargo.toml -p levi-bench --no-default-features --target-dir "$target/untraced"
build --manifest-path benchmark/Cargo.toml --features traced --target-dir "$target/traced"
build --manifest-path Cargo.toml -p levi-bench --no-default-features --features self-profile \
    --target-dir "$target/traced"
untraced="$target/untraced/release/levi-benchmark"
untraced_cli="$target/untraced/release/levi-bench"
traced="$target/traced/release/levi-benchmark"
traced_cli="$target/traced/release/levi-bench"

if [[ " $* " == *" --workload "* ]]; then
    trace=0
    args=("$@")
    for ((i = 0; i < ${#args[@]}; i++)); do
        if [[ "${args[i]}" == --trace ]]; then
            trace="${args[i + 1]:-}"
        fi
    done
    case "$trace" in
    0) exec "$untraced" run "$@" --cli "$untraced_cli" --out "$out" ;;
    1) exec "$traced" run "$@" --cli "$traced_cli" --untraced "$untraced" \
        --untraced-cli "$untraced_cli" --out "$out" ;;
    *)
        echo "run.sh: --trace takes 0 or 1" >&2
        exit 2
        ;;
    esac
fi

sets=1
pass=()
while (($#)); do
    case "$1" in
    --sets)
        sets="$2"
        shift 2
        ;;
    --seed)
        pass+=(--seed "$2")
        shift 2
        ;;
    --smoke | --update-expected)
        pass+=("$1")
        shift
        ;;
    *)
        echo "run.sh: unknown option $1" >&2
        exit 2
        ;;
    esac
done
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=0
if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
    dirty=1
fi
mkdir -p "$out"
for ((k = 1; k <= sets; k++)); do
    "$untraced" set --traced "$traced" --cli "$untraced_cli" --traced-cli "$traced_cli" \
        --out "$out/set$k.json" --commit "$commit" --dirty "$dirty" \
        ${pass[@]+"${pass[@]}"}
done
