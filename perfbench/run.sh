#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sbp-dense --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the CPU profile and span dumps all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory. Without the repository's module beside perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
