#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload matrix|serve|ingest --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs and the Go build cache
# stay inside the checkout, under .bench_build (CARGO_TARGET_DIR names
# that directory when set). The benchmark is its own module in
# perfbench/, which builds against the repository one directory up; in a
# directory without the repository the build fails and nothing is
# printed on standard output.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
