#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload apps --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files and the go command's own config and telemetry stay under
# .bench_build, so nothing is written outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
