#!/usr/bin/env bash
# Builds clxd, clxproxy and the benchmark from this checkout into
# .bench_build/ and runs the benchmark. Usage, from the repository root:
#   bash perfbench/run.sh --workload interactive|bulk|serve --seed N --seconds S --trace 0|1
# Everything it writes (Go build cache, binaries, node stores, logs, span
# dumps) stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The provenance stamp asks git for the commit: keep it inside the checkout.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")" GIT_CONFIG_GLOBAL=/dev/null GIT_CONFIG_NOSYSTEM=1
go build -o "$out/bin/" ./cmd/clxd ./cmd/clxproxy
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
