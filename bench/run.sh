#!/usr/bin/env bash
# run.sh — the benchmark's command (BENCHMARK.json "command"): builds the
# programs under test and the harness from source into .bench_build/ at the
# root of the checkout, then runs dlbench with the arguments given.
#
#   bash bench/run.sh --workload ranked-miss --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -check     # vet + unit tests of this module, then a smoke
#                                # run of all four workloads
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, module cache, temp directory and the go command's own config
# and telemetry directory are redirected to .bench_build/ too.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
# The go command starts a detached telemetry sidecar that outlives it unless
# the mode file says off; written before the first go invocation so that no
# process of this script is left running when it exits.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

# The programs under test come from the checkout's own module; in a directory
# that holds only the benchmark there is no such module and this fails.
go build -o "$out/bin/" ./cmd/cobraindex ./cmd/dlserve ./cmd/dlrouter
(cd bench && go build -o "$out/bin/dlbench" ./dlbench)
# The root module's `go test ./...` does not reach this module (it has its own
# go.mod), so the smoke test is where its vet and unit tests run.
if [ "${1:-}" = "-check" ]; then
  (cd bench && go vet ./... && go test ./...)
fi

exec "$out/bin/dlbench" -bin "$out/bin" -work "$out" "$@"
