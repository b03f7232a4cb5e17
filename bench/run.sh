#!/usr/bin/env bash
# Driver entry point: builds the harness from source and runs it, keeping
# every byte the build and the run write inside the checkout (.bench_build/).
# Arguments pass through: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# By hand, `go run ./bench ...` from the repository root does the same with
# the user's own Go caches.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/gasperbench" ./bench
exec "$build/gasperbench" "$@"
