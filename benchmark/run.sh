#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes (Go build cache, binary, spill files) goes under
# .bench_build/ at the checkout's root, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's own state inside the checkout too, and never let it
# reach for the network: the module has no dependencies outside this tree.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOFLAGS="-mod=mod"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/cobra-benchmark" .)
cd "$root"
exec "$build/cobra-benchmark" -tmp "$build/tmp" "$@"
