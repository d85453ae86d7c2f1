#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. The binary, Go's build cache and the multi-process backend's
# scratch all go to .bench_build/ in the checkout, so a run reads and
# writes nothing outside it. Arguments are passed through; see main.go.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=auto
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
