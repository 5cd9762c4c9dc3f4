#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it.
# Every file the toolchain or the benchmark writes stays inside the checkout:
# the Go build cache, the toolchain's temp dir, the benchmark's scratch dirs
# and trace files. Fails (non-zero, nothing on stdout) when the repository
# around benchmark/ is missing, because the build cannot resolve ../go.mod.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
# The toolchain keeps its telemetry counters under the user config dir.
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/hostbench" . >&2
BENCH_TMP="$build/tmp" BENCH_OUT="$here/out" exec "$build/hostbench" "$@"
