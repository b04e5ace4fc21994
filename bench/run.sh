#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the go tool writes (build cache, temporary work directories,
# its telemetry counters under the user configuration directory, binaries)
# stays under .bench_build/, for this build and for the harness's build of
# the daemon, so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
