#!/usr/bin/env bash
# Builds the simulator benchmark from source into .bench_build/ at the
# repository root and runs it with the given flags, e.g.
#
#   bash simbench/run.sh --workload loop-uniform --seed 1 --seconds 12 --trace 0
#
# The Go build cache lives under .bench_build/ too, so a run reads and
# writes nothing outside the checkout. Build output goes to stderr; the
# benchmark's last stdout line is its JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd simbench && go build -o "$build/simbench" .) 1>&2
exec "$build/simbench" "$@"
