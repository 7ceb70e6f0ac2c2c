#!/usr/bin/env bash
# Builds the benchmark program and runs it with the caller's arguments.
# The Go build cache and the binary live in .bench_build/ at the root of the
# checkout, so a run reads and writes nothing outside the checkout. In a
# directory without the emulator's sources the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/conzone-perf" .)
cd "$root"
exec "$out/conzone-perf" "$@"
