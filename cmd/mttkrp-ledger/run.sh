#!/usr/bin/env bash
# Builds the ledger from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments.
# Every file the build or the run writes stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/mttkrp-ledger" .
exec "$out/mttkrp-ledger" "$@"
