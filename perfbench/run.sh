#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it from
# the checkout root. Every build artefact (binary, Go build and module
# caches, temporary files) stays under .bench_build/ so the run touches
# nothing outside the checkout. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload paper-corpus --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/stream" ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off
export CGO_ENABLED=0

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
