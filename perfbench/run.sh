#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serial-40x1200 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs (the binary, the Go
# build cache) stay in .bench_build/ inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/go.mod must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
