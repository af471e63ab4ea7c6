#!/usr/bin/env bash
# Builds the benchmark harness and the dvfsd daemon from the checkout it
# is run in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload sim_predict --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds and writes stays
# under .bench_build/ (binaries, Go build cache, traces, scratch stores).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dvfsd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dvfsd and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$out/bin/dvfsd" ./cmd/dvfsd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
