#!/usr/bin/env bash
# Builds qcloudsim, experiments and perfbench from source into
# .bench_build/ and runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-overloaded --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/qcloudsim ] || [ ! -d cmd/experiments ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$build/bin"

go build -buildvcs=false -o "$build/bin/" ./cmd/qcloudsim ./cmd/experiments
(cd perfbench && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/work" "$@"
