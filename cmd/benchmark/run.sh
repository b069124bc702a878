#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#	bash cmd/benchmark/run.sh --workload table1 --seed 1 --seconds 12 --trace 0
#
# Every build artefact (compiled packages, the binary, Go's config and module
# directories) stays under the build directory: $CARGO_TARGET_DIR when set,
# otherwise .bench_build. The build needs no network.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd cmd/benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
