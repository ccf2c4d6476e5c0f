#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of the repository; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload chat --seed 1 --seconds 10 --trace 0
#
# The build cache, Go's own state and the binary stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
