#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout. Everything
# the Go toolchain and the benchmark write stays under .bench_build in
# the checkout: the build cache, temporary files, the binaries, the
# scratch journals and the traces.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rotary-serve" ]; then
	echo "benchmark/run.sh: run from the root of the rotary repository (no go.mod or cmd/rotary-serve in $root)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/benchmark" -o "$build/bin/rotary-benchmark" .
exec "$build/bin/rotary-benchmark" "$@"
