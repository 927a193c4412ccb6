#!/usr/bin/env bash
# Builds the benchmark and the ldserve binary it drives, then runs the
# benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload ga-249 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, binaries, span dumps, reports) stays under .bench_build in the
# current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOCACHE=$build/go-cache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

rev=none
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/ldserve" repro/cmd/ldserve) >&2

exec "$build/bin/perfbench" --ldserve "$build/bin/ldserve" --out "$build" --rev "$rev" "$@"
