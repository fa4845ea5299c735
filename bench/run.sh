#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark (bench/e2e) from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and binaries all stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go build -C "$root/bench" -o "$out/e2e" ./e2e
exec "$out/e2e" "$@"
