#!/usr/bin/env bash
# Builds cstbench from source and runs it with the given arguments. Run it
# from the repository root; everything it builds or writes stays under
# .bench_build/ there.
#
#   bash cmd/cstbench/run.sh --workload daemon-cold --seed 1 --seconds 20 --trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/cstbench" .)
exec "$out/cstbench" "$@"
