#!/usr/bin/env bash
# Builds the host-to-host migration benchmark from the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload return-churn --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, checkpoint stores) stays under .bench_build/ in
# the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"
