#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload power-rdma --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and trace files stay in .bench_build at
# the checkout root. Without the engine's sources next to perfbench the
# build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

PERFBENCH_SOURCE=$(cd "$root" &&
	find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE

cd "$root"
exec "$out/perfbench" "$@"
