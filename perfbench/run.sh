#!/usr/bin/env bash
# Builds mira-serve and the perfbench binary from the checkout's sources
# into .bench_build/ and runs one benchmark pass:
#
#   bash perfbench/run.sh --workload analyze|edit|query|sweep \
#        --seed N --seconds S --trace 0|1
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the directory this is run from (the repository root).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mira-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mira-serve and perfbench/ not found in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/mira-serve" ./cmd/mira-serve
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -serve "$out/mira-serve" -out "$out" "$@"
