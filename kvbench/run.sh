#!/usr/bin/env bash
# Builds cmd/dsgserve and kvbench from this checkout, then runs kvbench
# with the given arguments. Run from the repository root:
#
#   bash kvbench/run.sh --workload kv-zipf-read --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go caches stay inside .bench_build/ of the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dsgserve" ]]; then
	echo "run.sh: no lsasg module with cmd/dsgserve in $root; run from the repository root" >&2
	exit 2
fi
mkdir -p "$out/bin"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
# With telemetry on (the default "local" mode), the go command forks a
# detached sidecar process that can outlive the build. Turning it off in the
# private config directory keeps every process of a run under this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/dsgserve" ./cmd/dsgserve
(cd kvbench && go build -o "$out/bin/kvbench" .)
exec "$out/bin/kvbench" -daemon "$out/bin/dsgserve" "$@"
