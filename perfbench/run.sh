#!/usr/bin/env bash
# Builds the rackfab benchmark from source and runs it. Run it from the root
# of a rackfab checkout:
#
#   bash perfbench/run.sh --workload fluid-perm --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the build's temporary files, the binary and the span
# files of traced runs all stay under .bench_build/ in the checkout. Outside
# a checkout (no go.mod next to perfbench/) the build fails and the script
# exits non-zero.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
