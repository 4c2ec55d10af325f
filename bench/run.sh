#!/bin/sh
# Builds the end-to-end benchmark from source and runs one workload:
#
#   sh bench/run.sh --workload alg1-gnp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ there, so nothing is written
# outside the checkout. The build needs the parent module (replace ../ in
# bench/go.mod); without it the script fails before printing a result.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
GOPATH="$out/gopath"
GOTMPDIR="$out/tmp"
TMPDIR="$out/tmp"
XDG_CONFIG_HOME="$out/config"
GOTOOLCHAIN=local
GOPROXY=off
GOWORK=off
GOFLAGS=-buildvcs=false
export GOCACHE GOPATH GOTMPDIR TMPDIR XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY GOWORK GOFLAGS
go -C bench build -o "$out/e2e" ./e2e
exec "$out/e2e" "$@"
