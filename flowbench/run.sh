#!/usr/bin/env bash
# Builds the flow benchmark from source and runs it with the given flags:
#
#   bash flowbench/run.sh --workload table2 --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) goes
# under .bench_build at the root of the checkout, or under $CARGO_TARGET_DIR
# when that is set, so nothing is written outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/tmp" "$build/home"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/home/go"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off
export GOWORK=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/flowbench" .)
exec "$build/flowbench" "$@"
