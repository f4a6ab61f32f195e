#!/usr/bin/env bash
# Builds the e2ebench driver from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload eval-large --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/provmind" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
    echo "e2ebench: run from the root of a provmin checkout" >&2
    exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$root" -out "$out" "$@"
