#!/usr/bin/env bash
# Builds the served-stack benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 15 --trace 0
#
# Build products, the Go build cache and result files go under
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root, so the run
# reads and writes nothing outside the checkout. Without the m2m module
# beside it the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --out "$out/perfbench-out" "$@"
