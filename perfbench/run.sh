#!/usr/bin/env bash
# Builds the benchmark program from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# temporary socket directories all live under $CARGO_TARGET_DIR (default
# .bench_build), so a run reads and writes nothing outside the checkout.
# Outside a full checkout (no module at the parent directory) the build
# fails and so does the run.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
abs=$(cd "$out" && pwd)
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" XDG_CONFIG_HOME="$abs/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTMPDIR="$abs/tmp"

(cd "$(dirname "$0")" && go build -o "$abs/perfbench" .)
# Unix socket paths are capped near 108 bytes; keep the benchmark's
# temporary directories relative to the checkout so a deep checkout path
# still fits.
TMPDIR="$out/tmp" exec "$abs/perfbench" "$@"
