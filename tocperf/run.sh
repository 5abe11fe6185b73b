#!/usr/bin/env bash
# Builds the tocperf benchmark from the sources of the checkout it is run
# from and runs one workload. Run it from the repository root:
#
#	bash tocperf/run.sh --workload spill-lr --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# files, checkpoints, span dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
case "${CARGO_TARGET_DIR:-}" in
"") out="$root/.bench_build" ;;
/*) out="$CARGO_TARGET_DIR" ;;
*) out="$root/$CARGO_TARGET_DIR" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/tocperf" .)
# Write the build's output to disk now, so its write-back does not run
# beside the first run's timed cycles.
sync
exec "$out/tocperf" --work "$out/tocperf-work" "$@"
