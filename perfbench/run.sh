#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload paper-served --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary, WAL directories of
# the cluster workload) stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
if ! go -C "$root/perfbench" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
cd "$root"
exec "$out/perfbench" "$@"
