#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the repository root. Build cache, binary,
# results, spans and profiles all stay under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out/results" "$@"
