#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload p2p-mux --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# toolchain's local telemetry, the binary) stays under .bench_build/ at
# the root of the tree, and the toolchain is never asked to download
# anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off CGO_ENABLED=0

# Stamp the commit when the tree is a git checkout; git may not look
# above the tree for one.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
