#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it.
#
#   bash benchmark/run.sh [--workload all|hot-guided|durable-transfer|read-mostly]
#                         [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Build cache, binary, write-ahead logs and
# trace files all live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd -P)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# Module downloads are never needed (the benchmark depends only on the
# repository itself), but keep any module cache inside the checkout too.
export GOMODCACHE="$out/gomodcache"

# Build output goes to stderr: the last stdout line belongs to the result.
(cd "$root/benchmark" && go build -o "$out/gstm-bench" .) 1>&2

# Record the commit only when the root itself is a git work tree, not
# some repository that happens to enclose it.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/gstm-bench" --commit "$commit" --out "$out" "$@"
