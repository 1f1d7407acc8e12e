#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with the
# arguments given. Everything this leaves behind (binary, Go build cache,
# temp files) stays under benchmark/.build.
#
#   bash benchmark/run.sh --workload lib_scanall --seed 1 --seconds 16 --trace 0
#   bash benchmark/run.sh --workload serve_search --trace 1 -spans spans.jsonl
#   bash benchmark/run.sh --selfcheck -sets 8
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
export TMPDIR="$build/tmp"

# The driver's checkout is not a git repository: the commit is recorded
# where there is one, and Go's own VCS stamping stays off.
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
