#!/usr/bin/env bash
# Builds soid, soigw and sphere from the checkout it is run in, builds the
# benchmark, and runs it with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload hot-zipf --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a soi checkout. Everything it builds or writes
# (Go build cache, binaries, artifacts, daemon logs) stays under
# .bench_build/ in that checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/soid ] || [ ! -d internal ]; then
  echo "e2ebench: run from the root of a soi checkout (no go.mod / cmd/soid here)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off GOPROXY=off GOSUMDB=off
export CGO_ENABLED=0

# Rebuild only when a Go source or module file of the checkout changed: the
# stamp is a digest of all of them.
stamp="$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod -o -name go.sum \) -type f -print0 \
  | sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)"
if [ "$(cat "$out/bin/stamp" 2>/dev/null)" != "$stamp" ]; then
  rm -f "$out/bin/stamp"
  go build -o "$out/bin/" ./cmd/soid ./cmd/soigw ./cmd/sphere >&2
  (cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
  echo "$stamp" > "$out/bin/stamp"
fi
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out" "$@"
