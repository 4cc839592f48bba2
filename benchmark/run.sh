#!/usr/bin/env bash
# Builds the harness and the commit's own ccam-serve from source, then
# runs the harness with the given arguments from the repository root.
# Everything the build and the run write — compiler cache, binaries,
# scratch stores, traces — stays inside benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/ccam-serve ]; then
	echo "benchmark: $root holds no repository to measure (go.mod or cmd/ccam-serve missing)" >&2
	exit 2
fi

build="$root/benchmark/out/build"
bench="$build/bin/ccam-benchmark"
serve="$build/bin/ccam-serve"
mkdir -p "$build/bin" "$build/tmp"

stale() {
	[ ! -x "$1" ] || [ -n "$(find . -path ./benchmark/out -prune -o \
		\( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}

# The toolchain gets a cache, a module path and a config directory of
# its own inside the checkout, and may fetch nothing.
gobuild() {
	GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
		GOPROXY=off GOTOOLCHAIN=local go "$@"
}

if stale "$serve"; then
	gobuild build -o "$serve" ./cmd/ccam-serve
fi
if stale "$bench"; then
	gobuild -C benchmark build -o "$bench" .
fi

CCAM_SERVE_BIN="$serve" exec "$bench" "$@"
