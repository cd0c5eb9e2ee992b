#!/usr/bin/env bash
# Builds cmd/bench, a Go module of its own, into .bench_build/ at the root of
# the checkout and runs it from there with the arguments given. The Go build
# cache, GOPATH and the go command's configuration directory live in
# .bench_build/ too, so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local
	go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
