#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, vets it, runs its
# self-test, and runs it. bench/ is a module of its own, which the root
# module's `go build/vet/test ./...` skip, so this is where the harness's
# arithmetic (stats_test.go) and its agreement with BENCHMARK.json are
# checked: before every measurement, in about a second once cached. Every
# path the Go toolchain writes (build cache, module path, temp files) is
# redirected under .bench_build, so a run touches nothing outside the
# checkout. A directory without the repo's sources fails at the build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# VCS stamping fails in a checkout whose .git the toolchain may not read;
# the stamp only feeds the env line's commit, so build without it then.
(cd "$here" && { go build -o "$build/bin/simbench" . 2>/dev/null || go build -buildvcs=false -o "$build/bin/simbench" .; } && go vet . && go test .) >&2
exec "$build/bin/simbench" -build-dir "$build" "$@"
