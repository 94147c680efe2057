#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root,
# passing every argument through (see perfbench/README.md). The Go build
# cache, temporary files and the binary all stay under .bench_build in
# the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
