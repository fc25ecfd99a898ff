#!/usr/bin/env bash
# Builds the relatch benchmark and the rar server from the sources of the
# checkout this script sits in, then runs one workload:
#
#   bash relbench/run.sh --workload grar-large --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and scratch file stays under
# .bench_build/ at the checkout root (CARGO_TARGET_DIR is honoured as the
# build directory when set). The last line of standard output is the
# result JSON; build chatter goes to standard error.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
cd "$root/relbench"
go build -o "$out/relbench" . >&2
go build -o "$out/rar" relatch/cmd/rar >&2
exec "$out/relbench" -rar "$out/rar" -work "$out/runs" "$@"
