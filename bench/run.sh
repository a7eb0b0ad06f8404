#!/usr/bin/env bash
# Builds the benchmark program and the icrowd-server binary it measures,
# then runs the benchmark with the given arguments.
#
# Run from the repository root:
#
#	bash bench/run.sh --workload adaptive --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (Go caches, binaries, data
# directories) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/icrowd-server" ]]; then
	echo "bench/run.sh: run from the repository root (cmd/icrowd-server must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
# The commit goes into each run's metadata from git directly, so builds
# need no VCS stamping (and work in a checkout that is not a repository).
export GOFLAGS=-buildvcs=false
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
mkdir -p "$out/bin" "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/bench" && go build -o "$out/bin/bench" .) >&2
go build -o "$out/bin/icrowd-server" ./cmd/icrowd-server >&2

# Paths handed to the benchmark are relative to the repository root, so the
# command lines recorded in run metadata do not depend on where it lives.
exec "$out/bin/bench" -bin .bench_build/bin -work .bench_build/run -commit "$commit" "$@"
