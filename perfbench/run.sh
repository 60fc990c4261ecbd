#!/usr/bin/env bash
# Builds partsrv and the benchmark program from the source tree around this
# directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload sfc-large-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build cache,
# the go command's config and telemetry files and the span traces stay under
# $CARGO_TARGET_DIR (default .bench_build) in that root, so the run writes
# nothing outside the checkout. The build uses the installed toolchain only.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/partsrv" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/partsrv in $root)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local

go build -o "$out/partsrv" ./cmd/partsrv
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --partsrv "$out/partsrv" --out "$out/traces" "$@"
