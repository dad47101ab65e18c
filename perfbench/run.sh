#!/usr/bin/env bash
# Builds perfbench and polyflowd from this checkout, then runs one
# benchmark run with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig9-local --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain and the run write stays under .bench_build/.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/cmd/polyflowd || ! -f $root/perfbench/go.mod ]]; then
	echo "run.sh: $root is not a checkout of the repository; run from its root" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
# A checkout without git metadata is named by a hash of its sources instead.
if [[ -z ${BENCH_COMMIT:-} && -d $root/.git ]] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export BENCH_COMMIT=$commit
fi

go build -o "$build/polyflowd" ./cmd/polyflowd >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -polyflowd "$build/polyflowd" -workdir "$build/run" "$@"
