#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
#
# The run is pinned to one CPU, the last one this process may use: the
# benchmark, the daemon it forks and the daemon's workers then share it.
# On a shared virtual machine a request handed to a process on another,
# idle CPU waits for that CPU to be woken, and how long that takes moves
# with the host's load; serve-mixed's hit latency varied by about a third
# between runs of the same code for that reason.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe >&2
pin=()
if command -v taskset >/dev/null 2>&1; then
  cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)
  pin=(taskset -c "${cpus##*[,-]}")
fi
exec "${pin[@]}" ./_build/default/perfbench/main.exe "$@"
