#!/bin/sh
# Builds the benchmark program from this checkout's sources, then runs it:
#
#   sh cdwbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere inside a cdw source tree; the program itself runs at
# the tree's root, where it keeps its scratch files in .cdwbench-work/.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "cdwbench: $(pwd) is not a cdw source tree (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . ./cdwbench/cdwbench.exe >&2
exec ./_build/default/cdwbench/cdwbench.exe "$@"
