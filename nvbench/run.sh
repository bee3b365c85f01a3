#!/bin/sh
# Build NV-Scavenger and nvbench from source, then run nvbench with the
# given arguments (see nvbench/README.md).  The dune cache stays off so
# the build reads and writes only inside this tree.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . \
  ./nvbench/nvbench.exe ./nvbench/traced.exe ./bin/nvscav.exe \
  ./bin/experiments.exe 1>&2
exec ./_build/default/nvbench/nvbench.exe "$@"
