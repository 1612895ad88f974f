#!/usr/bin/env bash
# Build the repository and its benchmark from source, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh delta BEFORE.json AFTER.json
#
# Run from the repository root.  Build output goes to stderr so the last
# line of stdout stays the result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled ./perfbench/bin/main.exe ./bin/serve.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
