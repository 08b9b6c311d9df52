#!/usr/bin/env bash
# Gather gate: stencil kernels gather their planes only through
# core::gather_plane (core/gather.hpp), the one clamp-to-edge path for every
# pencil, border pencils included: a per-pencil offset table on every
# separable layout, row gathers through the same read view everywhere else.
# A direct gather_row( call under src/sfcvis/filters/ would fork that path
# per kernel again, so it fails here.
#
# Usage: check_gather_gate.sh [repo-root]   (defaults to the script's repo)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

violations=$(grep -rn "gather_row(" "$root/src/sfcvis/filters" 2>/dev/null)

if [ -n "$violations" ]; then
  echo "gather gate FAILED: gather_row( called under src/sfcvis/filters/ —"
  echo "gather stencil planes through core::gather_plane instead:"
  echo
  echo "$violations"
  exit 1
fi

echo "gather gate OK: filters gather stencil planes only through core::gather_plane"
exit 0
