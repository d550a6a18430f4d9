#!/usr/bin/env bash
# Build cosmos-sim from a copy of HEAD with one mutant patch applied.
#
#   ci/mutants/build.sh PATCH DIR
#
# Extracts `git archive HEAD` into DIR, applies PATCH there with
# `git apply` and builds cosmos-testkit into DIR/target, so the patched
# binary is DIR/target/release/cosmos-sim and the checkout's own target
# directory keeps the unpatched build. Run it from the repository root;
# `git archive` takes HEAD, so commit first. DIR must lie outside any
# git repository: inside one, `git apply` would resolve the patch's
# paths against that repository's root instead of DIR.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 PATCH DIR" >&2
  exit 2
fi
patch=$(realpath "$1")
dir=$2
mkdir -p "$dir"
if git -C "$dir" rev-parse --git-dir > /dev/null 2>&1; then
  echo "$0: $dir lies inside a git repository" >&2
  exit 2
fi
git archive HEAD | tar -x -C "$dir"
cd "$dir"
git apply "$patch"
cargo build --release -p cosmos-testkit --target-dir "$PWD/target"
