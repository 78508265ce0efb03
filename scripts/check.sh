#!/usr/bin/env bash
# Repo gate: lint (when ruff is available) + the tier-1 test suite +
# the benchmark harness's own tests (perfbench/tracing.py wraps module
# attributes by name, so renaming one must fail here, not in a bench run).
#
#   scripts/check.sh          # lint + tests
#   scripts/check.sh --fast   # tests only, stop at first failure
#
# Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff) =="
fi

echo "== pytest (tier 1) =="
if [ "$fast" = 1 ]; then
    PYTHONPATH=src python -m pytest -x -q
else
    PYTHONPATH=src python -m pytest -q
fi

echo "== pytest (benchmark harness) =="
PYTHONPATH=src python -m pytest perfbench/tests -q

echo "ALL CHECKS PASSED"
