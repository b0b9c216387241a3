#!/usr/bin/env bash
# CI entrypoint: the exact checks a PR must pass, in fail-fast order.
#
#   scripts/ci.sh                 # full run: lint, tier-1 pytest,
#                                 # perf harness tests, paper-claim sweep
#   CI_JOBS=8 scripts/ci.sh       # parallel sweep fan-out
#   CI_SKIP_TESTS=1 scripts/ci.sh # lint only (used by the ci.sh test
#                                 # itself, which already runs under pytest)
#
# Documented in README.md; tests/test_lint.py asserts this script
# stays executable and green.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "ci: reprolint"
python -m repro.analysis lint

if [ -z "${CI_SKIP_TESTS:-}" ]; then
    echo "ci: tier-1 pytest"
    python -m pytest -x -q

    echo "ci: benchmark harness smoke (perf/ reaches the simulator by name)"
    python -m pytest perf -q

    echo "ci: paper claims at quick scale (run exits 1 if a claim flips)"
    python -m repro.analysis run --scale quick --no-cache --no-journal \
        --jobs "${CI_JOBS:-4}" --filter fig --filter tab2 \
        --filter ablation --filter sec7
fi

echo "ci: OK"
