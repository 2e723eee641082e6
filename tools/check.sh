#!/bin/sh
# Repository check gate: static checks + custom lint + test suite.
#
# ruff and mypy are optional — environments without them (e.g. the
# minimal CI image, which bakes in only numpy/scipy/networkx/pytest)
# skip those stages with a notice instead of failing.  The custom AST
# lint (tools/lint_repro.py) and the test suite always run: they need
# nothing beyond the standard library and the test dependencies.
#
# Usage: sh tools/check.sh [--no-tests]
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src/repro tools tests benchmarks || status=1
else
    echo "== ruff == (not installed; skipped)"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy || status=1
else
    echo "== mypy == (not installed; skipped)"
fi

echo "== lint_repro =="
python tools/lint_repro.py || status=1

echo "== analyze (case studies) =="
python -m repro.analyze || status=1

echo "== analyze --json (machine-readable gate: exit 0 clean / 1 warnings / 2 errors) =="
python -m repro.analyze --json >/dev/null || status=1

echo "== serve (selfcheck) =="
python -m repro.serve --selfcheck -q || status=1

echo "== store (selfcheck: create -> kill -> resume -> verify) =="
python -m repro.store --selfcheck -q || status=1

echo "== bench e37 (smoke: 10^4-state sparse chain under budget) =="
python benchmarks/bench_e37_sparse.py --smoke || status=1

echo "== bench e38 (smoke: 50-point compiled sparse sweep, zero re-BFS) =="
python benchmarks/bench_e38_sparse_sweep.py --smoke || status=1

echo "== bench e39 (smoke: structural pre-flight sizes nets without BFS) =="
python benchmarks/bench_e39_invariants.py --smoke || status=1

echo "== perfbench (traced smoke: every workload exits 0 with \"correct\": true, leaving no process behind) =="
# The traced mode wraps library functions by name: a renamed one crashes
# the run, a bypassed one empties its layer.  Each run leads its own
# process group, so a worker, daemon or helper it started and did not
# stop is still in that group after the run exits.
for workload in serve-mixed campaign-store sparse-sweep; do
    out="$(mktemp -d)"
    setsid python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 \
        --out "$out" >"$out/stdout" 2>"$out/stderr" &
    group=$!
    if wait "$group" && tail -n 1 "$out/stdout" | grep -q '"correct": true'; then
        echo "$workload: ok"
    else
        echo "$workload: FAILED"
        tail -n 20 "$out/stdout" "$out/stderr"
        status=1
    fi
    left="$(pgrep -g "$group" || true)"
    if [ -n "$left" ]; then
        echo "$workload: FAILED (processes left running after exit)"
        ps -o pid,ppid,args -p "$(echo $left | tr ' ' ',')" || true
        kill $left 2>/dev/null || true
        status=1
    fi
    rm -rf "$out"
done

if [ "${1:-}" != "--no-tests" ]; then
    echo "== hash seed (pinned digests and dependability measures under PYTHONHASHSEED=1) =="
    # An ordering dependence on set or dict hash order fails here instead
    # of hiding behind the default seed.
    PYTHONHASHSEED=1 python -m pytest -q tests/markov/test_policy_bit_identity.py \
        tests/markov/test_hash_seed.py || status=1

    echo "== pytest =="
    python -m pytest -q || status=1
fi

exit $status
