"""Benchmark-suite helpers.

Each ``bench_eXX_*.py`` file regenerates one experiment from DESIGN.md's
index: it asserts the tutorial's qualitative claim and prints the
table/series rows (visible with ``pytest benchmarks/ -s``).  Wall-clock
records land in ``BENCH_<name>.json`` (via :func:`write_record`) so the
perf trajectory is tracked across revisions, each stamped with the
commit and host it was measured on (:func:`provenance`); writing the record must
happen *before* any environment-dependent gate (CPU-count skips and the
like), so a record exists for every run, gated or not.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

#: Where ``BENCH_<name>.json`` records are written.
RECORD_DIR = pathlib.Path(__file__).resolve().parent
_ROOT = RECORD_DIR.parent
_SRC = _ROOT / "src"
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - source-checkout fallback
    sys.path.insert(0, str(_SRC))


def _git(*args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Where a record was measured: commit, CPU count, library versions.

    ``git_sha``/``git_dirty`` are ``None`` outside a git checkout;
    ``git_dirty`` ignores untracked files.
    """
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def write_record(name, payload):
    """Persist one experiment's machine-readable record.

    Writes ``benchmarks/BENCH_<name>.json`` (e.g. ``write_record("e33",
    {...})``) with a fresh ``"provenance"`` object (:func:`provenance`)
    and returns the path.  Keep the payload plain JSON — these files are
    committed, diffed across revisions, and read by humans.
    """
    path = RECORD_DIR / f"BENCH_{name}.json"
    record = {**payload, "provenance": provenance()}
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path


def print_table(title, header, rows):
    """Uniform table printer for benchmark output."""
    print()
    print(f"--- {title} ---")
    print("  " + "  ".join(f"{h:>14s}" for h in header))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:>14.6g}")
            else:
                cells.append(f"{str(value):>14s}")
        print("  " + "  ".join(cells))
