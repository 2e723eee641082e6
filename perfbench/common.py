"""Shared pieces of the benchmark: statistics, provenance, call tracing.

Nothing here imports ``repro``; the workload modules do, so a checkout
without the library fails at the first workload import, before any
result is printed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: working space for stores and result records, inside the checkout
WORK = os.path.join(ROOT, "perfbench", "results")


# --------------------------------------------------------------- statistics
def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50.0)


def windowed_pct(values: Sequence[float], q: float, windows: int = 8) -> float:
    """The ``q``-th percentile within each of ``windows`` consecutive slices
    of ``values`` (in time order), then the median over the slices.

    A plain tail percentile moves with a few seconds of contention from
    other tenants of a shared host; this one moves only when more than
    half of the run is contended, like the median itself.
    """
    if len(values) < windows:
        return pct(values, q)
    return median([pct(part, q) for part in np.array_split(np.asarray(values, dtype=float), windows)])


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else float("nan")


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory in MB (``ru_maxrss`` is KiB on Linux).

    With ``children`` the result is the larger of this process and its
    largest waited-for child, for workloads whose model work runs in
    pool workers.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# --------------------------------------------------------------- provenance
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over ``src/`` file paths and bytes: identifies the code
    under test even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ------------------------------------------------------------ call tracing
class Recorder:
    """Spans around calls into the library, kept in memory.

    Each attribute registered with :meth:`target` (module function, class
    method or instance callable) is replaced by a timing wrapper inside
    an :meth:`active` block and restored afterwards.  Each thread keeps
    its own span stack, so a span's *self* time is its duration minus
    the time of the spans it opened on the same thread.
    """

    def __init__(self):
        self._targets: List[Tuple[object, str, str, str]] = []
        self._saved: List[Tuple[object, str, object, bool]] = []  # owner, attr, original, had_own
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (leg, layer, name) -> list of (duration, self_time)
        self.calls: Dict[Tuple[str, str, str], List[Tuple[float, float]]] = {}
        self.leg = ""
        self.wall = 0.0
        #: optional hook called with (layer, name, args, result, duration)
        self.on_return: Optional[Callable] = None

    def target(self, owner: object, attr: str, layer: str, name: Optional[str] = None) -> None:
        """Register ``owner.attr`` to be wrapped while the recorder is active."""
        self._targets.append((owner, attr, layer, name or attr))

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, func: Callable, layer: str, name: str) -> Callable:
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            frame = [0.0]  # child time accumulated on this thread
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (recorder.leg, layer, name)
                with recorder._lock:
                    recorder.calls.setdefault(key, []).append((duration, duration - frame[0]))
            if recorder.on_return is not None:
                recorder.on_return(layer, name, args, result, duration)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, layer, name in self._targets:
            own = vars(owner)
            had_own = attr in own
            self._saved.append((owner, attr, own.get(attr), had_own))
            # getattr on a class yields the plain function for methods
            setattr(owner, attr, self._wrapper(getattr(owner, attr), layer, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextlib.contextmanager
    def active(self, leg: str):
        """Wrappers installed, calls counted under ``leg``, wall accumulated."""
        self.leg = leg
        self.install()
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.wall += time.perf_counter() - t0
            self.uninstall()

    # -------------------------------------------------------------- query
    def durations(self, layer: str, name: str, legs: Iterable[str]) -> List[float]:
        out: List[float] = []
        for leg in legs:
            out.extend(d for d, _ in self.calls.get((leg, layer, name), ()))
        return out

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (_, layer, _), rows in self.calls.items():
            totals[layer] = totals.get(layer, 0.0) + sum(s for _, s in rows)
        return totals


def breakdown(recorder: Recorder, layers: Sequence[str]) -> Dict[str, float]:
    """Layer self times over the traced wall, with the remainder as ``other``."""
    by_layer = recorder.self_by_layer()
    out = {f"self.{layer}_s": by_layer.get(layer, 0.0) for layer in layers}
    covered = sum(by_layer.values())
    out["self.other_s"] = recorder.wall - covered
    out["trace.wall_s"] = recorder.wall
    out["trace.coverage"] = covered / recorder.wall if recorder.wall > 0 else 0.0
    return out


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
