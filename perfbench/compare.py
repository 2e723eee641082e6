"""Compare two sets of benchmark results, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records ``run.py --out DIR`` writes.  For
every workload x end-to-end metric of ``BENCHMARK.json`` this prints
both sides' medians and quartiles and a verdict:

``improved``    the change wins at least 9 of 10 runs paired by seed
                (ties count for neither) and the medians differ by more
                than the base's interquartile range;
``worse``       the change's median is worse than the base's by more
                than the metric's bound;
``unresolved``  the run-to-run spread (interquartile range over median,
                either side) exceeds the bound, unless every change run
                beats every base run;
``unchanged``   otherwise.

Runs pair by seed; unpaired runs are ignored for the win count.  The
exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import load_spec  # noqa: E402

WIN_SHARE = 0.9


def load(folder: str) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> untraced record (the latest per seed)."""
    runs: Dict[str, Dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(folder, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        prov = record.get("provenance", {})
        if prov.get("trace"):
            continue
        runs.setdefault(prov["workload"], {})[int(prov["seed"])] = record
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], change: List[float], pairs: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    spread = max((b3 - b1) / abs(b2), (c3 - c1) / abs(c2))
    gain = sign * (c2 - b2)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > (b3 - b1):
        return "improved", wins
    if spread > bound:
        beats_all = min(change) > max(base) if sign > 0 else max(change) < min(base)
        return ("improved" if beats_all else "unresolved"), wins
    if -gain > bound * abs(b2):
        return "worse", wins
    return "unchanged", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="directory of the base side's records")
    parser.add_argument("change", help="directory of the change side's records")
    args = parser.parse_args(argv)

    spec = load_spec()
    base, change = load(args.base), load(args.change)
    for label, side in (("base", base), ("change", change)):
        shas = {
            (r["provenance"]["git_sha"], r["provenance"]["git_dirty"], r["provenance"]["source_sha256"][:12])
            for runs in side.values() for r in runs.values()
        }
        hosts = {(r["provenance"]["host"], r["provenance"]["nproc"]) for runs in side.values() for r in runs.values()}
        print(f"{label}: {sum(len(r) for r in side.values())} runs; code {sorted(shas)}; hosts {sorted(hosts)}")

    header = f"{'workload':15s} {'metric':24s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}  verdict"
    print(header)
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        if not b_runs or not c_runs:
            print(f"{workload:15s} (no runs on {'base' if not b_runs else 'change'} side)")
            continue
        seeds = sorted(set(b_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            value = lambda record: record["metrics"][name]["value"]  # noqa: E731
            b_vals = [value(r) for r in b_runs.values()]
            c_vals = [value(r) for r in c_runs.values()]
            pairs = [(value(b_runs[s]), value(c_runs[s])) for s in seeds]
            result, wins = verdict(b_vals, c_vals, pairs, metric["better"], metric["bound"])
            worse |= result == "worse"
            b1, b2, b3 = quartiles(b_vals)
            c1, c2, c3 = quartiles(c_vals)
            print(
                f"{workload:15s} {name:24s} "
                f"{b2:12.5g} [{b1:9.4g}, {b3:9.4g}] {c2:12.5g} [{c1:9.4g}, {c3:9.4g}] "
                f"{100.0 * (c2 - b2) / abs(b2):+7.1f}% {wins:>2d}/{len(pairs):<3d} {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
