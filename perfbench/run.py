"""Run one benchmark workload and print its result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse-sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no instrumentation; ``--trace 1`` wraps the library's public
functions in this process (and in the serve daemon's process) and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the full record, with provenance, checks and the layer
breakdown, is written under ``--out`` (default ``perfbench/results``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# One BLAS thread per process, set before numpy loads: on a 2-CPU host
# OpenBLAS threads oversubscribe the cores the pool workers and HTTP
# threads already use, which made sparse solves ~1.8x slower and noisier.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from common import ROOT, SRC, WORK, load_spec, log, provenance  # noqa: E402

WORKLOADS = {
    "serve-mixed": "serve_mixed",
    "campaign-store": "campaign_store",
    "sparse-sweep": "sparse_sweep",
}


def _metrics(values: dict, declared: list, no_samples: list) -> dict:
    """Attach declared units; refuse a missing or undeclared metric.

    A statistic over no samples (NaN) is reported as 0 and its name
    appended to ``no_samples``: JSON has no NaN.
    """
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    out = {}
    for m in declared:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            no_samples.append(m["name"])
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=WORK, help="directory for the full result record")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        log(f"no library sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    trace = bool(args.trace)
    started = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(args.seed, args.seconds, trace)

    no_samples: list = []
    if trace:
        # per-layer metrics of layers this workload never reaches read 0
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        values.update(result.pop("breakdown"))
        values.update(result.pop("layer_metrics"))
        metrics = _metrics(values, spec["per_layer"], no_samples)
    else:
        metrics = _metrics(result.pop("metrics"), spec["end_to_end"], no_samples)
    failed = int(result["failed"])
    line = {
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }
    meaning = {} if trace else module.MEANING
    record = {
        "provenance": provenance(args.workload, args.seed, int(args.seconds), trace),
        "meaning": meaning,
        "no_samples": no_samples,
        "error_frac": failed / max(1, line["attempted"]),
        "run_wall_s": time.perf_counter() - started,
        **line,
        **{k: v for k, v in result.items() if k not in ("attempted", "failed")},
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out,
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={line['attempted']} failed={failed} error_frac={record['error_frac']:.3g}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']:6s} {meaning.get(name, '')}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
