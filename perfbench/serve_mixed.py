"""Workload ``serve-mixed``: the HTTP daemon over all nine case studies.

``default_registry()`` behind ``create_server`` runs in its own process
(``serve_server.py``).  This process is the load generator: a closed
loop over ``CONNECTIONS`` keep-alive HTTP connections, because dashboard
and what-if callers each wait for their reply before asking again.

* ``mixed`` leg (the headline): each request picks a seeded model; ~70%
  ask for its default point, ~30% for one of a few seeded values on its
  sweep axis, so the result cache serves most of them and model
  evaluation is sub-millisecond: transport, app, cache and batcher
  dominate.  The leg runs at least ``MIN_REQUESTS`` requests so that
  ten or more lie beyond the p99.
* ``whatif`` leg: each request is an array of ``ARRAY_POINTS`` fresh
  seeded values on one model's float axis, so every point misses the
  cache and reaches the micro-batcher and the evaluator.

Set-up runs from launching the daemon process (interpreter start,
imports, registry build, bind) until the first ``GET /healthz`` answers
200.  Every served value must be
byte-identical to an in-process ``evaluate_batch`` over the same
registry entry.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from common import ROOT, SRC, mean, median, pct

SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_server.py")
CONNECTIONS = 2
DEFAULT_SHARE = 0.7
AXIS_VALUES = 8  # seeded what-if values per model in the mixed leg
ARRAY_POINTS = 8  # points per what-if array request
MIXED_SHARE = 0.88  # of the run's seconds; the rest is the what-if leg
MIN_REQUESTS = 1000
MIN_WHATIF_REQUESTS = 200  # a few seconds of what-if load, however short the run
SETUP_REPEATS = 5
CALIBRATION = 0.2  # untraced share of the mixed leg in a traced run
TIMEOUT_S = 60.0

#: model -> (axis, low, high, kind): the E35 sweep axes plus the NFV rate
AXES: Dict[str, Tuple[str, float, float, type]] = {
    "bladecenter": ("cpu_failure_rate", 1e-6, 4e-6, float),
    "boeing": ("event_probability", 5e-4, 2e-3, float),
    "cisco": ("coverage", 0.9, 0.99, float),
    "nfvchain": ("failure_rate", 2e-4, 5e-3, float),
    "rejuvenation": ("interval", 120.0, 480.0, float),
    "sip": ("n_nodes", 4, 8, int),
    "sun": ("coverage", 0.9, 0.99, float),
    "telecom": ("coverage", 0.9, 0.99, float),
    "wfs": ("n_workstations", 3, 8, int),
}
MODELS = sorted(AXES)
FLOAT_MODELS = [m for m in MODELS if AXES[m][3] is float]
#: what each end-to-end metric measures on this workload
MEANING = {
    "throughput_per_s": "serve_qps",
    "second_throughput_per_s": "whatif_points_per_s",
    "latency_p50_ms": "serve_p50_ms",
    "latency_tail_ms": "serve_p99_ms",
}


def _draw(rng, model: str, size: int) -> List[float]:
    _, low, high, kind = AXES[model]
    if kind is int:
        return [int(v) for v in rng.integers(low, high + 1, size)]
    return [float(v) for v in np.exp(rng.uniform(np.log(low), np.log(high), size))]


class Daemon:
    """The serve process: start, command over stdin/stdout, stop."""

    def __init__(self):
        self.launched = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, SERVER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, cwd=ROOT,
        )
        ready = self._read()
        self.host, self.port = ready["host"], ready["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serve daemon exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def wait_healthy(self) -> float:
        """Poll ``/healthz`` until 200; the moment it answered."""
        while True:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter()
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class Client:
    """One keep-alive connection and its seeded request stream."""

    def __init__(self, index: int, rng, daemon: Daemon, grids):
        self.index = index
        self.rng = rng
        self.grids = grids
        self.conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=TIMEOUT_S)
        self.sent = 0
        self.records: List[dict] = []

    def _next(self, leg: str):
        rng = self.rng
        if leg == "whatif":
            model = FLOAT_MODELS[int(rng.integers(len(FLOAT_MODELS)))]
            axis = AXES[model][0]
            return model, [{axis: v} for v in _draw(rng, model, ARRAY_POINTS)]
        model = MODELS[int(rng.integers(len(MODELS)))]
        if rng.random() < DEFAULT_SHARE:
            return model, {}
        grid = self.grids[model]
        return model, {AXES[model][0]: grid[int(rng.integers(len(grid)))]}

    def run(self, leg: str, until: float, done: List[int], minimum: int) -> None:
        while time.perf_counter() < until or done[0] < minimum:
            model, point = self._next(leg)
            rid = f"{self.index}-{self.sent}"
            self.sent += 1
            body = json.dumps(point).encode()
            t0 = time.perf_counter()
            self.conn.request(
                "POST", f"/models/{model}/evaluate?rid={rid}", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            payload = response.read()
            rtt = time.perf_counter() - t0
            done[0] += 1  # only a lower bound under races; used as a stop rule
            self.records.append({
                "leg": leg, "rid": rid, "model": model, "point": point,
                "rtt": rtt, "status": response.status, "payload": payload,
            })


def _drive(clients: List[Client], leg: str, seconds: float, minimum: int = 0) -> float:
    """Run every client concurrently on ``leg``; the leg's wall time."""
    done = [0]
    until = time.perf_counter() + seconds
    threads = [
        threading.Thread(target=c.run, args=(leg, until, done, minimum)) for c in clients
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0


def _check(records: List[dict]) -> Tuple[int, int]:
    """(points attempted, points failed or wrong) against in-process evaluation."""
    from repro.engine import evaluate_batch
    from repro.serve import default_registry

    registry = default_registry()
    expected: Dict[Tuple[str, str], float] = {}
    attempted = failed = 0
    for record in records:
        points = record["point"] if isinstance(record["point"], list) else [record["point"]]
        attempted += len(points)
        if record["status"] != 200:
            failed += len(points)
            continue
        body = json.loads(record["payload"])
        served = body["values"] if isinstance(record["point"], list) else [body["value"]]
        for point, value in zip(points, served):
            key = (record["model"], json.dumps(point, sort_keys=True))
            if key not in expected:
                entry = registry.get(record["model"])
                expected[key] = float(evaluate_batch(entry.evaluate, [point]).outputs[0])
            if value is None or float(value).hex() != expected[key].hex():
                failed += 1
    return attempted, failed


def run(seed: int, seconds: float, trace: bool) -> dict:
    root = np.random.default_rng(seed)
    grid_rng, *client_rngs = root.spawn(CONNECTIONS + 1)
    grids = {m: sorted(set(_draw(grid_rng, m, AXIS_VALUES))) for m in MODELS}

    setups = []
    daemon = None
    try:
        for k in range(SETUP_REPEATS):
            daemon = Daemon()
            setups.append(daemon.wait_healthy() - daemon.launched)
            if k < SETUP_REPEATS - 1:
                daemon.close()
        clients = [Client(i, rng, daemon, grids) for i, rng in enumerate(client_rngs)]
        if not trace:
            mixed_wall = _drive(clients, "mixed", MIXED_SHARE * seconds, MIN_REQUESTS)
            whatif_wall = _drive(clients, "whatif", (1.0 - MIXED_SHARE) * seconds, MIN_WHATIF_REQUESTS)
        else:
            _drive(clients, "calibration", CALIBRATION * seconds)
            before = daemon.command("trace-on")["cache"]
            mixed_wall = _drive(clients, "mixed", (1.0 - CALIBRATION) * seconds, MIN_REQUESTS)
        stats = daemon.command("stats")
        for client in clients:
            client.conn.close()
    finally:
        if daemon is not None:
            daemon.close()

    records = [r for c in clients for r in c.records]
    attempted, failed = _check(records)
    by_leg = {leg: [r for r in records if r["leg"] == leg] for leg in ("calibration", "mixed", "whatif")}
    rtts = [r["rtt"] for r in by_leg["mixed"]]
    details = {
        "setup_s_all": setups,
        "mixed_requests": len(by_leg["mixed"]),
        "whatif_requests": len(by_leg["whatif"]),
        "latency_samples": len(rtts),
        "cache": stats["cache"],
    }
    result = {"attempted": attempted, "failed": failed, "checks": {}, "details": details}
    if not trace:
        whatif_points = sum(len(r["point"]) for r in by_leg["whatif"])
        result["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": stats["peak_rss_mb"],
            "throughput_per_s": len(rtts) / mixed_wall,
            "second_throughput_per_s": whatif_points / whatif_wall,
            "latency_p50_ms": 1e3 * median(rtts),
            "latency_tail_ms": 1e3 * pct(rtts, 99),
        }
        return result

    traced = stats["trace"]
    rows = [(r, traced["requests"][r["rid"]]) for r in by_leg["mixed"] if r["rid"] in traced["requests"]]
    handle = [row["handle_s"] for _, row in rows]
    transport = [r["rtt"] - row["handle_s"] for r, row in rows]
    after = stats["cache"]
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    layer = {
        "serve.transport_p50_ms": 1e3 * median(transport),
        "serve.transport_p99_ms": 1e3 * pct(transport, 99),
        "serve.handle_p50_ms": 1e3 * median(handle),
        "serve.handle_p99_ms": 1e3 * pct(handle, 99),
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.batcher_wait_p50_ms": 1e3 * median(traced["waits"]),
        "serve.batcher_wait_p99_ms": 1e3 * pct(traced["waits"], 99),
        "serve.batcher_points_per_flush": mean(traced["flush_points"]),
        "trace.overhead_frac": mean(rtts) / mean([r["rtt"] for r in by_leg["calibration"]]) - 1.0,
    }
    for model in MODELS:
        layer[f"serve.eval_{model}_p50_ms"] = 1e3 * median(traced["model_eval"].get(model, []))
    # Σ client latency over traced requests, split along the request path;
    # transport is what the client saw outside ServeApp.handle.
    parts = {
        "transport": sum(transport),
        "cache": sum(row["cache_s"] for _, row in rows),
        "batcher": sum(row["waited_s"] - row["flush_eval_s"] for _, row in rows),
        "engine": sum(row["flush_eval_s"] - row["model_s"] for _, row in rows),
        "model": sum(row["model_s"] for _, row in rows),
        "serve": sum(row["handle_s"] - row["cache_s"] - row["waited_s"] for _, row in rows),
    }
    wall = sum(r["rtt"] for r, _ in rows)
    result["breakdown"] = {f"self.{k}_s": v for k, v in parts.items()}
    result["breakdown"].update({
        "self.other_s": wall - sum(parts.values()),
        "trace.wall_s": wall,
        "trace.coverage": sum(parts.values()) / wall,
    })
    details["traced_requests"] = len(rows)
    result["layer_metrics"] = layer
    return result
