"""E35 — serving throughput: micro-batching + result cache vs naive.

Claim: for a concurrent mixed workload over the nine case-study
models, the daemon's micro-batcher (which coalesces and deduplicates
concurrent queries into single :func:`~repro.engine.evaluate_batch`
calls) sustains materially higher qps than the naive
one-engine-call-per-request mode, and the result cache compounds the
win on repeated points.  Sustained qps and client-observed p99 latency
for all three modes are recorded in ``BENCH_e35.json``.

The 3x gate (batched >= 3x naive qps) needs real request concurrency,
so it is skipped on machines with fewer than two CPUs — but the record
is always written, skip or not.
"""

import http.client
import json
import os
import threading
import time

import numpy as np

from conftest import print_table, write_record
from repro.serve import ServeApp, create_server, default_registry

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 25


def _workload(models):
    """Per-client request scripts: hot default points with sweep points mixed in.

    Roughly 70% of requests hit a model's default point — the pattern a
    dashboard polling availability produces — which gives both the
    batcher's dedup and the result cache something to coalesce.
    """
    sweeps = {
        "bladecenter": ("cpu_failure_rate", (1e-6, 2e-6, 4e-6)),
        "cisco": ("coverage", (0.9, 0.95, 0.99)),
        "sun": ("coverage", (0.9, 0.95, 0.99)),
        "wfs": ("n_workstations", (3, 5, 8)),
        "sip": ("n_nodes", (4, 6, 8)),
        "telecom": ("coverage", (0.9, 0.95, 0.99)),
        "rejuvenation": ("interval", (120.0, 240.0, 480.0)),
        "boeing": ("event_probability", (5e-4, 1e-3, 2e-3)),
        "nfvchain": ("failure_rate", (2e-4, 1e-3, 5e-3)),
    }
    scripts = []
    for c in range(N_CLIENTS):
        script = []
        for r in range(REQUESTS_PER_CLIENT):
            model = models[(c + r) % len(models)]
            if r % 10 < 7:
                script.append((model, {}))
            else:
                key, values = sweeps[model]
                script.append((model, {key: values[r % len(values)]}))
        scripts.append(script)
    return scripts


def _run_mode(label, registry, scripts, **app_kwargs):
    """Serve one mode on an ephemeral port; return qps + latency stats."""
    app = ServeApp(registry, **app_kwargs)
    latencies = [[] for _ in scripts]
    failures = []
    with create_server(app, port=0) as server:
        barrier = threading.Barrier(len(scripts) + 1)

        def client(i):
            conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
            try:
                barrier.wait()
                for model, point in scripts[i]:
                    body = json.dumps(point).encode()
                    start = time.perf_counter()
                    conn.request(
                        "POST",
                        f"/models/{model}/evaluate",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                    latencies[i].append(time.perf_counter() - start)
                    if response.status != 200 or payload.get("value") is None:
                        failures.append((model, point, response.status))
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(len(scripts))
        ]
        for t in threads:
            t.start()
        barrier.wait()
        started = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        cache_stats = app.cache.stats()
    assert not failures, f"{label}: failed requests {failures[:3]}"
    flat = np.array([s for per_client in latencies for s in per_client])
    return {
        "mode": label,
        "requests": int(flat.size),
        "wall_s": wall,
        "qps": flat.size / wall,
        "mean_ms": 1e3 * float(flat.mean()),
        "p50_ms": 1e3 * float(np.percentile(flat, 50)),
        "p99_ms": 1e3 * float(np.percentile(flat, 99)),
        "cache_hits": cache_stats["hits"],
    }


def test_serving_throughput():
    """Mixed nine-model workload: naive vs batched vs batched+cache."""
    registry = default_registry()
    models = registry.names()
    scripts = _workload(models)

    naive = _run_mode("naive", registry, scripts, batching=False, cache_size=0)
    batched = _run_mode("batched", registry, scripts, cache_size=0)
    cached = _run_mode("batched+cache", registry, scripts, cache_size=1024)

    rows = [
        (m["mode"], m["qps"], m["mean_ms"], m["p50_ms"], m["p99_ms"], m["cache_hits"])
        for m in (naive, batched, cached)
    ]
    print_table(
        f"E35: {N_CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, "
        f"mixed {len(models)}-model workload",
        ["mode", "qps", "mean ms", "p50 ms", "p99 ms", "cache hits"],
        rows,
    )

    n_cpus = os.cpu_count() or 1
    gate_ran = n_cpus >= 2
    speedup = batched["qps"] / naive["qps"]

    write_record(
        "e35",
        {
            "clients": N_CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "models": models,
            "modes": [naive, batched, cached],
            "batched_vs_naive_speedup": speedup,
            "cached_vs_naive_speedup": cached["qps"] / naive["qps"],
            "n_cpus": n_cpus,
            "gate_ran": gate_ran,
        },
    )

    # The cache must actually have been exercised in cached mode only.
    assert naive["cache_hits"] == 0 and batched["cache_hits"] == 0
    assert cached["cache_hits"] > 0

    if not gate_ran:
        print(f"  (3x throughput gate skipped: {n_cpus} CPU(s) < 2; record written)")
        return
    assert speedup >= 3.0, (
        f"batched qps only {speedup:.2f}x naive (need >= 3x); see BENCH_e35.json"
    )


if __name__ == "__main__":
    test_serving_throughput()
