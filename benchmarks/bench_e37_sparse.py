"""E37 — large-state-space solver path: CSR generation + sparse backends.

Scalability claims on the NFV service-chain zoo
(:mod:`repro.casestudies.nfvchain`): (1) a ≥10^5-state chain generates
lazily into CSR at thousands of states/sec with peak RSS bounded far
below the dense footprint (a dense generator alone would be
``8 n²`` ≈ 110 GB at n = 117 649); (2) steady-state through the
standard ``solve_steady_state`` front door auto-selects the iterative
backend and matches the independent-stages analytic oracle, and
transient through ``solve_transient`` auto-selects Krylov stepping and
matches the per-stage transient product; (3) the memory guard turns a
would-be blow-up into a clean :class:`~repro.exceptions.StateSpaceError`;
(4) on small models the BFS-generated chain is *bit-identical*, up to
a state permutation, to the vectorized product-form generator — same
generator bytes from two constructions that share no code.

Wall-clock, states/sec and peak-RSS land in ``BENCH_e37.json``.  The
module doubles as the CI smoke gate::

    python benchmarks/bench_e37_sparse.py --smoke

builds and solves a 10^4-state chain under a time/memory budget and
exits non-zero on any miss — the cheap end-to-end proof that the
sparse path works in this environment.
"""

import argparse
import json
import pathlib
import resource
import sys
import time

import numpy as np

from conftest import print_table, write_record
from repro.casestudies import nfvchain
from repro.exceptions import StateSpaceError
from repro.markov.ctmc import CTMC

# 6 VNFs x 6 replicas -> 7^6 = 117 649 tangible markings.
BIG = nfvchain.NFVChainSpec(n_vnfs=6, replicas=6, min_replicas=1)
# 4 VNFs x 9 replicas -> 10^4 exactly: the smoke-gate chain.
SMOKE = nfvchain.NFVChainSpec(n_vnfs=4, replicas=9, min_replicas=2)

#: generation throughput floor (measured ~14k states/s; 10x headroom)
MIN_STATES_PER_SEC = 1_400.0
#: absolute peak-RSS ceiling for the whole big-model leg
MAX_PEAK_RSS_MB = 4_096.0
#: smoke budget: 10^4 states, build + steady state + transient
SMOKE_BUDGET_S = 120.0
SMOKE_MAX_RSS_MB = 2_048.0

RECORD = {}


def _persist():
    """Write RECORD merged over the committed file: a partial run (one
    pytest test, the smoke gate) must not clobber the other legs."""
    merged = {}
    path = pathlib.Path(__file__).resolve().parent / "BENCH_e37.json"
    if path.exists():
        merged.update(json.loads(path.read_text()))
    merged.update(RECORD)
    write_record("e37", merged)


def _peak_rss_mb():
    """Process peak RSS in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stage_transient_up(spec, times):
    """P[stage up at t | all replicas up at 0] from the small stage chain."""
    chain = CTMC()
    for k in range(spec.replicas, 0, -1):
        chain.add_transition(k, k - 1, k * spec.failure_rate)
    for k in range(spec.replicas):
        chain.add_transition(
            k, k + 1, spec.repair_rate * min(spec.replicas - k, spec.repair_crews)
        )
    probs = chain.transient(times, {spec.replicas: 1.0})
    states = list(chain.states)
    idx = [i for i, s in enumerate(states) if s >= spec.min_replicas]
    return probs[:, idx].sum(axis=1)


def _run_chain(spec, times):
    """Build lazily and solve steady state + transient; return the record."""
    n_expected = nfvchain.state_count(spec)
    t0 = time.perf_counter()
    model = nfvchain.build_nfv_model(spec)
    chain = model.srn.chain
    build_s = time.perf_counter() - t0
    assert chain.n_states == n_expected

    t0 = time.perf_counter()
    report = chain.steady_state_report()
    steady_s = time.perf_counter() - t0
    availability = float(report.pi[chain.up_mask].sum())

    ts = np.asarray(times, dtype=float)
    t0 = time.perf_counter()
    probs = chain.transient(ts)
    transient_s = time.perf_counter() - t0
    avail_t = probs[:, chain.up_mask].sum(axis=1)

    exact = nfvchain.analytic_availability(spec)
    exact_t = _stage_transient_up(spec, ts) ** spec.n_vnfs
    return {
        "n_states": chain.n_states,
        "nnz": chain.nnz,
        "build_s": build_s,
        "states_per_sec": chain.n_states / build_s,
        "steady_state_s": steady_s,
        "steady_state_method": report.method,
        "transient_s": transient_s,
        "availability": availability,
        "availability_err": abs(availability - exact),
        "transient_err": float(np.abs(avail_t - exact_t).max()),
        "peak_rss_mb": _peak_rss_mb(),
    }


def test_1e5_state_chain_end_to_end():
    """≥10^5 states: lazy build at gated states/sec, iterative steady
    state and Krylov transient through the standard front doors, both
    matching the independent-stages oracle, peak RSS bounded."""
    leg = _run_chain(BIG, times=[10.0, 100.0, 1000.0])
    RECORD["big"] = leg
    _persist()

    assert leg["n_states"] >= 100_000
    assert leg["states_per_sec"] >= MIN_STATES_PER_SEC
    assert leg["steady_state_method"] in ("gmres", "bicgstab")
    assert leg["availability_err"] < 1e-8
    assert leg["transient_err"] < 1e-6
    assert leg["peak_rss_mb"] < MAX_PEAK_RSS_MB

    print_table(
        f"E37: NFV chain {BIG.n_vnfs} VNFs x {BIG.replicas} replicas "
        f"({leg['n_states']} states, {leg['nnz']} nnz)",
        ["quantity", "value"],
        [
            ("build s", leg["build_s"]),
            ("states/sec", leg["states_per_sec"]),
            ("steady state s", leg["steady_state_s"]),
            ("method", leg["steady_state_method"]),
            ("transient s", leg["transient_s"]),
            ("availability", leg["availability"]),
            ("avail err", leg["availability_err"]),
            ("transient err", leg["transient_err"]),
            ("peak RSS MB", leg["peak_rss_mb"]),
        ],
    )


def test_memory_guard_raises_cleanly():
    """An absurdly small memory budget dies with StateSpaceError, not OOM."""
    start = time.perf_counter()
    try:
        nfvchain.build_nfv_srn(BIG, memory_limit_mb=0.25).chain
    except StateSpaceError as exc:
        guard_s = time.perf_counter() - start
        RECORD["memory_guard"] = {
            "limit_mb": 0.25,
            "raised": type(exc).__name__,
            "wall_s": guard_s,
        }
        _persist()
    else:  # pragma: no cover - the guard must fire
        raise AssertionError("memory guard did not fire at a 0.25 MB budget")


def test_small_model_bfs_product_form_bit_identical():
    """Default 64-state spec: BFS CSR == product-form CSR, byte for byte.

    The reference is :func:`nfvchain.build_nfv_generator`, the vectorized
    mixed-radix construction with no Petri net and no BFS.  BFS marking
    ``m`` sits at product-form index ``Σ_i m[up{i}] · (replicas+1)^i``;
    permuting the BFS generator into that order must reproduce the
    reference's ``indptr``/``indices``/``data`` bytes and up mask.
    """
    spec = nfvchain.NFVChainSpec()
    reference, reference_up = nfvchain.build_nfv_generator(spec)
    chain = nfvchain.build_nfv_srn(spec).chain
    radix = spec.replicas + 1
    position = np.array(
        [sum(m[f"up{i}"] * radix**i for i in range(spec.n_vnfs)) for m in chain.states]
    )
    order = np.argsort(position)  # order[j]: the BFS state at product index j
    bfs = chain.generator()[order][:, order].tocsr()
    reference = reference.tocsr()
    bfs.sort_indices()
    reference.sort_indices()
    assert bfs.shape == reference.shape
    assert bfs.indptr.tobytes() == reference.indptr.tobytes()
    assert bfs.indices.tobytes() == reference.indices.tobytes()
    assert bfs.data.tobytes() == reference.data.tobytes()
    assert np.array_equal(chain.up_mask[order], reference_up)
    RECORD["bit_identity"] = {"n_states": bfs.shape[0], "identical": True}
    _persist()


def smoke():
    """CI gate: the 10^4-state chain end-to-end under a fixed budget."""
    start = time.perf_counter()
    leg = _run_chain(SMOKE, times=[10.0, 100.0])
    wall = time.perf_counter() - start
    leg["wall_s"] = wall
    RECORD["smoke"] = leg
    _persist()

    failures = []
    if wall > SMOKE_BUDGET_S:
        failures.append(f"wall {wall:.1f}s > budget {SMOKE_BUDGET_S}s")
    if leg["peak_rss_mb"] > SMOKE_MAX_RSS_MB:
        failures.append(
            f"peak RSS {leg['peak_rss_mb']:.0f} MB > {SMOKE_MAX_RSS_MB} MB"
        )
    if leg["availability_err"] > 1e-8:
        failures.append(f"availability err {leg['availability_err']:.2e} > 1e-8")
    if leg["transient_err"] > 1e-6:
        failures.append(f"transient err {leg['transient_err']:.2e} > 1e-6")

    print(
        f"bench_e37 --smoke: {leg['n_states']} states, "
        f"{leg['states_per_sec']:.0f} states/s, steady={leg['steady_state_s']:.2f}s "
        f"({leg['steady_state_method']}), transient={leg['transient_s']:.2f}s, "
        f"RSS={leg['peak_rss_mb']:.0f} MB, wall={wall:.1f}s"
    )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the 10^4-state CI gate (time/memory budget)",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        sys.exit(smoke())
    test_small_model_lazy_eager_bit_identical()
    test_memory_guard_raises_cleanly()
    test_1e5_state_chain_end_to_end()
    print("bench_e37: all legs passed")
