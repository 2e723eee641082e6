"""The solver policy table: auto routes at every boundary, the GTH size
rule on every GTH path, and iteration counts returned by the kernels."""

import threading
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.analyze.diagnostics import CODES
from repro.compile import CompiledCTMC
from repro.compile.ctmc import Const
from repro.exceptions import SolverError
from repro.markov import CTMC
from repro.markov.fallback import solve_steady_state
from repro.markov.registry import POLICY, STEADY_STATE
from repro.markov.solvers import solve_transient, steady_state_direct
from repro.obs import trace
from repro.sparse import SparseCTMC, steady_state_iterative

GTH_FIRST = ("gth", "direct", "power")
DIRECT_FIRST = ("direct", "power", "gth")
ITERATIVE = ("gmres", "bicgstab", "power")


def birth_death(n, lam=1.0, mu=1.0, first_rate=None):
    """Birth-death generator; ``first_rate`` overrides the 0 → 1 rate."""
    up = np.full(n - 1, lam)
    if first_rate is not None:
        up[0] = first_rate
    q = sparse.diags([up, np.full(n - 1, mu)], [1, -1], shape=(n, n))
    q = q - sparse.diags(np.asarray(q.sum(axis=1)).ravel())
    return q.tocsr()


def sparse_direct(q):
    return steady_state_direct(q, validated=True)


#: Every stage solved by sparse LU, so the 2 000-state boundary chains
#: need no dense elimination; the route is chosen before any stage runs.
CHEAP_STAGES = {name: sparse_direct for name in ("gth", "direct", "power", "gmres", "bicgstab")}


def auto_route(q, **kwargs):
    report = solve_steady_state(q, stages=CHEAP_STAGES, **kwargs)
    return report.order, report.route


class TestAutoRoutes:
    @pytest.mark.parametrize(
        "n, order, route",
        [(2_000, GTH_FIRST, "gth-first:small"), (2_001, DIRECT_FIRST, "direct-first")],
    )
    def test_gth_first_size_row(self, n, order, route):
        assert POLICY.gth_first_states == 2_000
        assert auto_route(birth_death(n)) == (order, route)

    @pytest.mark.parametrize(
        "ratio, order, route",
        [
            (np.nextafter(1e8, 0.0), DIRECT_FIRST, "direct-first"),
            (1e8, GTH_FIRST, "gth-first:stiff"),
        ],
    )
    def test_gth_first_stiffness_row(self, ratio, order, route):
        assert POLICY.gth_first_stiffness == 1e8
        q = birth_death(2_001, first_rate=ratio)
        assert auto_route(q) == (order, route)

    @pytest.mark.parametrize(
        "n, order, route",
        [(30, GTH_FIRST, "gth-first:small"), (31, ITERATIVE, "iterative")],
    )
    def test_iterative_row(self, monkeypatch, n, order, route):
        assert POLICY.iterative_states == 50_000
        monkeypatch.setattr(POLICY, "iterative_states", 30)
        assert auto_route(birth_death(n)) == (order, route)

    @pytest.mark.parametrize(
        "n, order, route",
        [(30, GTH_FIRST, "gth-first:small"), (31, ITERATIVE, "iterative")],
    )
    def test_reachability_iterative_row(self, monkeypatch, n, order, route):
        assert POLICY.iterative_states_reachability == 5_000
        monkeypatch.setattr(POLICY, "iterative_states_reachability", 30)
        report = SparseCTMC(birth_death(n)).steady_state_report(stages=CHEAP_STAGES)
        assert (report.order, report.route) == (order, route)

    def test_explicit_order_and_method_routes(self):
        q = birth_death(5)
        assert solve_steady_state(q, order=["direct", "gth"]).route == "order"
        assert solve_steady_state(q, method="power").route == "method"

    def test_route_on_report_dict_and_span(self):
        with trace("solve") as t:
            report = solve_steady_state(birth_death(5))
        assert report.to_dict()["route"] == "gth-first:small"
        span = t.root.find("solver.steady_state")[0]
        assert span.attributes["route"] == "gth-first:small"


class TestGTHSizeRule:
    N = 20_001

    def assert_refused_without_densifying(self, solve):
        tracemalloc.start()
        try:
            with pytest.raises(SolverError, match="dense 20001×20001"):
                solve()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6  # the dense copy alone would be 3.2 GB

    def test_ctmc_gth_refuses_before_densifying(self):
        chain = CTMC()
        for i in range(self.N - 1):
            chain.add_transition(i, i + 1, 1.0)
            chain.add_transition(i + 1, i, 2.0)
        chain.generator()
        self.assert_refused_without_densifying(chain.steady_state)

    def test_compiled_gth_refuses_before_densifying(self):
        transitions = []
        for i in range(self.N - 1):
            transitions += [(i, i + 1, Const(1.0)), (i + 1, i, Const(2.0))]
        compiled = CompiledCTMC(range(self.N), transitions)
        self.assert_refused_without_densifying(lambda: compiled.steady_state({}))

    def test_same_message_as_registry_stage(self):
        q = birth_death(self.N)
        with pytest.raises(SolverError) as stage:
            STEADY_STATE.get("gth")(q)
        chain = CTMC()
        for i in range(self.N - 1):
            chain.add_transition(i, i + 1, 1.0)
            chain.add_transition(i + 1, i, 1.0)
        with pytest.raises(SolverError) as front:
            chain.steady_state()
        assert str(front.value) == str(stage.value)


class TestIterationCounts:
    @pytest.mark.parametrize("method", ["gmres", "bicgstab"])
    def test_attempt_carries_kernel_count(self, method):
        q = birth_death(60, lam=0.8)
        _, expected = steady_state_iterative(q, method=method)
        report = solve_steady_state(q, method=method)
        assert report.attempts[0].iterations == expected > 0
        assert report.iterations == expected

    @pytest.mark.parametrize("method", ["gth", "direct", "power"])
    def test_direct_stages_report_none(self, method):
        report = solve_steady_state(birth_death(20), method=method)
        assert report.attempts[0].iterations is None

    def test_bare_vector_kernels_and_overrides_report_none(self):
        q = birth_death(20)
        name = "test_only_bare_vector"
        STEADY_STATE.register_method(name, sparse_direct)
        try:
            report = solve_steady_state(q, method=name)
        finally:
            STEADY_STATE._methods.pop(name)
        assert report.ok and report.attempts[0].iterations is None
        report = solve_steady_state(q, order=["gmres"], stages={"gmres": sparse_direct})
        assert report.ok and report.attempts[0].iterations is None

    def test_concurrent_solves_keep_their_own_counts(self):
        chains = [birth_death(40, lam=0.5), birth_death(90, lam=0.9)]
        expected = [solve_steady_state(q, method="gmres").iterations for q in chains]
        assert expected[0] != expected[1]
        barrier = threading.Barrier(len(chains))
        seen = [[] for _ in chains]

        def solve(k):
            barrier.wait()
            for _ in range(20):
                seen[k].append(solve_steady_state(chains[k], method="gmres").iterations)

        threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(chains))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == [[count] * 20 for count in expected]


def test_ctmc_ode_transient_goes_through_the_front_door():
    chain = CTMC()
    for i in range(9):
        chain.add_transition(i, i + 1, 0.5)
        chain.add_transition(i + 1, i, 1.0)
    times = np.array([0.3, 1.0, 5.0])
    p0 = np.zeros(10)
    p0[0] = 1.0
    got = chain.transient(times, 0, method="ode")
    ref = solve_transient(chain.generator(), p0, times, method="ode")
    assert got.tobytes() == ref.tobytes()


def test_m103_text_formats_the_stiffness_row():
    assert CODES["M103"][1].endswith(f"exceeds {POLICY.gth_first_stiffness:.1g}")
