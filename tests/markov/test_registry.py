"""Unit tests for the pluggable solver-method registry."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import SolverError
from repro.markov.fallback import solve_steady_state
from repro.markov.registry import (
    POLICY,
    STEADY_STATE,
    TRANSIENT,
    SolverMethod,
    SolverRegistry,
)


def q2():
    return sparse.csr_matrix(np.array([[-1.0, 1.0], [2.0, -2.0]]))


class TestSolverMethod:
    def test_pre_checks_run_in_order_before_kernel(self):
        calls = []

        def check_a(*a, **k):
            calls.append("a")

        def check_b(*a, **k):
            calls.append("b")

        def kernel(*a, **k):
            calls.append("kernel")
            return "result"

        method = SolverMethod("m", kernel, pre_checks=(check_a, check_b))
        assert method("arg") == "result"
        assert calls == ["a", "b", "kernel"]

    def test_failing_pre_check_blocks_kernel(self):
        ran = []

        def guard(*a, **k):
            raise SolverError("nope")

        method = SolverMethod("m", lambda *a: ran.append(True), pre_checks=(guard,))
        with pytest.raises(SolverError, match="nope"):
            method("arg")
        assert not ran


class TestSolverRegistry:
    def test_register_resolve_get(self):
        reg = SolverRegistry("test")
        reg.register_method("fast", lambda q: q, aliases=("quick",))
        assert reg.resolve("quick") == "fast"
        assert "quick" in reg and "fast" in reg
        assert reg.get("quick") is reg.get("fast")
        assert reg.names() == ("fast",)

    def test_unknown_method_lists_registered(self):
        reg = SolverRegistry("test")
        reg.register_method("only", lambda q: q)
        with pytest.raises(SolverError, match=r"unknown test method 'nope'.*only"):
            reg.get("nope")

    def test_override_guard(self):
        reg = SolverRegistry("test")
        reg.register_method("taken", lambda q: 1, aliases=("also",))
        with pytest.raises(SolverError, match=r"\['taken'\] already registered"):
            reg.register_method("taken", lambda q: 2)
        with pytest.raises(SolverError, match="already registered"):
            reg.register_method("fresh", lambda q: 2, aliases=("also",))
        assert reg.get("taken")(None) == 1

    def test_replace_overrides(self):
        reg = SolverRegistry("test")
        reg.register_method("m", lambda q: 1)
        reg.register_method("m", lambda q: 2, replace=True)
        assert reg.get("m")(None) == 2

    def test_stages_returns_fresh_dict(self):
        stages = STEADY_STATE.stages()
        stages["gth"] = None
        assert STEADY_STATE.stages()["gth"] is not None


class TestBuiltinRegistries:
    def test_steady_state_names(self):
        assert set(STEADY_STATE.names()) == {
            "gth",
            "direct",
            "power",
            "gmres",
            "bicgstab",
        }

    def test_transient_names_and_alias(self):
        assert set(TRANSIENT.names()) == {"uniformization", "ode", "krylov"}
        assert TRANSIENT.resolve("expm_multiply") == "krylov"

    def test_gth_pre_check_refuses_dense_blowup(self):
        n = POLICY.gth_max_states + 1
        huge = sparse.identity(n, format="csr") * 0.0
        with pytest.raises(SolverError, match="dense"):
            STEADY_STATE.get("gth")(huge)

    def test_gth_supports_predicate_bounds_auto(self):
        method = STEADY_STATE.get("gth")

        class Diag:
            n_states = POLICY.gth_max_states + 1

        assert method.supports is not None
        assert not method.supports(Diag())
        Diag.n_states = 10
        assert method.supports(Diag())


class TestFrontDoorIntegration:
    def test_custom_method_reaches_front_door(self):
        name = "test_only_custom"

        def kernel(q):
            # the true stationary vector of q2 — the front door's
            # residual guard verifies whatever a custom kernel returns
            return np.array([2.0 / 3.0, 1.0 / 3.0])

        STEADY_STATE.register_method(name, kernel)
        try:
            report = solve_steady_state(q2(), method=name)
            assert report.method == name
            np.testing.assert_allclose(report.pi, [2.0 / 3.0, 1.0 / 3.0])
        finally:
            STEADY_STATE._methods.pop(name, None)

    def test_all_builtin_methods_agree(self):
        q = q2()
        exact = solve_steady_state(q, method="gth").pi
        for method in STEADY_STATE.names():
            pi = solve_steady_state(q, method=method).pi
            np.testing.assert_allclose(pi, exact, atol=1e-8, err_msg=method)

    def test_unknown_front_door_method_rejected(self):
        with pytest.raises(SolverError, match="unknown method"):
            solve_steady_state(q2(), method="jacobi-seidel")
