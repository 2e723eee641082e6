"""Cross-backend agreement and error paths for the sparse solver kernels."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConvergenceError, SolverError
from repro.markov.fallback import solve_steady_state
from repro.markov.solvers import (
    solve_transient,
    gth_solve,
    transient_uniformization,
)
from repro.markov.registry import POLICY
from repro.sparse import augmented_system, steady_state_iterative, transient_krylov

AGREEMENT_CASES = [
    ("gmres", "jacobi"),
    ("gmres", "ilu"),
    ("gmres", "none"),
    ("bicgstab", "jacobi"),
    ("bicgstab", "ilu"),
]


def birth_death(n=50, lam=0.4, mu=1.0):
    rows, cols, vals = [], [], []
    for k in range(n - 1):
        rows += [k, k + 1]
        cols += [k + 1, k]
        vals += [lam, mu]
    q = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tolil()
    diag = -np.asarray(q.sum(axis=1)).ravel()
    q.setdiag(diag)
    return q.tocsr()


class TestAugmentedSystem:
    def test_shapes_and_normalization_row(self):
        q = birth_death(10)
        a, b = augmented_system(q)
        assert a.shape == (10, 10)
        assert b[-1] == 1.0 and b[:-1].sum() == 0.0
        np.testing.assert_allclose(a.tocsr()[-1].toarray().ravel(), np.ones(10))

    def test_solution_of_augmented_system_is_pi(self):
        q = birth_death(20)
        a, b = augmented_system(q)
        pi = sparse.linalg.spsolve(a.tocsc(), b)
        np.testing.assert_allclose(np.abs(pi @ q).max(), 0.0, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0)


class TestIterativeSteadyState:
    @pytest.mark.parametrize(
        "method,preconditioner",
        AGREEMENT_CASES,
        ids=[f"steady_state_{m}-{p}" for m, p in AGREEMENT_CASES],
    )
    def test_agrees_with_gth(self, method, preconditioner):
        q = birth_death(80)
        exact = gth_solve(q.toarray())
        pi, iterations = steady_state_iterative(q, method=method, preconditioner=preconditioner)
        np.testing.assert_allclose(pi, exact, atol=1e-8)
        assert iterations > 0

    def test_unpreconditioned_bicgstab_breakdown_is_solver_error(self):
        # why "jacobi" is the default: bare BiCGSTAB can break down on
        # the augmented system, and the breakdown must surface as a
        # stage-failing SolverError (not a silent wrong vector)
        with pytest.raises(SolverError, match="broke down"):
            steady_state_iterative(birth_death(80), method="bicgstab", preconditioner="none")

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError, match="method"):
            steady_state_iterative(birth_death(5), method="cg")

    def test_unknown_preconditioner_rejected(self):
        with pytest.raises(SolverError, match="preconditioner"):
            steady_state_iterative(birth_death(5), preconditioner="amg")

    def test_convergence_error_on_iteration_cap(self):
        q = birth_death(200, lam=0.999, mu=1.0)
        with pytest.raises(ConvergenceError):
            steady_state_iterative(
                q, method="gmres", max_iterations=1, restart=1, preconditioner="none"
            )

    def test_registered_in_front_door(self):
        q = birth_death(40)
        exact = gth_solve(q.toarray())
        for method in ("gmres", "bicgstab"):
            report = solve_steady_state(q, method=method)
            assert report.method == method
            np.testing.assert_allclose(report.pi, exact, atol=1e-8)

    def test_auto_selects_iterative_above_limit(self, monkeypatch):
        q = birth_death(30)
        monkeypatch.setattr(POLICY, "iterative_states", 20)
        report = solve_steady_state(q)
        assert report.method == "gmres"  # the winning stage
        assert report.attempts[0].method == "gmres"


class TestKrylovTransient:
    def test_agrees_with_uniformization(self):
        q = birth_death(60)
        p0 = np.zeros(60)
        p0[0] = 1.0
        ts = np.array([0.1, 1.0, 10.0])
        uni = transient_uniformization(q, p0, ts)
        kry = transient_krylov(q, p0, ts)
        np.testing.assert_allclose(kry, uni, atol=1e-9)

    def test_unsorted_times_returned_in_input_order(self):
        q = birth_death(20)
        p0 = np.zeros(20)
        p0[0] = 1.0
        shuffled = np.array([5.0, 0.5, 2.0])
        out = transient_krylov(q, p0, shuffled)
        ordered = transient_krylov(q, p0, np.sort(shuffled))
        np.testing.assert_allclose(out[0], ordered[2], atol=1e-12)
        np.testing.assert_allclose(out[1], ordered[0], atol=1e-12)

    def test_time_zero_is_initial(self):
        q = birth_death(10)
        p0 = np.zeros(10)
        p0[3] = 1.0
        out = transient_krylov(q, p0, [0.0])
        np.testing.assert_allclose(out[0], p0)

    def test_negative_times_rejected(self):
        q = birth_death(5)
        with pytest.raises(SolverError, match="non-negative"):
            transient_krylov(q, np.eye(5)[0], [-1.0])

    def test_bad_initial_shape_rejected(self):
        q = birth_death(5)
        with pytest.raises(SolverError, match="shape"):
            transient_krylov(q, np.ones(3), [1.0])

    def test_front_door_method_and_alias(self):
        q = birth_death(30)
        p0 = np.eye(30)[0]
        ts = np.array([1.0, 4.0])
        direct = transient_krylov(q, p0, ts)
        for method in ("krylov", "expm_multiply"):
            out = solve_transient(q, p0, ts, method=method)
            np.testing.assert_allclose(out, direct, atol=1e-12)

    def test_rows_remain_distributions(self):
        q = birth_death(40)
        out = transient_krylov(q, np.eye(40)[0], [0.5, 5.0, 50.0])
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert out.min() > -1e-12
