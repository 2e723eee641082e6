"""Tests for the steady-state solver fallback chain and its diagnostics."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ModelDefinitionError, SolverError
from repro.markov import (
    CTMC,
    GeneratorDiagnostics,
    SolverReport,
    generator_diagnostics,
    gth_solve,
    solve_steady_state,
    transient_ode,
    transient_uniformization,
    validate_generator,
)
from repro.markov.registry import POLICY
from repro.markov.solvers import poisson_truncation_point
from repro.robust import FailingCallable

TWO_STATE = np.array([[-1.0, 1.0], [2.0, -2.0]])
TWO_STATE_PI = np.array([2.0 / 3.0, 1.0 / 3.0])


def stiff_generator():
    """A repairable system with rates spanning 9 orders of magnitude."""
    lam, mu = 1e-8, 10.0
    return np.array(
        [
            [-2 * lam, 2 * lam, 0.0],
            [mu, -(mu + lam), lam],
            [0.0, mu, -mu],
        ]
    )


def birth_death(n, lam=1.0, mu=2.0):
    q = sparse.lil_matrix((n, n))
    for i in range(n - 1):
        q[i, i + 1] = lam
        q[i + 1, i] = mu
    diag = -np.asarray(q.sum(axis=1)).ravel()
    q.setdiag(diag)
    return q.tocsr()


class TestValidateGenerator:
    def test_accepts_valid_dense_and_sparse(self):
        assert validate_generator(TWO_STATE) == 2
        assert validate_generator(sparse.csr_matrix(TWO_STATE)) == 2

    def test_rejects_non_square(self):
        with pytest.raises(ModelDefinitionError, match="square"):
            validate_generator(np.zeros((2, 3)))

    def test_rejects_bad_row_sum_naming_the_row(self):
        q = np.array([[-1.0, 1.0], [2.0, -1.5]])
        with pytest.raises(ModelDefinitionError, match="row 1"):
            validate_generator(q)

    def test_rejects_negative_off_diagonal(self):
        q = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        with pytest.raises(ModelDefinitionError, match="negative off-diagonal"):
            validate_generator(q)

    def test_rejects_non_finite(self):
        q = np.array([[-np.inf, np.inf], [1.0, -1.0]])
        with pytest.raises(ModelDefinitionError, match="finite"):
            validate_generator(q)

    def test_tolerance_scales_with_magnitude(self):
        # A row-sum error far below the rate magnitudes must pass.
        q = np.array([[-1e9, 1e9 + 1e-4], [2.0, -2.0]])
        assert validate_generator(q) == 2

    def test_all_solvers_share_the_validation(self):
        from repro.markov import steady_state_direct, steady_state_power

        bad = np.array([[-1.0, 1.0], [2.0, -1.0]])
        for solver in (gth_solve, steady_state_direct, steady_state_power):
            with pytest.raises(ModelDefinitionError):
                solver(bad)


class TestDiagnostics:
    def test_basic_facts(self):
        diag = generator_diagnostics(TWO_STATE)
        assert isinstance(diag, GeneratorDiagnostics)
        assert diag.n_states == 2
        assert diag.nnz == 2
        assert diag.max_rate == 2.0
        assert diag.min_rate == 1.0
        assert diag.stiffness_ratio == 2.0
        assert diag.irreducible

    def test_stiffness_reflects_rate_span(self):
        diag = generator_diagnostics(stiff_generator())
        assert diag.stiffness_ratio >= 1e8

    def test_reducible_chain_detected(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        diag = generator_diagnostics(q)
        assert diag.n_strong_components == 2
        assert not diag.irreducible

    def test_never_raises_on_defective_input(self):
        # Observational: a broken generator still gets diagnosed.
        q = np.array([[-1.0, 0.5], [2.0, -2.0]])
        diag = generator_diagnostics(q)
        assert diag.max_row_sum_error == pytest.approx(0.5)


class TestSolveSteadyState:
    def test_auto_solves_and_reports(self):
        report = solve_steady_state(TWO_STATE)
        assert isinstance(report, SolverReport)
        assert report.ok
        assert report.method == "gth"
        assert report.fallbacks_used == 0
        np.testing.assert_allclose(report.pi, TWO_STATE_PI, atol=1e-12)
        assert report.attempts[0].residual <= 1e-8

    def test_stiff_chain_solved_by_gth_first(self):
        report = solve_steady_state(stiff_generator())
        assert report.order[0] == "gth"
        assert report.ok
        assert np.isclose(report.pi.sum(), 1.0)

    def test_large_well_conditioned_chain_prefers_direct(self, monkeypatch):
        q = birth_death(50)
        monkeypatch.setattr(POLICY, "gth_first_states", 10)
        report = solve_steady_state(q)
        assert report.order[0] == "direct"
        assert report.method == "direct"
        expected = solve_steady_state(q, method="gth").pi
        np.testing.assert_allclose(report.pi, expected, atol=1e-10)

    def test_single_stage_methods_agree(self):
        results = {
            name: solve_steady_state(TWO_STATE, method=name).pi
            for name in ("gth", "direct", "power")
        }
        for pi in results.values():
            np.testing.assert_allclose(pi, TWO_STATE_PI, atol=1e-9)

    def test_forced_first_stage_failure_falls_back(self):
        failing = FailingCallable(lambda q: gth_solve(q.toarray()), n_failures=1)
        report = solve_steady_state(TWO_STATE, stages={"gth": failing})
        assert report.method == "direct"
        assert report.fallbacks_used == 1
        assert not report.attempts[0].success
        assert "injected solver failure" in report.attempts[0].error
        np.testing.assert_allclose(report.pi, TWO_STATE_PI, atol=1e-10)

    def test_nan_corruption_is_caught_by_the_guard(self):
        corrupting = FailingCallable(
            lambda q: gth_solve(q.toarray()), n_failures=1, corrupt=True
        )
        report = solve_steady_state(TWO_STATE, stages={"gth": corrupting})
        assert report.method == "direct"
        assert "non-finite" in report.attempts[0].error

    def test_residual_guard_rejects_wrong_vectors(self):
        wrong = lambda q: np.array([0.5, 0.5])  # normalized but not stationary
        report = solve_steady_state(TWO_STATE, stages={"gth": wrong})
        assert not report.attempts[0].success
        assert "residual" in report.attempts[0].error
        assert report.method == "direct"

    def test_every_stage_failing_raises_with_report(self):
        always = FailingCallable(lambda q: None, n_failures=None)
        with pytest.raises(SolverError) as excinfo:
            solve_steady_state(
                TWO_STATE, stages={"gth": always, "direct": always, "power": always}
            )
        report = excinfo.value.report
        assert len(report.attempts) == 3
        assert not report.ok

    def test_reducible_chain_rejected_before_solving(self):
        q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ModelDefinitionError, match="irreducible"):
            solve_steady_state(q)

    def test_unknown_method_and_stage_rejected(self):
        with pytest.raises(SolverError, match="method"):
            solve_steady_state(TWO_STATE, method="magic")
        with pytest.raises(SolverError, match="stage"):
            solve_steady_state(TWO_STATE, order=["gth", "quantum"])

    def test_explicit_order_is_honoured(self):
        report = solve_steady_state(TWO_STATE, order=["power", "gth"])
        assert report.order == ("power", "gth")
        assert report.method == "power"


class TestCTMCIntegration:
    def _chain(self):
        chain = CTMC()
        chain.add_transition("up", "down", 1.0)
        chain.add_transition("down", "up", 2.0)
        return chain

    def test_auto_method_matches_gth(self):
        chain = self._chain()
        auto = chain.steady_state(method="auto")
        gth = chain.steady_state(method="gth")
        for state in ("up", "down"):
            assert auto[state] == pytest.approx(gth[state], abs=1e-12)

    def test_default_method_unchanged(self):
        # Existing call sites see exactly the old behaviour.
        pi = self._chain().steady_state()
        assert pi["up"] == pytest.approx(2.0 / 3.0)

    def test_report_accessor(self):
        report = self._chain().steady_state_report()
        assert report.ok
        assert report.diagnostics.n_states == 2


class TestPoissonTruncationGuard:
    def test_too_small_limit_raises_instead_of_truncating(self):
        with pytest.raises(SolverError, match="Poisson truncation"):
            poisson_truncation_point(50.0, 1e-10, limit=10)

    def test_default_limit_is_generous(self):
        for lam_t in (0.5, 10.0, 500.0, 5000.0):
            k = poisson_truncation_point(lam_t, 1e-12)
            assert k > lam_t

    def test_tight_tolerance_still_terminates(self):
        # Near machine epsilon the cumulative sum plateaus; the geometric
        # tail bound must stop the walk instead of raising.
        k = poisson_truncation_point(62.9238, 1e-15)
        assert 62 < k < 300


class TestTransientOdeFallback:
    def _chain_matrices(self):
        q = sparse.csr_matrix(TWO_STATE)
        p0 = np.array([1.0, 0.0])
        ts = np.array([0.1, 0.5, 2.0])
        return q, p0, ts

    def test_ode_matches_uniformization(self):
        q, p0, ts = self._chain_matrices()
        uni = transient_uniformization(q, p0, ts)
        ode = transient_ode(q, p0, ts)
        np.testing.assert_allclose(ode, uni, atol=1e-6)

    def test_unsorted_times_are_returned_in_input_order(self):
        q, p0, _ = self._chain_matrices()
        ts = np.array([2.0, 0.1, 0.5])
        ode = transient_ode(q, p0, ts)
        sorted_out = transient_ode(q, p0, np.sort(ts))
        np.testing.assert_allclose(ode[1], sorted_out[0], atol=1e-12)
        np.testing.assert_allclose(ode[0], sorted_out[2], atol=1e-12)

    def test_huge_lambda_t_falls_back_to_ode(self):
        # Λt so large the truncation point exceeds max_terms: the guard
        # must reroute to the ODE integrator, not blow up or silently
        # truncate.
        q, p0, _ = self._chain_matrices()
        ts = np.array([1.0])
        guarded = transient_uniformization(q, p0, ts, max_terms=3)
        reference = transient_uniformization(q, p0, ts)
        np.testing.assert_allclose(guarded, reference, atol=1e-6)
