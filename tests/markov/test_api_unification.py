"""The unified solver API: ``method=`` everywhere."""

import warnings

import numpy as np
import pytest

from repro.exceptions import ModelDefinitionError, SolverError
from repro.markov import CTMC, solve_steady_state, solve_transient

TWO_STATE = np.array([[-1e-3, 1e-3], [0.5, -0.5]])


def _chain() -> CTMC:
    chain = CTMC()
    chain.add_transition("up", "down", 1e-3)
    chain.add_transition("down", "up", 0.5)
    return chain


class TestDeprecatedStrategyKwarg:
    """The ``strategy=`` spelling is gone; ``method=`` is the only one."""

    def test_method_alone_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            solve_steady_state(TWO_STATE, method="gth")

    def test_strategy_kwarg_rejected(self):
        with pytest.raises(TypeError):
            solve_steady_state(TWO_STATE, strategy="gth")
        with pytest.raises(TypeError):
            _chain().steady_state_report(strategy="gth")


class TestTransientFrontDoor:
    times = np.array([0.5, 2.0, 10.0])
    initial = np.array([1.0, 0.0])

    def test_auto_matches_uniformization(self):
        auto = solve_transient(TWO_STATE, self.initial, self.times, method="auto")
        uni = solve_transient(TWO_STATE, self.initial, self.times, method="uniformization")
        np.testing.assert_array_equal(auto, uni)

    def test_ode_agrees_with_uniformization(self):
        uni = solve_transient(TWO_STATE, self.initial, self.times, method="uniformization")
        ode = solve_transient(TWO_STATE, self.initial, self.times, method="ode", tol=1e-10)
        np.testing.assert_allclose(ode, uni, atol=1e-7)

    def test_unknown_method_rejected(self):
        with pytest.raises(ModelDefinitionError, match="transient method"):
            solve_transient(TWO_STATE, self.initial, self.times, method="magic")

    def test_ctmc_transient_accepts_auto(self):
        chain = _chain()
        auto = chain.transient(self.times, initial="up", method="auto")
        default = chain.transient(self.times, initial="up")
        np.testing.assert_array_equal(auto, default)

    def test_ctmc_transient_unknown_method_still_rejected(self):
        with pytest.raises(SolverError, match="transient method"):
            _chain().transient(1.0, initial="up", method="magic")


class TestSolverSpans:
    def test_steady_state_spans_record_stages(self):
        from repro.obs import trace

        with trace("solve") as t:
            report = solve_steady_state(TWO_STATE, method="auto")
        outer = t.root.find("solver.steady_state")
        assert len(outer) == 1
        assert outer[0].attributes["method"] == "auto"
        stages = outer[0].find("solver.stage")
        assert [s.attributes["method"] for s in stages] == [report.method]
        assert stages[0].attributes["success"] is True
        # the report is archived on the span as an Observation
        assert outer[0].attributes["solver_report"]["ok"] is True
        assert t.metrics.counter("solver.stage.success", method=report.method).value == 1.0

    def test_transient_span_records_truncation_point(self):
        from repro.obs import trace

        with trace("solve") as t:
            solve_transient(TWO_STATE, np.array([1.0, 0.0]), [1.0, 5.0])
        spans = t.root.find("solver.transient")
        assert len(spans) == 1
        assert spans[0].attributes["method"] == "uniformization"
        assert spans[0].attributes["truncation_point"] >= 1

    def test_transient_overflow_fallback_annotated(self):
        from repro.obs import trace

        with trace("solve") as t:
            solve_transient(
                TWO_STATE,
                np.array([1.0, 0.0]),
                [10.0],
                method="uniformization",
                max_terms=2,
            )
        uni = [
            s
            for s in t.root.find("solver.transient")
            if s.attributes.get("fallback") == "krylov"
        ]
        assert len(uni) == 1
        assert uni[0].find("solver.transient")[1].attributes["method"] == "krylov"
