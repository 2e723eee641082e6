"""NFV service chain: spec validation and three-route cross-validation."""

import numpy as np
import pytest

from repro.casestudies import nfvchain
from repro.exceptions import ModelDefinitionError
from repro.markov.fallback import solve_steady_state


class TestSpec:
    def test_default_state_count(self):
        assert nfvchain.state_count(nfvchain.NFVChainSpec()) == 64

    def test_state_count_scales(self):
        spec = nfvchain.NFVChainSpec(n_vnfs=6, replicas=6)
        assert nfvchain.state_count(spec) == 7**6  # 117 649

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_vnfs": 0},
            {"replicas": 0},
            {"min_replicas": 0},
            {"min_replicas": 4},  # > replicas=3
            {"repair_crews": 0},
            {"failure_rate": 0.0},
            {"repair_rate": -1.0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ModelDefinitionError):
            nfvchain.NFVChainSpec(**kwargs)


class TestResolveParameters:
    def test_partial_assignment_merges_defaults(self):
        spec = nfvchain.resolve_parameters({"n_vnfs": 5})
        assert spec.n_vnfs == 5 and spec.replicas == 3

    def test_unknown_name_listed(self):
        with pytest.raises(ModelDefinitionError, match="unknown NFV parameter"):
            nfvchain.resolve_parameters({"n_vnf": 2})

    def test_non_integer_count_rejected(self):
        with pytest.raises(ModelDefinitionError, match="whole number"):
            nfvchain.resolve_parameters({"replicas": 2.5})

    def test_non_finite_rejected(self):
        with pytest.raises(ModelDefinitionError, match="finite"):
            nfvchain.resolve_parameters({"failure_rate": float("nan")})


class TestCrossValidation:
    def test_lazy_srn_matches_analytic(self):
        spec = nfvchain.NFVChainSpec()
        model = nfvchain.build_nfv_model(spec)
        assert model.steady_state_availability() == pytest.approx(
            nfvchain.analytic_availability(spec), abs=1e-12
        )

    def test_srn_without_up_mask_matches_analytic(self):
        # No generation-time up mask: the adapter classifies markings
        # with the predicate itself.
        spec = nfvchain.NFVChainSpec(n_vnfs=2, replicas=2)
        model = nfvchain.build_nfv_model(spec, up=None)
        assert model.srn.chain.up_mask is None
        assert model.steady_state_availability() == pytest.approx(
            nfvchain.analytic_availability(spec), abs=1e-12
        )

    def test_product_form_generator_matches_analytic(self):
        spec = nfvchain.NFVChainSpec()
        q, mask = nfvchain.build_nfv_generator(spec)
        assert q.shape == (64, 64)
        np.testing.assert_allclose(
            np.asarray(q.sum(axis=1)).ravel(), 0.0, atol=1e-12
        )
        pi = solve_steady_state(q).pi
        assert float(pi[mask].sum()) == pytest.approx(
            nfvchain.analytic_availability(spec), abs=1e-12
        )

    def test_generator_matches_exact_product_distribution(self):
        spec = nfvchain.NFVChainSpec(n_vnfs=2, replicas=3)
        q, _ = nfvchain.build_nfv_generator(spec)
        pi = solve_steady_state(q).pi
        # independent stages: π(s) = Π_i marginal(digit_i)
        from repro.markov.ctmc import CTMC

        chain = CTMC()
        for k in range(spec.replicas, 0, -1):
            chain.add_transition(k, k - 1, k * spec.failure_rate)
        for k in range(spec.replicas):
            chain.add_transition(
                k, k + 1, spec.repair_rate * min(spec.replicas - k, spec.repair_crews)
            )
        marg_d = chain.steady_state()
        marg = np.array([marg_d[k] for k in range(spec.replicas + 1)])
        radix = spec.replicas + 1
        idx = np.arange(len(pi))
        exact = marg[idx % radix] * marg[(idx // radix) % radix]
        np.testing.assert_allclose(pi, exact, atol=1e-10)

    def test_min_replicas_tightens_availability(self):
        loose = nfvchain.analytic_availability(nfvchain.NFVChainSpec(min_replicas=1))
        tight = nfvchain.analytic_availability(nfvchain.NFVChainSpec(min_replicas=3))
        assert tight < loose

    def test_up_mask_attached_by_lazy_build(self):
        chain = nfvchain.build_nfv_srn(nfvchain.NFVChainSpec()).chain
        assert chain.up_mask is not None
        assert 0 < chain.up_mask.sum() < chain.n_states


class TestEvaluator:
    def test_defaults(self):
        a = nfvchain.evaluate_availability({})
        assert a == pytest.approx(
            nfvchain.analytic_availability(nfvchain.NFVChainSpec()), abs=1e-10
        )

    def test_above_solver_limit_uses_analytic(self):
        big = {"n_vnfs": 8, "replicas": 6}  # 7^8 ≈ 5.8e6 states
        a = nfvchain.evaluate_availability(big, solver_limit=200_000)
        spec = nfvchain.resolve_parameters(big)
        assert a == pytest.approx(nfvchain.analytic_availability(spec), abs=1e-14)

    def test_registered_in_default_registry(self):
        from repro.serve import default_registry

        entry = default_registry(probe=False).get("nfvchain")
        assert entry.size["n_states"] == 64
        assert "replicas" in entry.parameters
        assert entry.report is not None and entry.report.ok
