"""Compiled sparse sweeps: frozen-CSR refills, warm starts, wiring."""

import pickle

import numpy as np
import pytest

from repro.casestudies import nfvchain
from repro.casestudies.nfvchain import (
    NFVChainSpec,
    analytic_availability,
    compile_nfv_chain,
)
from repro.compile import (
    CompiledNFVChain,
    CompiledSparseCTMC,
    Scaled,
    compile_model,
    continuation_order,
    supports_compilation,
)
from repro.compile.ctmc import Param
from repro.exceptions import ModelDefinitionError, SolverError
from repro.markov.registry import POLICY
from repro.obs import Tracer, activate_tracer
from repro.petrinet import StochasticRewardNet
from repro.petrinet.templates import (
    machine_repairman,
    queue_with_breakdowns,
    redundant_pool_with_coverage,
)
from repro.sparse.reachability import build_sparse_reachability


def _repairman_case():
    net = machine_repairman(6, failure_rate=0.01, repair_rate=1.0, n_crews=2)

    def terms(tr, m):
        if tr.name == "fail":
            return Scaled(float(m["up"]), "failure_rate")
        return Scaled(float(min(m["down"], 2)), "repair_rate")

    values = {"failure_rate": 0.01, "repair_rate": 1.0}
    up = lambda m: m["up"] >= 1  # noqa: E731
    return net, terms, values, up


def _pool_case():
    net = redundant_pool_with_coverage(
        5, failure_rate=0.01, repair_rate=1.0, coverage=0.95,
        uncovered_recovery_rate=0.5,
    )

    def terms(tr, m):
        if tr.name == "fail":
            return Scaled(float(m["up"]), "failure_rate")
        if tr.name == "repair":
            return Scaled(float(m["repairing"]), "repair_rate")
        return Param("uncovered_recovery_rate")

    values = {
        "failure_rate": 0.01,
        "repair_rate": 1.0,
        "uncovered_recovery_rate": 0.5,
    }
    up = lambda m: m["outage"] == 0 and m["up"] >= 1  # noqa: E731
    return net, terms, values, up


def _queue_case():
    net = queue_with_breakdowns(
        8, arrival_rate=2.0, service_rate=5.0, failure_rate=0.05,
        repair_rate=1.0,
    )

    def terms(tr, m):
        return {
            "arrive": Param("arrival_rate"),
            "serve": Param("service_rate"),
            "break": Param("failure_rate"),
            "fix": Param("repair_rate"),
        }[tr.name]

    values = {
        "arrival_rate": 2.0,
        "service_rate": 5.0,
        "failure_rate": 0.05,
        "repair_rate": 1.0,
    }
    up = lambda m: m["server_up"] >= 1  # noqa: E731
    return net, terms, values, up


def _queue_transition_names():
    net = queue_with_breakdowns(
        2, arrival_rate=1.0, service_rate=2.0, failure_rate=0.1, repair_rate=1.0
    )
    return sorted(net.transitions)


CASES = [
    pytest.param(_repairman_case, id="machine_repairman"),
    pytest.param(_pool_case, id="redundant_pool_with_coverage"),
    pytest.param(_queue_case, id="queue_with_breakdowns"),
]


def _build(case):
    net, terms, values, up = case()
    result = build_sparse_reachability(
        net, up=up, rate_terms=terms, rate_values=values
    )
    return result, values


class TestFrozenStructureRefill:
    @pytest.mark.parametrize("case", CASES)
    def test_refill_leaves_pattern_byte_identical(self, case):
        result, values = _build(case)
        compiled = result.compiled
        q = result.chain.generator()
        before = (q.indices.tobytes(), q.indptr.tobytes())
        perturbed = {k: v * 3.7 for k, v in values.items()}
        for point in (values, perturbed, values):
            compiled.fill(point)
            qc = compiled.generator(point)
            assert qc.indices.tobytes() == before[0]
            assert qc.indptr.tobytes() == before[1]

    @pytest.mark.parametrize("case", CASES)
    def test_refill_at_build_values_matches_lazy_data(self, case):
        result, values = _build(case)
        data = result.compiled.fill(values)
        expected = result.chain.generator().data
        if result.compiled._has_duplicates:
            np.testing.assert_allclose(data, expected, rtol=1e-15, atol=0.0)
        else:
            assert data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_availability_matches_uncompiled_chain(self, case):
        result, values = _build(case)
        assert result.compiled.availability(values) == pytest.approx(
            result.chain.availability(), abs=1e-12
        )

    def test_no_rate_terms_means_no_compiled(self):
        net, _, _, up = _repairman_case()
        result = build_sparse_reachability(net, up=up)
        assert result.compiled is None

    def test_distinct_terms_are_interned_once(self):
        result, _ = _build(_queue_case)
        # constant-rate net: one term per transition name, shared by
        # every firing of that transition across the state space
        assert len(result.compiled._terms) == len(_queue_transition_names())

    def test_availability_requires_up_mask(self):
        net, terms, values, _ = _repairman_case()
        result = build_sparse_reachability(
            net, rate_terms=terms, rate_values=values
        )
        with pytest.raises(ModelDefinitionError, match="up-state mask"):
            result.compiled.availability(values)

    def test_rejects_unknown_parameter(self):
        result, values = _build(_repairman_case)
        with pytest.raises(ModelDefinitionError, match="unknown parameter"):
            result.compiled({"nope": 1.0})

    def test_pickle_roundtrip(self):
        result, values = _build(_repairman_case)
        clone = pickle.loads(pickle.dumps(result.compiled))
        assert clone.availability(values) == result.compiled.availability(values)
        assert clone.parameters == result.compiled.parameters


class TestSweep:
    def test_sweep_matches_cold_solves(self):
        result, values = _build(_repairman_case)
        compiled = result.compiled
        points = [dict(values, failure_rate=f) for f in np.geomspace(1e-3, 0.1, 9)]
        swept = compiled.sweep(points)
        cold = np.array([compiled(p) for p in points])
        np.testing.assert_allclose(swept, cold, rtol=0.0, atol=1e-12)
        stats = compiled.last_sweep_stats
        assert stats.points == len(points)

    def test_sweep_continuation_order_returns_input_order(self):
        result, values = _build(_repairman_case)
        compiled = result.compiled
        fs = np.geomspace(1e-3, 0.1, 9)
        points = [dict(values, failure_rate=f) for f in fs]
        shuffled = [points[i] for i in (4, 0, 8, 2, 6, 1, 5, 3, 7)]
        swept = compiled.sweep(shuffled, order="continuation")
        expected = np.array([compiled(p) for p in shuffled])
        np.testing.assert_allclose(swept, expected, rtol=0.0, atol=1e-12)

    def test_sweep_rejects_unknown_order_and_preconditioner(self):
        result, values = _build(_repairman_case)
        with pytest.raises(ModelDefinitionError, match="unknown sweep order"):
            result.compiled.sweep([values], order="zigzag")

    @pytest.mark.parametrize("krylov", [False, True], ids=["small", "krylov"])
    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"order": "zigzag"}, ModelDefinitionError, "unknown sweep order"),
            ({"method": "nonsense"}, SolverError, "unknown iterative method"),
            ({"preconditioner": "bogus"}, SolverError, "unknown preconditioner"),
        ],
    )
    def test_sweep_validates_arguments_before_filling(
        self, krylov, kwargs, error, match, monkeypatch
    ):
        result, values = _build(_repairman_case)
        compiled = result.compiled
        if krylov:
            monkeypatch.setattr(POLICY, "iterative_states_reachability", 0)
        fills = []
        compiled.fill = lambda point: fills.append(point)
        with pytest.raises(error, match=match):
            compiled.sweep([values], **kwargs)
        assert fills == []

    def test_sweep_krylov_branch_reached_with_zero_limit(self, monkeypatch):
        result, values = _build(_repairman_case)
        compiled = result.compiled
        monkeypatch.setattr(POLICY, "iterative_states_reachability", 0)
        swept = compiled.sweep([values, dict(values, failure_rate=0.02)])
        assert compiled.last_sweep_stats.fills == 2
        assert compiled.last_sweep_stats.fallbacks == 0
        assert swept[0] == pytest.approx(result.chain.availability(), abs=1e-10)

    def test_steady_state_rejects_unknown_x0_policy(self):
        result, values = _build(_repairman_case)
        with pytest.raises(SolverError, match="x0 policy"):
            result.compiled.steady_state(values, x0="previous")


class TestContinuationOrder:
    def test_sorts_a_shuffled_geometric_sweep(self):
        fs = np.geomspace(1e-4, 1.0, 9)
        shuffle = [4, 0, 8, 2, 6, 1, 5, 3, 7]
        points = [{"failure_rate": float(fs[i])} for i in shuffle]
        order = continuation_order(points)
        visited = [float(points[i]["failure_rate"]) for i in order]
        diffs = np.diff(np.log10(visited))
        # a greedy NN tour over a shuffled 1-D geometric grid walks
        # monotonically from its start point in each direction
        assert np.all(diffs > 0) or np.all(diffs < 0) or (
            np.abs(diffs) <= np.abs(np.log10(fs[1] / fs[0])) * (len(fs) - 1)
        ).all()
        assert sorted(order) == list(range(len(points)))

    def test_is_a_permutation_and_deterministic(self):
        rng = np.random.default_rng(7)
        points = [
            {"a": float(x), "b": float(y)}
            for x, y in rng.uniform(0.1, 10.0, size=(40, 2))
        ]
        order = continuation_order(points)
        assert sorted(order) == list(range(40))
        assert order == continuation_order(points)

    def test_short_and_oversized_inputs_pass_through(self):
        assert continuation_order([]) == []
        assert continuation_order([{"a": 1.0}]) == [0]
        assert continuation_order([{"a": 1.0}, {"a": 2.0}]) == [0, 1]
        big = [{"a": float(i)} for i in range(4097)]
        assert continuation_order(big) == list(range(4097))

    def test_explicit_parameter_subset(self):
        points = [{"a": 1.0, "b": 9.0}, {"a": 3.0, "b": 1.0}, {"a": 1.1, "b": 5.0}]
        order = continuation_order(points, parameters=["a"])
        assert order == [0, 2, 1]


class TestNFVChainCompiled:
    def test_structure_cache_reuses_frozen_structure(self):
        nfvchain._STRUCTURE_CACHE.clear()
        spec = NFVChainSpec()
        first = compile_nfv_chain(spec)
        # rate-only respins hit the cache; count changes rebuild
        assert compile_nfv_chain(NFVChainSpec(failure_rate=0.02)) is first
        assert compile_nfv_chain(NFVChainSpec(repair_rate=2.0)) is first
        other = compile_nfv_chain(NFVChainSpec(replicas=2))
        assert other is not first
        assert len(nfvchain._STRUCTURE_CACHE) == 2

    def test_structure_cache_is_bounded(self):
        nfvchain._STRUCTURE_CACHE.clear()
        for n in range(1, nfvchain._STRUCTURE_CACHE_LIMIT + 3):
            compile_nfv_chain(NFVChainSpec(n_vnfs=1, replicas=n))
        assert len(nfvchain._STRUCTURE_CACHE) == nfvchain._STRUCTURE_CACHE_LIMIT

    def test_no_rebfs_across_rate_only_sweep(self):
        nfvchain._STRUCTURE_CACHE.clear()
        tracer = Tracer("test")
        with activate_tracer(tracer):
            nfvchain.evaluate_availability({})
            after_build = tracer.metrics.counter("sparse.reachability.markings").value
            builds = tracer.metrics.counter("compile.sparse.structure_builds").value
            for f in np.geomspace(1e-4, 1e-2, 5):
                nfvchain.evaluate_availability({"failure_rate": float(f)})
            assert (
                tracer.metrics.counter("sparse.reachability.markings").value
                == after_build
            )
            assert (
                tracer.metrics.counter("compile.sparse.structure_builds").value
                == builds
            )

    def test_evaluate_availability_matches_analytic_oracle(self):
        for f in np.geomspace(1e-4, 1e-2, 5):
            spec = NFVChainSpec(failure_rate=float(f))
            assert nfvchain.evaluate_availability(
                {"failure_rate": float(f)}
            ) == pytest.approx(analytic_availability(spec), abs=1e-9)

    def test_compiled_sweep_matches_oracle_and_warm_starts(self):
        spec = NFVChainSpec(n_vnfs=4, replicas=9, min_replicas=2)  # 10^4 states
        compiled = compile_nfv_chain(spec)
        assert compiled.n_states == nfvchain.state_count(spec)
        fs = np.geomspace(5e-4, 5e-3, 6)
        points = [
            {"failure_rate": float(f), "repair_rate": spec.repair_rate} for f in fs
        ]
        swept = compiled.sweep(points)
        oracle = [
            analytic_availability(
                NFVChainSpec(
                    n_vnfs=4, replicas=9, min_replicas=2, failure_rate=float(f)
                )
            )
            for f in fs
        ]
        np.testing.assert_allclose(swept, oracle, rtol=0.0, atol=1e-9)
        stats = compiled.last_sweep_stats
        assert stats.warm_solves == len(points) - 1
        assert stats.precond_builds == 1
        assert stats.precond_reuses == len(points) - 1


class TestModelWiring:
    def test_supports_compilation_names_and_objects(self):
        assert supports_compilation("nfvchain")
        assert supports_compilation(nfvchain.evaluate_availability)
        result, _ = _build(_repairman_case)
        assert supports_compilation(result.compiled)
        assert compile_model(result.compiled) is result.compiled

    def test_compile_model_nfvchain_is_shared_singleton(self):
        a = compile_model("nfvchain")
        b = compile_model(nfvchain.evaluate_availability)
        assert a is b
        assert isinstance(a, CompiledNFVChain)
        assert a({"failure_rate": 2e-3}) == nfvchain.evaluate_availability(
            {"failure_rate": 2e-3}
        )
        assert a.size()["n_states"] == nfvchain.state_count(NFVChainSpec())

    def test_compile_model_lazy_srn_returns_chain(self):
        srn = nfvchain.build_nfv_srn()
        assert supports_compilation(srn)
        assert compile_model(srn) is srn.chain

    def test_compile_model_accepts_any_srn(self):
        net = nfvchain.build_nfv_net(NFVChainSpec(n_vnfs=2, replicas=2))
        srn = StochasticRewardNet(net)
        assert supports_compilation(srn)
        assert compile_model(srn) is srn.chain

    def test_compiled_sparse_exported_at_top_level(self):
        import repro

        assert repro.CompiledSparseCTMC is CompiledSparseCTMC
        assert repro.continuation_order is continuation_order


class TestEngineIntegration:
    def test_process_sweep_bit_identical_to_serial(self):
        from repro.engine import run_campaign
        from repro.engine.campaign import PointsCampaign

        points = [
            {"failure_rate": float(f)} for f in np.geomspace(5e-4, 5e-3, 6)
        ]
        spec = PointsCampaign(points)
        serial = run_campaign(nfvchain.evaluate_availability, spec, compile=True)
        procs = run_campaign(
            nfvchain.evaluate_availability,
            spec,
            compile=True,
            executor="process",
            n_jobs=2,
        )
        assert serial.outputs.tobytes() == procs.outputs.tobytes()

    def test_continuation_order_bit_identical_and_unpermuted(self):
        from repro.engine import run_campaign
        from repro.engine.campaign import PointsCampaign

        rng = np.random.default_rng(3)
        fs = rng.permutation(np.geomspace(5e-4, 5e-3, 8))
        spec = PointsCampaign([{"failure_rate": float(f)} for f in fs])
        plain = run_campaign(nfvchain.evaluate_availability, spec, compile=True)
        ordered = run_campaign(
            nfvchain.evaluate_availability, spec, compile=True, order="continuation"
        )
        assert plain.outputs.tobytes() == ordered.outputs.tobytes()

    def test_order_validation(self):
        from repro.engine import run_campaign
        from repro.engine.campaign import PointsCampaign

        spec = PointsCampaign([{"failure_rate": 1e-3}])
        with pytest.raises(ModelDefinitionError, match="unknown campaign order"):
            run_campaign(nfvchain.evaluate_availability, spec, order="zigzag")
        with pytest.raises(ModelDefinitionError, match="not supported with store="):
            run_campaign(
                nfvchain.evaluate_availability,
                spec,
                order="continuation",
                store="/tmp/never-created.sqlite",
            )

    def test_continuation_order_remaps_error_indices(self):
        from repro.engine import run_campaign
        from repro.engine.campaign import PointsCampaign
        from repro.robust import FaultPolicy

        def fragile(assignment):
            if assignment["x"] == 3.0:
                raise ValueError("boom")
            return assignment["x"]

        spec = PointsCampaign([{"x": float(v)} for v in (5.0, 1.0, 3.0, 4.0, 2.0)])
        result = run_campaign(
            fragile,
            spec,
            order="continuation",
            policy=FaultPolicy(on_error="skip"),
        )
        assert len(result.errors) == 1
        assert result.errors[0].index == 2
        assert np.isnan(result.outputs[2])
        assert result.outputs[0] == 5.0

    def test_serve_registry_compiles_nfvchain(self):
        from repro.serve import default_registry

        entry = default_registry().get("nfvchain")
        assert entry.compiled
        # explicit registration metadata survives compilation
        assert entry.size["n_states"] == nfvchain.state_count(NFVChainSpec())


class TestSolverReportIterations:
    def test_gmres_records_iterations_and_x0_warm_start(self):
        from repro.markov.fallback import solve_steady_state

        result, values = _build(_repairman_case)
        q = result.compiled.generator(values)
        cold = solve_steady_state(q, method="gmres")
        assert cold.iterations is not None and cold.iterations > 0
        warm = solve_steady_state(q, method="gmres", x0=cold.pi)
        assert warm.iterations is not None
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.pi, cold.pi, rtol=0.0, atol=1e-10)

    def test_direct_methods_report_no_iterations(self):
        from repro.markov.fallback import solve_steady_state

        result, values = _build(_repairman_case)
        q = result.compiled.generator(values)
        report = solve_steady_state(q, method="gth", x0=np.ones(q.shape[0]))
        assert report.iterations is None
