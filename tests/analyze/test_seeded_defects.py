"""One deliberately broken model per diagnostic code.

Every code in the :data:`repro.analyze.diagnostics.CODES` table gets a
fixture seeded with exactly the defect it describes, and the test
asserts the analyzer finds it (right code, right severity).  This is
the acceptance contract for the static-analysis pass: the codes are
stable identifiers, so these tests pin their trigger conditions.
"""

import numpy as np
import pytest

from repro.analyze import analyze
from repro.compile.ctmc import CompiledCTMC, Param
from repro.core.hierarchy import HierarchicalModel, Submodel
from repro.markov import CTMC, DTMC
from repro.markov.mrgp import MarkovRegenerativeProcess
from repro.nonstate import (
    Component,
    FaultTree,
    ReliabilityBlockDiagram,
    ReliabilityGraph,
)
from repro.nonstate.faulttree import AndGate, BasicEvent, OrGate
from repro.nonstate.rbd import KofN, Series, parallel, series
from repro.petrinet import PetriNet


def codes_of(report):
    return set(report.codes)


def find(report, code):
    hits = report.filter(code=code)
    assert hits, f"expected {code} in {report.codes}"
    return hits[0]


# --------------------------------------------------------------- M: markov
class TestGeneratorDefects:
    def test_m001_row_sum(self):
        q = np.array([[-1.0, 0.5], [2.0, -2.0]])
        report = analyze(q)
        d = find(report, "M001")
        assert d.severity == "error"
        assert "row 0" in d.location

    def test_m002_negative_off_diagonal(self):
        q = np.array([[1.0, -1.0], [2.0, -2.0]])
        d = find(analyze(q), "M002")
        assert d.severity == "error"

    def test_m003_non_finite(self):
        q = np.array([[-np.nan, np.nan], [2.0, -2.0]])
        d = find(analyze(q), "M003")
        assert d.severity == "error"

    def test_m004_not_square(self):
        q = np.array([[-1.0, 1.0, 0.0], [2.0, -2.0, 0.0]])
        d = find(analyze(q), "M004")
        assert d.severity == "error"
        assert "(2, 3)" in d.location

    def test_m004_empty_chain(self):
        d = find(analyze(CTMC()), "M004")
        assert d.severity == "error"


def no_repair_chain():
    """Failure with no repair: absorbing + reducible + transient states."""
    return (
        CTMC()
        .add_transition("up", "degraded", 2e-3)
        .add_transition("degraded", "down", 1e-3)
    )


class TestChainStructure:
    def test_m101_m102_m104_on_no_repair_chain(self):
        report = analyze(no_repair_chain())
        assert {"M101", "M102", "M104"} <= codes_of(report)
        assert find(report, "M101").severity == "warning"
        assert find(report, "M102").severity == "warning"
        assert find(report, "M104").severity == "info"
        assert "'down'" in find(report, "M101").message

    def test_steady_state_query_escalates_to_error(self):
        report = analyze(no_repair_chain(), query="steady_state")
        assert find(report, "M101").severity == "error"
        assert find(report, "M102").severity == "error"
        assert not report.ok

    def test_transient_query_suppresses_structure_warnings(self):
        report = analyze(no_repair_chain(), query="transient")
        assert codes_of(report) == set()
        assert report.ok

    def test_m103_stiffness(self):
        chain = (
            CTMC()
            .add_transition("up", "down", 1e-9)
            .add_transition("down", "up", 10.0)
        )
        d = find(analyze(chain), "M103")
        assert d.severity == "warning"
        assert "stiffness ratio" in d.message

    def test_m110_dtmc_bad_row(self):
        dtmc = (
            DTMC()
            .add_transition("a", "b", 0.5)
            .add_transition("a", "a", 0.5)
            .add_transition("b", "a", 1.0)
        )
        # add_transition validates on the way in, so seed the defect by
        # mutation — exactly what a hand-edited model file would produce.
        dtmc._vals[dtmc._slot[(0, 1)]] = 0.9
        d = find(analyze(dtmc), "M110")
        assert d.severity == "error"
        assert "'a'" in d.message

    def test_mrgp_no_repair(self):
        mrgp = MarkovRegenerativeProcess().add_exponential("up", "down", 1e-3)
        report = analyze(mrgp)
        assert {"M101", "M102"} <= codes_of(report)


# ----------------------------------------------------------- P: petri nets
class TestPetriDefects:
    def test_p101_heuristic_when_guard_blocks_the_proof(self):
        # The producer carries a guard, so the structural pass can prove
        # nothing either way: no P-invariant covers 'buffer' and the
        # pumping multiset is disqualified by the guard.  Heuristic P101.
        net = PetriNet().add_place("buffer")
        net.add_timed_transition(
            "arrive", rate=1.0, guard=lambda m: True
        ).add_output_arc("arrive", "buffer")
        net.add_timed_transition("serve", rate=2.0).add_input_arc("serve", "buffer")
        d = find(analyze(net), "P101")
        assert d.severity == "warning"
        assert "'buffer'" in d.location
        assert "heuristic" in d.message
        assert "P106" not in codes_of(analyze(net))

    def test_p101_heuristic_without_structural_pass(self):
        from repro.analyze import lint_petri_net

        net = PetriNet().add_place("buffer")
        net.add_timed_transition("arrive", rate=1.0).add_output_arc("arrive", "buffer")
        net.add_timed_transition("serve", rate=2.0).add_input_arc("serve", "buffer")
        diags = lint_petri_net(net, structural=False)
        hits = [d for d in diags if d.code == "P101"]
        assert hits and "heuristic" in hits[0].message
        assert "'arrive'" in hits[0].location

    def test_p101_silenced_by_inhibitor(self):
        net = PetriNet().add_place("buffer")
        net.add_timed_transition("arrive", rate=1.0).add_output_arc("arrive", "buffer")
        net.add_inhibitor_arc("arrive", "buffer", 5)
        net.add_timed_transition("serve", rate=2.0).add_input_arc("serve", "buffer")
        report = analyze(net)
        assert "P101" not in codes_of(report)
        assert "P106" not in codes_of(report)

    def test_p102_heuristic_without_structural_pass(self):
        from repro.analyze import lint_petri_net

        net = PetriNet().add_place("spare", initial=0).add_place("pool", initial=1)
        net.add_timed_transition("swap", rate=1.0)
        net.add_input_arc("swap", "spare").add_output_arc("swap", "pool")
        net.add_timed_transition("drain", rate=1.0).add_input_arc("drain", "pool")
        diags = lint_petri_net(net, structural=False)
        hits = [d for d in diags if d.code == "P102"]
        assert hits and hits[0].severity == "warning"
        assert "heuristic" in hits[0].message

    def test_p102_upgrades_to_p108_with_structural_pass(self):
        # Same net as above: the structural pass proves the deadness
        # (empty siphon), so the proven code replaces the heuristic one.
        net = PetriNet().add_place("spare", initial=0).add_place("pool", initial=1)
        net.add_timed_transition("swap", rate=1.0)
        net.add_input_arc("swap", "spare").add_output_arc("swap", "pool")
        net.add_timed_transition("drain", rate=1.0).add_input_arc("drain", "pool")
        report = analyze(net)
        assert "P102" not in codes_of(report)
        d = find(report, "P108")
        assert "can never fire" in d.message
        assert "'swap'" in d.location

    def test_p106_unbounded_producer_with_certificate(self):
        # No guard, no inhibitor: the structural pass *proves* the
        # unboundedness and names the pumping multiset.  Proven P106
        # replaces heuristic P101 for this place.
        net = PetriNet().add_place("buffer")
        net.add_timed_transition("arrive", rate=1.0).add_output_arc("arrive", "buffer")
        net.add_timed_transition("serve", rate=2.0).add_input_arc("serve", "buffer")
        report = analyze(net)
        d = find(report, "P106")
        assert d.severity == "warning"
        assert "'buffer'" in d.location
        assert "arrive" in d.message
        p101_at_buffer = [
            x for x in report if x.code == "P101" and "'buffer'" in x.location
        ]
        assert p101_at_buffer == []

    def test_p107_conservation_violation_names_the_breaker(self):
        # Leaky repairman: repair returns two machines for every one
        # that failed, so no conservation law covers up/down — but
        # removing either transition restores one.  P107 names the
        # breaker and the law it breaks.
        net = PetriNet().add_place("up", initial=4).add_place("down")
        net.add_timed_transition("fail", rate=0.1)
        net.add_input_arc("fail", "up").add_output_arc("fail", "down")
        net.add_timed_transition("repair", rate=1.0)
        net.add_input_arc("repair", "down").add_output_arc("repair", "up", 2)
        report = analyze(net)
        hits = [d for d in report if d.code == "P107"]
        assert hits
        assert all(d.severity == "warning" for d in hits)
        named = {d.location for d in hits}
        assert named & {"transition 'fail'", "transition 'repair'"} or any(
            "fail" in loc or "repair" in loc for loc in named
        )
        assert any("=" in d.message for d in hits)  # the broken law, rendered

    def test_p109_predicted_count_exceeds_budget(self):
        from repro.analyze import lint_petri_net

        # mm1k(K=5): proven bound 6 states; a budget of 3 must trip the
        # predicted-size warning without building reachability.
        net = PetriNet().add_place("queue")
        net.add_timed_transition("arrive", rate=1.0).add_output_arc("arrive", "queue")
        net.add_inhibitor_arc("arrive", "queue", 5)
        net.add_timed_transition("serve", rate=2.0).add_input_arc("serve", "queue")
        diags = lint_petri_net(net, max_markings=3)
        hits = [d for d in diags if d.code == "P109"]
        assert hits and hits[0].severity == "warning"
        assert "6" in hits[0].message and "3" in hits[0].message
        # a sufficient budget stays quiet
        assert [d for d in lint_petri_net(net, max_markings=10) if d.code == "P109"] == []

    def test_p103_immediate_cycle(self):
        net = PetriNet().add_place("a", initial=1).add_place("b")
        net.add_immediate_transition("t1").add_input_arc("t1", "a")
        net.add_output_arc("t1", "b")
        net.add_immediate_transition("t2").add_input_arc("t2", "b")
        net.add_output_arc("t2", "a")
        d = find(analyze(net), "P103")
        assert d.severity == "warning"
        assert "cycle" in d.message

    def test_p104_zero_weight_immediate(self):
        net = PetriNet().add_place("a", initial=1).add_place("done")
        net.add_immediate_transition("choose", weight=0.0)
        net.add_input_arc("choose", "a").add_output_arc("choose", "done")
        d = find(analyze(net), "P104")
        assert d.severity == "warning"

    def test_p105_isolated_place(self):
        net = PetriNet().add_place("used", initial=1).add_place("orphan")
        net.add_timed_transition("t", rate=1.0).add_input_arc("t", "used")
        d = find(analyze(net), "P105")
        assert d.severity == "info"
        assert "'orphan'" in d.location


# ----------------------------------------------------------- S: structure
class TestStructureDefects:
    def test_s001_probability_out_of_range(self):
        c = Component.fixed("x", 0.5)
        c.probability = 1.5  # constructor validates; seed by mutation
        rbd = ReliabilityBlockDiagram(series(c, Component.fixed("y", 0.1)))
        d = find(analyze(rbd), "S001")
        assert d.severity == "error"
        assert "1.5" in d.message

    def test_s002_k_of_n_arity(self):
        block = KofN(2, [Component.fixed("a", 0.1), Component.fixed("b", 0.1)])
        block.k = 5  # constructor validates; seed by mutation
        d = find(analyze(ReliabilityBlockDiagram(block)), "S002")
        assert d.severity == "error"
        assert "5-of-2" in d.message

    def test_s003_single_child_series(self):
        rbd = ReliabilityBlockDiagram(
            parallel(Series([Component.fixed("a", 0.1)]), Component.fixed("b", 0.1))
        )
        d = find(analyze(rbd), "S003")
        assert d.severity == "warning"
        assert "identity" in d.message

    def test_s004_repeated_components(self):
        shared = Component.fixed("shared", 0.1)
        rbd = ReliabilityBlockDiagram(
            parallel(series(shared, Component.fixed("x", 0.2)), shared)
        )
        d = find(analyze(rbd), "S004")
        assert d.severity == "info"
        assert "'shared'" in d.message

    def test_s003_single_input_gate(self):
        tree = FaultTree(
            OrGate(
                [
                    AndGate([BasicEvent(Component.fixed("a", 0.1))]),
                    BasicEvent(Component.fixed("b", 0.1)),
                ]
            )
        )
        d = find(analyze(tree), "S003")
        assert "1 input(s)" in d.message

    def test_s005_unreachable_relgraph_edge(self):
        g = ReliabilityGraph("s", "t")
        g.add_edge("s", "t", Component.fixed("direct", 0.1))
        g.add_edge("t", "x", Component.fixed("dangling", 0.2))
        d = find(analyze(g), "S005")
        assert d.severity == "warning"
        assert "'dangling'" in d.message
        assert "'direct'" not in [x.message for x in analyze(g).filter(code="S005")]

    def test_s006_component_without_parameterization(self):
        c = Component.fixed("x", 0.5)
        c.probability = None  # constructor forbids; seed by mutation
        rbd = ReliabilityBlockDiagram(series(c, Component.fixed("y", 0.1)))
        d = find(analyze(rbd), "S006")
        assert d.severity == "info"
        assert "q=" in d.message


# ---------------------------------------------------------- H: hierarchy
def _leaf_builder(**_params):
    raise AssertionError("analysis must never build submodels")


class TestHierarchyDefects:
    def test_h001_unknown_submodel(self):
        h = HierarchicalModel().add_submodel(
            Submodel("top", _leaf_builder, imports={"p": ("ghost", "out")})
        )
        d = find(analyze(h), "H001")
        assert d.severity == "error"
        assert "'ghost'" in d.message

    def test_h001_unknown_export(self):
        h = (
            HierarchicalModel()
            .add_submodel(Submodel("leaf", _leaf_builder, exports={"avail": len}))
            .add_submodel(
                Submodel("top", _leaf_builder, imports={"p": ("leaf", "mttf")})
            )
        )
        d = find(analyze(h), "H001")
        assert "'mttf'" in d.message

    def test_h002_cyclic_imports(self):
        h = (
            HierarchicalModel()
            .add_submodel(
                Submodel(
                    "a", _leaf_builder, exports={"x": len}, imports={"p": ("b", "y")}
                )
            )
            .add_submodel(
                Submodel(
                    "b", _leaf_builder, exports={"y": len}, imports={"q": ("a", "x")}
                )
            )
        )
        report = analyze(h)
        d = find(report, "H002")
        assert d.severity == "info"
        assert "cyclic" in d.message
        assert report.ok  # legal, just informational


# ----------------------------------------------------------- C/U: compiled
def two_state_compiled():
    return CompiledCTMC(
        ["up", "down"], [(0, 1, Param("lam")), (1, 0, Param("mu"))]
    )


class TestCompiledDefects:
    def test_c001_missing_parameter(self):
        report = analyze(two_state_compiled(), params={"lam": 1e-3})
        d = find(report, "C001")
        assert d.severity == "error"
        assert "'mu'" in d.message
        assert "'up'" in d.location or "'down'" in d.location

    def test_c002_invalid_rate_value(self):
        report = analyze(two_state_compiled(), params={"lam": -1.0, "mu": 2.0})
        d = find(report, "C002")
        assert d.severity == "error"

    def test_compiled_clean_point_runs_markov_lint(self):
        # one-way chain: value checks pass, then the filled generator is
        # linted and the no-repair structure surfaces.
        compiled = CompiledCTMC(["up", "down"], [(0, 1, Param("lam"))])
        report = analyze(compiled, params={"lam": 1e-3})
        assert {"M101", "M102"} <= codes_of(report)

    def test_u001_unknown_assignment_key(self):
        from repro.compile.model import CompiledEvaluator

        class TinyEvaluator(CompiledEvaluator):
            parameters = ("lam", "mu")

            def __init__(self):
                self.chain = two_state_compiled()

        report = analyze(TinyEvaluator(), params={"lam": 1e-3, "lambda_": 2.0})
        d = find(report, "U001")
        assert d.severity == "error"
        assert "'lambda_'" in d.message

    def test_c001_orphaned_embedded_parameter(self):
        from repro.compile.model import CompiledEvaluator

        class LeakyEvaluator(CompiledEvaluator):
            parameters = ("lam",)  # chain also reads 'mu': orphaned

            def __init__(self):
                self.chain = two_state_compiled()

        report = analyze(LeakyEvaluator(), params={"lam": 1e-3})
        d = find(report, "C001")
        assert "'mu'" in d.message
        assert "chain" in d.location


# ------------------------------------------------- clean models stay clean
class TestCleanModels:
    @pytest.mark.parametrize(
        "model",
        [
            CTMC().add_transition("up", "down", 1e-3).add_transition("down", "up", 0.5),
            np.array([[-1e-3, 1e-3], [0.5, -0.5]]),
            ReliabilityBlockDiagram(
                series(Component.fixed("a", 0.1), Component.fixed("b", 0.2))
            ),
        ],
        ids=["ctmc", "generator", "rbd"],
    )
    def test_no_findings(self, model):
        report = analyze(model, query="steady_state")
        assert report.ok
        assert report.codes == []
