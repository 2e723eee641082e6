"""Structure-keyed solver pre-flight of :class:`CompiledSparseCTMC`.

The compiled chain counts strongly connected components once per frozen
structure and derives the rest of the diagnostics from the filled
``data`` buffer.  The result must equal ``generator_diagnostics`` field
for field, the stationary vector must keep its bytes, and any point the
shortcut cannot vouch for must take the full pre-flight and raise what
it always raised.
"""

import numpy as np
import pytest

from repro.casestudies import nfvchain
from repro.casestudies.nfvchain import NFVChainSpec
from repro.compile import CompiledCTMC, CompiledSparseCTMC
from repro.compile.ctmc import Param
from repro.exceptions import ModelDefinitionError
from repro.markov.fallback import generator_diagnostics, solve_steady_state

from .test_generated_chains import SEEDS, generate

NFV_ZOO = [
    NFVChainSpec(),
    NFVChainSpec(n_vnfs=1, replicas=1),
    NFVChainSpec(n_vnfs=2, replicas=2, repair_crews=1),
    NFVChainSpec(n_vnfs=2, replicas=4, min_replicas=2, repair_crews=3),
    NFVChainSpec(n_vnfs=4, replicas=2, min_replicas=2),
]
RATES = [
    {"failure_rate": 1e-3, "repair_rate": 0.5},
    {"failure_rate": 2e-7, "repair_rate": 3.0},
    {"failure_rate": 0.8, "repair_rate": 1e-4},
]


def sparse_twin(compiled: CompiledCTMC, multipliers=None) -> CompiledSparseCTMC:
    """The same frozen arrays behind the large-state-space front end,
    optionally with other per-transition multipliers."""
    return CompiledSparseCTMC(
        compiled.n,
        compiled._indices,
        compiled._indptr,
        compiled._trip_rows,
        compiled._trip_cols,
        compiled._terms,
        compiled._term_ids,
        compiled._mult if multipliers is None else np.asarray(multipliers, dtype=float),
    )


def assert_matches_full_preflight(chain: CompiledSparseCTMC, values) -> None:
    # twice: the first point counts the components, later ones reuse it
    for _ in range(2):
        q = chain.generator(values)
        assert chain._frozen_diagnostics(q) == generator_diagnostics(q)
    report = chain.steady_state_report(values, x0=None)
    full = solve_steady_state(chain.generator(values), iterative_limit=chain.ITERATIVE_LIMIT)
    assert report.diagnostics == full.diagnostics
    assert report.pi.tobytes() == full.pi.tobytes()
    assert report.method == full.method


@pytest.mark.parametrize("spec", NFV_ZOO, ids=lambda s: f"{s.n_vnfs}x{s.replicas}")
@pytest.mark.parametrize("values", RATES, ids=["nominal", "stiff", "fast-fail"])
def test_nfv_zoo_diagnostics_equal_field_for_field(spec, values):
    assert_matches_full_preflight(nfvchain.compile_nfv_chain(spec), values)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_chains_diagnostics_equal_field_for_field(seed):
    labels, transitions, values = generate(seed)
    assert_matches_full_preflight(sparse_twin(CompiledCTMC(labels, transitions)), values)


def two_route_ring(multiplier: float) -> CompiledSparseCTMC:
    """0 → 1 → 2 → 0, plus 0 → 2 scaled by ``multiplier``."""
    ring = CompiledCTMC(
        [0, 1, 2],
        [(0, 1, Param("a")), (1, 2, Param("b")), (2, 0, Param("c")), (0, 2, Param("d"))],
    )
    return sparse_twin(ring, [1.0, 1.0, 1.0, multiplier])


def test_underflowed_rate_takes_the_full_preflight():
    # 1e-300 * 1e-30 underflows to an explicit zero in the data buffer:
    # the shortcut must not vouch for it, and the full pre-flight drops
    # the zero exactly as before (the ring stays irreducible)
    chain = two_route_ring(1e-30)
    values = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 1e-300}
    q = chain.generator(values)
    assert 0.0 in q.data
    assert chain._frozen_diagnostics(q) is None
    report = chain.steady_state_report(values, x0=None)
    full = solve_steady_state(chain.generator(values), iterative_limit=chain.ITERATIVE_LIMIT)
    assert report.diagnostics == full.diagnostics
    assert report.diagnostics.nnz == 3
    assert report.pi.tobytes() == full.pi.tobytes()


def test_zero_rate_point_raises_as_before():
    # the only route back to state 0 underflows to zero: the full
    # pre-flight finds the chain reducible and refuses it, as before
    pair = CompiledCTMC([0, 1], [(0, 1, Param("a")), (1, 0, Param("b"))])
    chain = sparse_twin(pair, [1.0, 1e-30])
    values = {"a": 1.0, "b": 1e-300}
    with pytest.raises(ModelDefinitionError) as before:
        solve_steady_state(chain.generator(values), iterative_limit=chain.ITERATIVE_LIMIT)
    with pytest.raises(ModelDefinitionError) as after:
        chain.steady_state_report(values)
    assert str(after.value) == str(before.value)
    assert "not irreducible" in str(after.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing row sums
def test_non_finite_point_raises_as_before():
    # every rate is finite, but state (3, 3, 3)'s exit rate overflows
    chain = nfvchain.compile_nfv_chain(NFVChainSpec())
    values = {"failure_rate": 5e307, "repair_rate": 0.5}
    assert not np.all(np.isfinite(chain.generator(values).data))
    with pytest.raises(ModelDefinitionError) as before:
        solve_steady_state(chain.generator(values), iterative_limit=chain.ITERATIVE_LIMIT)
    with pytest.raises(ModelDefinitionError) as after:
        chain.steady_state_report(values)
    assert str(after.value) == str(before.value)
    assert "non-finite" in str(after.value)

