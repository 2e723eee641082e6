"""The repository's GMRES kernel against scipy's, solve for solve.

``repro.sparse.krylov._gmres`` is scipy's restarted, left-preconditioned
GMRES on BLAS-1 plumbing, so on every system here it must spend the
same inner iterations as ``scipy.sparse.linalg.gmres`` (the reference,
used in this file only) and land within rounding of its vector.  The
systems are the NFV zoo at every rate point, the 6 561- and 32 768-state
NFV chains, a birth–death chain and the 50 generated chains, each with
Jacobi and with no preconditioner.
"""

import functools
import hashlib

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg.blas import daxpy
from scipy.sparse import linalg as sparse_linalg

from repro.casestudies import nfvchain
from repro.casestudies.nfvchain import NFVChainSpec
from repro.exceptions import ConvergenceError, SolverError
from repro.markov.fallback import solve_steady_state
from repro.markov.registry import POLICY
from repro.sparse.krylov import (
    JacobiOperator,
    _gmres,
    augmented_system,
    build_preconditioner,
    steady_state_iterative,
)

from ..compile.test_frozen_preflight import NFV_ZOO, RATES
from ..compile.test_generated_chains import SEEDS, generate, uncompiled
from ..markov.test_policy_bit_identity import LARGE_NFV, birth_death

TOL = 1e-12
#: the sparse-sweep benchmark's chain: 8^5 = 32 768 states
SWEEP_NFV = NFVChainSpec(n_vnfs=5, replicas=7, min_replicas=1)
#: GMRES stagnates on this 10 000-state chain: the true residual stays
#: at ~4.6e-4 cycle after cycle
STAGNATING_NFV = NFVChainSpec(n_vnfs=2, replicas=99, min_replicas=10, repair_crews=3)
#: sha256 prefix of the power stage's π on STAGNATING_NFV, computed
#: before the stagnation exit existed
STAGNATING_POWER_PI = "afca3b5dad706a5b"


def reference(a, b, m, x0=None, restart=100, max_iterations=20_000):
    """scipy's GMRES with the arguments ``steady_state_iterative`` used to pass."""
    iterations = 0

    def count(_arg):
        nonlocal iterations
        iterations += 1

    x, info = sparse_linalg.gmres(
        a, b, rtol=TOL, atol=0.0, restart=restart,
        maxiter=max(1, max_iterations // max(1, restart)), M=m,
        x0=x0, callback=count, callback_type="pr_norm",
    )
    return x, iterations, info


def normalized(x):
    pi = np.maximum(x, 0.0)
    return pi / pi.sum()


def assert_matches_scipy(a, b, m, x0=None, restart=100, max_iterations=20_000):
    x_ref, it_ref, info = reference(a, b, m, x0, restart, max_iterations)
    x, iterations, outcome = _gmres(a, b, m, x0, TOL, restart, max_iterations)
    assert iterations == it_ref
    assert (outcome == "converged") == (info == 0)
    assert np.max(np.abs(normalized(x) - normalized(x_ref))) <= 1e-13
    return iterations, outcome


def system(generator):
    return augmented_system(sparse.csr_matrix(generator))


@functools.lru_cache(maxsize=None)
def compiled_nfv(spec):
    return nfvchain.compile_nfv_chain(spec)


def nfv_generator(spec, values):
    return compiled_nfv(spec).generator(values)


NFV_CASES = [
    pytest.param(spec, values, id=f"{spec.n_vnfs}x{spec.replicas}x{spec.min_replicas}"
                 f"x{spec.repair_crews}-{rate_id}")
    for spec in NFV_ZOO + [LARGE_NFV, SWEEP_NFV]
    for rate_id, values in zip(("nominal", "stiff", "fast-fail"), RATES)
]


@pytest.mark.parametrize("preconditioner", ["jacobi", "none"])
@pytest.mark.parametrize("spec, values", NFV_CASES)
def test_nfv_chains_match_scipy(spec, values, preconditioner):
    a, b = system(nfv_generator(spec, values))
    assert_matches_scipy(a, b, build_preconditioner(a, preconditioner))


@pytest.mark.parametrize("preconditioner", ["jacobi", "none"])
def test_birth_death_matches_scipy(preconditioner):
    a, b = system(birth_death(100, lam=0.8))
    assert_matches_scipy(a, b, build_preconditioner(a, preconditioner))


@pytest.mark.parametrize("preconditioner", ["jacobi", "none"])
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_chains_match_scipy(seed, preconditioner):
    a, b = system(uncompiled(*generate(seed)).generator())
    assert_matches_scipy(a, b, build_preconditioner(a, preconditioner))


#: generated chains above 10 states: restart=10 forces restarts on them
RESTARTED_SEEDS = [5, 6, 10, 19, 20, 27, 33, 37, 38, 42]


@pytest.mark.parametrize("preconditioner", ["jacobi", "none"])
@pytest.mark.parametrize("seed", RESTARTED_SEEDS + ["birth-death-30"])
def test_forced_restarts_match_scipy(seed, preconditioner):
    if seed == "birth-death-30":
        q = birth_death(30, lam=0.8)
    else:
        q = uncompiled(*generate(seed)).generator()
    a, b = system(q)
    assert a.shape[0] > 10
    iterations, outcome = assert_matches_scipy(
        a, b, build_preconditioner(a, preconditioner), restart=10
    )
    assert outcome == "converged" and iterations > 10


def test_warm_start_matches_scipy():
    a, b = system(nfv_generator(LARGE_NFV, RATES[0]))
    x0 = steady_state_iterative(
        nfv_generator(LARGE_NFV, {"failure_rate": 1.2e-3, "repair_rate": 0.5})
    ).pi
    assert_matches_scipy(a, b, build_preconditioner(a, "jacobi"), x0=x0)


def test_converged_warm_start_spends_no_iteration():
    a, b = system(birth_death(100, lam=0.8))
    x0 = sparse_linalg.spsolve(a.tocsc(), b)
    assert assert_matches_scipy(a, b, build_preconditioner(a, "jacobi"), x0=x0) == (
        0, "converged"
    )


def test_exhausted_budget_raises_with_the_count():
    q = nfv_generator(LARGE_NFV, RATES[0])
    a, b = system(q)
    iterations, outcome = assert_matches_scipy(
        a, b, build_preconditioner(a, "jacobi"), restart=5, max_iterations=10
    )
    assert (iterations, outcome) == (10, "budget")
    with pytest.raises(ConvergenceError, match="iteration budget") as err:
        steady_state_iterative(q, restart=5, max_iterations=10)
    assert err.value.iterations == 10
    assert err.value.residual > TOL


def test_stagnation_ends_a_solve_scipy_runs_to_the_budget():
    a, b = system(birth_death(20))
    _, it_ref, info = reference(a, b, None, restart=10, max_iterations=2_000)
    assert (it_ref, info > 0) == (2_000, True)
    _, iterations, outcome = _gmres(a, b, None, None, TOL, 10, 2_000)
    assert outcome == "stagnated" and iterations < 100


def test_restart_below_one_is_refused():
    with pytest.raises(SolverError, match="restart length"):
        steady_state_iterative(birth_death(5), restart=0)


@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_state_chains_exit_on_breakdown(n):
    q = birth_death(n) if n > 1 else sparse.csr_matrix((1, 1))
    a, b = system(q)
    iterations, outcome = assert_matches_scipy(a, b, None)
    assert (iterations, outcome) == (n, "converged")
    assert np.allclose(steady_state_iterative(q).pi, normalized(np.linalg.solve(a.toarray(), b)))


def test_ilu_operator_matches_scipy():
    a, b = system(nfv_generator(LARGE_NFV, RATES[2]))
    assert_matches_scipy(a, b, build_preconditioner(a, "ilu"))


def test_prebuilt_jacobi_operator_matches_scipy_and_the_string_route():
    q = nfv_generator(LARGE_NFV, RATES[1])
    a, b = system(q)
    diag = a.diagonal()
    m = JacobiOperator(1.0 / np.where(diag == 0.0, 1.0, diag))
    assert_matches_scipy(a, b, m)
    prebuilt = steady_state_iterative(q, preconditioner=m)
    named = steady_state_iterative(q, preconditioner="jacobi")
    assert prebuilt.iterations == named.iterations
    assert prebuilt.pi.tobytes() == named.pi.tobytes()


def test_daxpy_updates_its_second_argument_in_place():
    x = np.arange(8.0)
    y = np.ones(8)
    out = daxpy(x, y, 8, -2.0)
    assert out is y
    assert np.array_equal(y, 1.0 - 2.0 * x)


class TestStagnation:
    @pytest.fixture(scope="class")
    def report(self):
        chain = nfvchain.compile_nfv_chain(STAGNATING_NFV)
        q = chain.generator(chain._build_values)
        return chain, solve_steady_state(
            q, iterative_limit=POLICY.iterative_states_reachability
        )

    def test_gmres_stops_early_and_the_chain_moves_on(self, report):
        _, rep = report
        assert [a.method for a in rep.attempts] == ["gmres", "bicgstab", "power"]
        gmres = rep.attempts[0]
        assert not gmres.success and "stagnated" in gmres.error
        assert gmres.iterations <= 1_000
        assert rep.method == "power"

    def test_power_vector_and_availability_unchanged(self, report):
        chain, rep = report
        assert hashlib.sha256(rep.pi.tobytes()).hexdigest()[:16] == STAGNATING_POWER_PI
        availability = float(rep.pi @ chain._up_mask())
        assert abs(availability - nfvchain.analytic_availability(STAGNATING_NFV)) <= 1e-8

    def test_kernel_reports_stagnation_with_the_count(self, report):
        chain, _ = report
        q = chain.generator(chain._build_values)
        with pytest.raises(ConvergenceError, match="stagnated") as err:
            steady_state_iterative(q)
        assert 0 < err.value.iterations <= 1_000
