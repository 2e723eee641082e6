"""Pool chunks go through ``evaluate_many`` when the evaluator has it.

A chunk without per-task generators and without a per-point timeout is
evaluated by one ``evaluate_many`` call.  Any exception, or a non-finite
value under ``treat_nan_as_failure``, re-runs the chunk point by point,
so values, ``ErrorRecord``s and attempts match an evaluator that has no
``evaluate_many`` at all.
"""

import math
import pickle
import threading

import numpy as np
import pytest

from repro.engine import ProcessExecutor, ThreadExecutor
from repro.exceptions import SolverError
from repro.robust import FaultPolicy

BAD_X = 5.0
NAN_X = 7.0
POINTS = [{"x": float(k)} for k in range(12)]


def point_value(assignment):
    x = assignment["x"]
    if x == BAD_X:
        raise SolverError(f"no solution at x={x}")
    return math.nan if x == NAN_X else x * x + 0.5


class PerPoint:
    """The reference: no ``evaluate_many``."""

    def __call__(self, assignment):
        return point_value(assignment)


class Vectorized(PerPoint):
    """Records how it was called (thread backend: shared memory)."""

    def __init__(self, bad=(BAD_X,), nan=(NAN_X,)):
        self.bad, self.nan = tuple(bad), tuple(nan)
        self.calls = []
        self._lock = threading.Lock()

    def _log(self, kind, n):
        with self._lock:
            self.calls.append((kind, n))

    def __call__(self, assignment, rng=None):
        self._log("point", 1)
        x = assignment["x"]
        if x in self.bad:
            raise SolverError(f"no solution at x={x}")
        return math.nan if x in self.nan else x * x + 0.5 + (0.0 if rng is None else rng.random())

    def evaluate_many(self, assignments):
        self._log("many", len(assignments))
        xs = np.array([a["x"] for a in assignments])
        if np.isin(xs, self.bad).any():
            raise SolverError("a point has no solution")
        return np.where(np.isin(xs, self.nan), np.nan, xs * xs + 0.5)

    def __getstate__(self):
        return {"bad": self.bad, "nan": self.nan}

    def __setstate__(self, state):
        self.__init__(**state)


def run(executor, evaluate, **kwargs):
    with executor:
        return executor.run(evaluate, POINTS, chunk_size=4, **kwargs)


def same_outcome(got, ref):
    values, _, report = got
    ref_values, _, ref_report = ref
    assert np.asarray(values).tobytes() == np.asarray(ref_values).tobytes()
    strip = lambda r: [(e.index, e.error_type, e.message, e.attempts) for e in r.errors]  # noqa: E731
    assert strip(report) == strip(ref_report)
    assert report.n_retries == ref_report.n_retries


@pytest.mark.parametrize("backend", [ThreadExecutor, ProcessExecutor])
@pytest.mark.parametrize(
    "policy",
    [
        FaultPolicy(on_error="skip"),
        FaultPolicy(on_error="retry", max_retries=2),
        FaultPolicy(on_error="skip", treat_nan_as_failure=True),
    ],
    ids=["skip", "retry", "nan-as-failure"],
)
def test_failing_point_mid_chunk_matches_per_point(backend, policy):
    got = run(backend(2), Vectorized(), policy=policy)
    ref = run(backend(2), PerPoint(), policy=policy)
    same_outcome(got, ref)
    assert got[2].n_failed >= 1


@pytest.mark.parametrize("backend", [ThreadExecutor, ProcessExecutor])
@pytest.mark.parametrize("policy", [None, FaultPolicy(on_error="raise")], ids=["none", "raise"])
def test_fail_fast_raises_the_per_point_error(backend, policy):
    with pytest.raises(SolverError) as got:
        run(backend(2), Vectorized(), policy=policy)
    with pytest.raises(SolverError) as ref:
        run(backend(2), PerPoint(), policy=policy)
    assert str(got.value) == str(ref.value) == f"no solution at x={BAD_X}"


def test_clean_chunks_take_one_call_each_with_chunk_average_durations():
    evaluator = Vectorized(bad=(), nan=())
    values, durations, report = run(ThreadExecutor(2), evaluator)
    assert sorted(evaluator.calls) == [("many", 4)] * 3
    assert values == [x["x"] ** 2 + 0.5 for x in POINTS]
    for lo in range(0, 12, 4):
        assert len(set(durations[lo : lo + 4].tolist())) == 1
    assert report.n_failed == report.n_retries == 0


def test_failing_chunk_reruns_only_that_chunk_point_by_point():
    evaluator = Vectorized(nan=())
    run(ThreadExecutor(2), evaluator, policy=FaultPolicy(on_error="skip"))
    # x = 5 sits in the chunk of points 4-7
    assert sorted(evaluator.calls) == [("many", 4)] * 3 + [("point", 1)] * 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rngs": "spawned"},
        {"policy": FaultPolicy(on_error="skip", timeout=60.0)},
    ],
    ids=["rng", "timeout"],
)
def test_rng_and_timeout_take_the_per_point_path(kwargs):
    evaluator = Vectorized(bad=(), nan=())
    if kwargs.get("rngs") == "spawned":
        kwargs = {"rngs": list(np.random.default_rng(3).spawn(len(POINTS)))}
    run(ThreadExecutor(2), evaluator, **kwargs)
    assert evaluator.calls == [("point", 1)] * len(POINTS)


def test_nan_under_treat_nan_as_failure_takes_the_per_point_path():
    evaluator = Vectorized(bad=())
    run(ThreadExecutor(2), evaluator, policy=FaultPolicy(on_error="skip", treat_nan_as_failure=True))
    # x = 7 sits in the chunk of points 4-7
    assert sorted(evaluator.calls) == [("many", 4)] * 3 + [("point", 1)] * 4


class CountingShipOnce:
    """A ship-once evaluator that counts how often it is pickled."""

    __ship_once__ = True
    pickled = 0

    def __call__(self, assignment):
        return assignment["x"] + 1.0

    def __reduce__(self):
        type(self).pickled += 1
        return (CountingShipOnce, ())


def test_held_executor_pickles_a_ship_once_evaluator_once():
    evaluator = CountingShipOnce()
    CountingShipOnce.pickled = 0
    with ProcessExecutor(2) as executor:
        for _ in range(3):
            values, _, _ = executor.run(evaluator, POINTS, chunk_size=4)
            assert values == [p["x"] + 1.0 for p in POINTS]
    assert CountingShipOnce.pickled == 1
    pickle.dumps(evaluator)  # still picklable on its own


class UnpicklableShipOnce:
    __ship_once__ = True

    def __init__(self):
        self.fn = lambda assignment: 0.0

    def __call__(self, assignment):
        return self.fn(assignment)


def test_unpicklable_ship_once_evaluator_still_raises_clearly():
    from repro.exceptions import ModelDefinitionError

    with ProcessExecutor(2) as executor:
        with pytest.raises(ModelDefinitionError, match="the evaluator is not picklable"):
            executor.run(UnpicklableShipOnce(), POINTS)
