"""Unit tests for the engine's executor backends."""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro
from repro.engine import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    evaluate_batch,
    resolve_executor,
    spawn_generators,
)
from repro.engine.executors import default_chunk_size, parallel_starmap
from repro.exceptions import ModelDefinitionError, SolverError
from repro.robust import FaultPolicy


def quadratic(assignment):
    """Module-level evaluator: picklable for the process pool."""
    return assignment["x"] ** 2 + 3.0 * assignment.get("y", 0.0)


def stochastic(assignment, rng):
    """Module-level stochastic evaluator for RNG-spawning tests."""
    return assignment["x"] + rng.normal()


def chunk_worker(n, rng):
    """Module-level starmap worker."""
    return float(rng.uniform(size=n).sum())


def worker_pid(assignment):
    """Module-level evaluator answering with the pid that evaluated it."""
    return float(os.getpid())


class ShipOnceOffset:
    """A ``__ship_once__`` evaluator: installed by the pool initializer."""

    __ship_once__ = True

    def __init__(self, offset):
        self.offset = offset

    def __call__(self, assignment):
        return assignment["x"] + self.offset


ASSIGNMENTS = [{"x": float(k % 5), "y": float(k // 5)} for k in range(23)]
EXPECTED = [quadratic(a) for a in ASSIGNMENTS]


class TestBackends:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ThreadExecutor(3), ProcessExecutor(2)],
        ids=["serial", "thread", "process"],
    )
    def test_outputs_in_input_order(self, executor):
        values, durations, report = executor.run(quadratic, ASSIGNMENTS)
        assert list(values) == EXPECTED
        assert durations.shape == (len(ASSIGNMENTS),)
        assert np.all(durations >= 0.0)
        assert report.n_failed == 0 and report.n_retries == 0

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 100])
    def test_chunking_never_changes_results(self, chunk_size):
        values, _, _ = ThreadExecutor(4).run(quadratic, ASSIGNMENTS, chunk_size=chunk_size)
        assert list(values) == EXPECTED

    def test_empty_batch(self):
        for executor in (SerialExecutor(), ThreadExecutor(2), ProcessExecutor(2)):
            values, durations, report = executor.run(quadratic, [])
            assert values == []
            assert durations.size == 0
            assert report.n_failed == 0

    def test_progress_reaches_total(self):
        seen = []
        SerialExecutor().run(quadratic, ASSIGNMENTS, progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (len(ASSIGNMENTS), len(ASSIGNMENTS))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_pool_progress_monotone(self):
        seen = []
        ThreadExecutor(3).run(
            quadratic, ASSIGNMENTS, chunk_size=4, progress=lambda d, t: seen.append(d)
        )
        assert seen[-1] == len(ASSIGNMENTS)
        assert seen == sorted(seen)

    def test_invalid_n_jobs(self):
        with pytest.raises(ModelDefinitionError):
            ThreadExecutor(0)
        with pytest.raises(ModelDefinitionError):
            ProcessExecutor(-1)

    def test_rng_length_mismatch_rejected(self):
        rngs = spawn_generators(np.random.default_rng(0), 2)
        with pytest.raises(ModelDefinitionError):
            SerialExecutor().run(stochastic, ASSIGNMENTS, rngs=rngs)


class TestResolve:
    def test_default_is_serial(self):
        assert resolve_executor().name == "serial"

    def test_n_jobs_selects_process(self):
        executor = resolve_executor(n_jobs=3)
        assert executor.name == "process"
        assert executor.n_jobs == 3

    def test_names(self):
        assert resolve_executor(executor="serial").name == "serial"
        assert resolve_executor(executor="thread").name == "thread"
        assert resolve_executor(n_jobs=4, executor="process").n_jobs == 4

    def test_named_backend_respects_n_jobs(self):
        # Regression: "thread" with n_jobs=1 used to be silently promoted
        # to a two-worker pool; a one-worker pool is a legitimate request.
        assert resolve_executor(n_jobs=1, executor="thread").n_jobs == 1
        assert resolve_executor(n_jobs=1, executor="process").n_jobs == 1
        assert resolve_executor(n_jobs=3, executor="thread").n_jobs == 3

    def test_instance_passthrough(self):
        executor = ThreadExecutor(5)
        assert resolve_executor(n_jobs=1, executor=executor) is executor

    def test_unknown_rejected(self):
        with pytest.raises(ModelDefinitionError):
            resolve_executor(executor="gpu")
        with pytest.raises(ModelDefinitionError):
            resolve_executor(n_jobs=0)


class TestPicklingGuard:
    def test_lambda_with_process_pool_raises_clearly(self):
        with pytest.raises(ModelDefinitionError, match="picklable"):
            ProcessExecutor(2).run(lambda a: a["x"], [{"x": 1.0}, {"x": 2.0}])

    def test_closure_via_evaluate_batch(self):
        offset = 2.0

        def closure(assignment):
            return assignment["x"] + offset

        # Closures over module scope do pickle; a local lambda does not.
        with pytest.raises(ModelDefinitionError, match="n_jobs=1"):
            evaluate_batch(lambda a: a["x"], [{"x": 1.0}, {"x": 2.0}], n_jobs=2)

    def test_thread_pool_accepts_lambdas(self):
        values, _, _ = ThreadExecutor(2).run(lambda a: a["x"] * 2, [{"x": 1.0}, {"x": 4.0}])
        assert values == [2.0, 8.0]


class TestSpawning:
    def test_spawn_deterministic(self):
        a = spawn_generators(np.random.default_rng(9), 5)
        b = spawn_generators(np.random.default_rng(9), 5)
        for ga, gb in zip(a, b):
            assert ga.uniform() == gb.uniform()

    def test_children_independent(self):
        children = spawn_generators(np.random.default_rng(9), 3)
        draws = {round(g.uniform(), 12) for g in children}
        assert len(draws) == 3

    def test_spawn_validation(self):
        assert spawn_generators(np.random.default_rng(0), 0) == []
        with pytest.raises(ModelDefinitionError):
            spawn_generators(np.random.default_rng(0), -1)


class TestStarmap:
    def test_serial_and_parallel_agree(self):
        rngs = spawn_generators(np.random.default_rng(4), 6)
        tasks = [(8, rng) for rng in rngs]
        serial = parallel_starmap(chunk_worker, tasks, n_jobs=1)
        rngs = spawn_generators(np.random.default_rng(4), 6)
        parallel = parallel_starmap(chunk_worker, [(8, rng) for rng in rngs], n_jobs=2)
        assert serial == parallel

    def test_pickling_guard(self):
        with pytest.raises(ModelDefinitionError, match="picklable"):
            parallel_starmap(lambda n: n, [(1,), (2,)], n_jobs=2)

    def test_invalid_n_jobs(self):
        with pytest.raises(ModelDefinitionError):
            parallel_starmap(chunk_worker, [], n_jobs=0)


def failing_at_seven(assignment):
    """Module-level evaluator that raises on one specific input."""
    if assignment["x"] == 7.0:
        raise ValueError("boom at 7")
    return assignment["x"] * 2.0


def slow_then_value(assignment):
    """Sleeps long enough to trip a tight soft timeout."""
    time.sleep(0.05)
    return assignment["x"]


class TestFaultSemantics:
    """Fail-fast default vs FaultPolicy isolation (pins PR-2 semantics)."""

    ASSIGN = [{"x": float(k)} for k in range(16)]

    @pytest.mark.parametrize(
        "executor",
        [ThreadExecutor(3), ProcessExecutor(2)],
        ids=["thread", "process"],
    )
    def test_pool_mid_batch_raise_propagates(self, executor):
        # Without a policy the first evaluator exception aborts the batch:
        # remaining chunks are cancelled and the original error surfaces.
        with pytest.raises(ValueError, match="boom at 7"):
            executor.run(failing_at_seven, self.ASSIGN, chunk_size=2)

    def test_explicit_raise_policy_matches_default(self):
        with pytest.raises(ValueError, match="boom at 7"):
            ThreadExecutor(3).run(
                failing_at_seven,
                self.ASSIGN,
                chunk_size=2,
                policy=FaultPolicy(on_error="raise"),
            )

    def test_skip_policy_isolates_the_failure(self):
        values, _, report = ThreadExecutor(3).run(
            failing_at_seven,
            self.ASSIGN,
            chunk_size=2,
            policy=FaultPolicy(on_error="skip"),
        )
        assert report.n_failed == 1
        assert report.errors[0].index == 7
        assert report.errors[0].error_type == "ValueError"
        assert np.isnan(values[7])
        clean = [v for i, v in enumerate(values) if i != 7]
        assert clean == [a["x"] * 2.0 for i, a in enumerate(self.ASSIGN) if i != 7]

    def test_thread_soft_timeout_records_failure(self):
        # The soft deadline cannot interrupt a running frame, but the
        # over-budget evaluation must come back as a timeout ErrorRecord.
        values, _, report = ThreadExecutor(2).run(
            slow_then_value,
            [{"x": 1.0}, {"x": 2.0}],
            policy=FaultPolicy(on_error="skip", timeout=0.005),
        )
        assert report.n_failed == 2
        assert all(e.error_type == "EvaluationTimeout" for e in report.errors)
        assert np.all(np.isnan(values))

    def test_timeout_generous_budget_passes(self):
        values, _, report = ThreadExecutor(2).run(
            slow_then_value,
            [{"x": 1.0}, {"x": 2.0}],
            policy=FaultPolicy(on_error="skip", timeout=30.0),
        )
        assert report.n_failed == 0
        assert values == [1.0, 2.0]


def test_default_chunk_size_heuristic():
    assert default_chunk_size(0, 4) == 1
    assert default_chunk_size(1, 4) == 1
    assert default_chunk_size(1000, 4) == 63  # ~4 chunks per worker
    assert default_chunk_size(3, 8) == 1


def _alive(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestPoolLifetime:
    """One pool per ``with`` block; one pool per batch outside it."""

    PIDS = [{"x": float(k)} for k in range(16)]

    @pytest.mark.parametrize("executor", [ThreadExecutor(2), ProcessExecutor(2)], ids=["thread", "process"])
    def test_unheld_run_leaves_no_pool(self, executor):
        values, _, _ = executor.run(quadratic, ASSIGNMENTS)
        assert list(values) == EXPECTED
        assert executor._pool is None
        assert multiprocessing.active_children() == []

    def test_held_pool_is_reused_across_runs(self):
        executor = ProcessExecutor(2)
        with executor:
            first, _, _ = executor.run(worker_pid, self.PIDS, chunk_size=1)
            second, _, _ = executor.run(worker_pid, self.PIDS, chunk_size=1)
            # the same two workers answered both batches
            assert len(set(first) | set(second)) <= 2
            assert float(os.getpid()) not in first
        assert executor._pool is None
        assert multiprocessing.active_children() == []

    def test_nested_with_keeps_the_outer_pool(self):
        executor = ProcessExecutor(2)
        with executor:
            with executor:
                inner, _, _ = executor.run(worker_pid, self.PIDS, chunk_size=1)
            # the inner exit must not shut down the pool the outer holds
            outer, _, _ = executor.run(worker_pid, self.PIDS, chunk_size=1)
            assert len(set(inner) | set(outer)) <= 2
        assert multiprocessing.active_children() == []

    def test_other_ship_once_evaluator_gets_its_own_pool(self):
        executor = ProcessExecutor(2)
        points = [{"x": float(k)} for k in range(6)]
        with executor:
            for offset in (1.0, 2.0, 1.0):
                values, _, _ = executor.run(ShipOnceOffset(offset), points)
                assert values == [p["x"] + offset for p in points]
            # a plain evaluator runs on whatever pool is held
            values, _, _ = executor.run(quadratic, ASSIGNMENTS)
            assert list(values) == EXPECTED

    def test_broken_held_pool_is_replaced(self):
        from repro.robust import FaultInjector

        crashing = FaultInjector(quadratic, mode="crash", rate=1.0, fail_attempts=1)
        executor = ProcessExecutor(2)
        with executor:
            before, _, _ = executor.run(worker_pid, self.PIDS, chunk_size=1)
            values, _, report = executor.run(
                crashing, ASSIGNMENTS, policy=FaultPolicy(on_error="retry", max_retries=1)
            )
            assert list(values) == EXPECTED
            assert report.pool_recoveries == 1
            after, _, _ = executor.run(worker_pid, self.PIDS, chunk_size=1)
        assert not set(before) & set(after)
        assert float(os.getpid()) not in after
        assert multiprocessing.active_children() == []

    def test_fail_fast_leaves_held_pool_usable(self):
        executor = ProcessExecutor(2)
        with executor:
            with pytest.raises(ValueError, match="boom at 7"):
                executor.run(failing_at_seven, TestFaultSemantics.ASSIGN, chunk_size=2)
            values, _, _ = executor.run(quadratic, ASSIGNMENTS)
            assert list(values) == EXPECTED

    @pytest.mark.parametrize("held", [False, True], ids=["unheld", "held"])
    def test_concurrent_runs_share_and_release_the_pool(self, held):
        """More threads than cores race runs that swap the shipped
        evaluator; a lost update to the hold count would leak the pool."""
        executor = ProcessExecutor(2)
        points = [{"x": float(k)} for k in range(8)]
        errors = []

        def worker(offset):
            try:
                for _ in range(4):
                    values, _, _ = executor.run(ShipOnceOffset(offset), points, chunk_size=2)
                    assert values == [p["x"] + offset for p in points]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with executor if held else contextlib.nullcontext():
                threads = [threading.Thread(target=worker, args=(k % 2 + 1.0,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert executor._holds == 0 and executor._pool is None
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        script = tmp_path / "holder.py"
        script.write_text(
            textwrap.dedent(
                """
                import os, sys, time
                from repro.engine import ProcessExecutor

                def worker_pid(assignment):
                    return float(os.getpid())

                with ProcessExecutor(2) as executor:
                    pids, _, _ = executor.run(worker_pid, [{"x": 0.0}] * 8, chunk_size=1)
                    print(" ".join(str(int(p)) for p in set(pids)), flush=True)
                    time.sleep(60)
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        holder = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            pids = [int(pid) for pid in holder.stdout.readline().split()]
            assert pids and all(_alive(pid) for pid in pids)
        finally:
            holder.send_signal(signal.SIGKILL)
            holder.wait()
            holder.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)
