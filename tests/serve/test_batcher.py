"""Micro-batcher contract: coalescing, dedup, determinism, draining.

The central claim — batched evaluation is *bit-identical* to serial
direct evaluation — holds because a flush runs the exact same
:func:`~repro.engine.evaluate_batch` path a direct caller would, just
over more points at once.
"""

import threading

import pytest

from repro.engine import evaluate_batch
from repro.obs import ThreadSafeMetricsRegistry
from repro.serve import EvaluationFailed, MicroBatcher, ModelRegistry, UnknownModelError


@pytest.fixture
def tiny_registry():
    registry = ModelRegistry()
    registry.register("square", lambda a: a["x"] ** 2, probe=False)

    def picky(assignment):
        if assignment.get("x", 0.0) < 0.0:
            raise ValueError("negative x")
        return assignment.get("x", 0.0) + 1.0

    registry.register("picky", picky, probe=False)
    return registry


def make_batcher(registry, **kwargs):
    kwargs.setdefault("metrics", ThreadSafeMetricsRegistry())
    return MicroBatcher(registry, **kwargs)


class TestBatching:
    def test_single_submit_resolves(self, tiny_registry):
        batcher = make_batcher(tiny_registry)
        try:
            assert batcher.submit("square", {"x": 3.0}).result(timeout=10) == 9.0
        finally:
            batcher.close()

    def test_concurrent_submits_identical_to_serial(self, tiny_registry):
        # N client threads race distinct points through the batcher;
        # every value must equal the direct serial engine answer bit
        # for bit, regardless of how the flushes sliced the queue.
        points = [{"x": 0.1 * i} for i in range(40)]
        serial = evaluate_batch(lambda a: a["x"] ** 2, points).outputs
        batcher = make_batcher(
            tiny_registry, max_batch=8, flush_window=0.005
        )
        results = [None] * len(points)
        barrier = threading.Barrier(len(points))

        def client(i):
            barrier.wait()
            results[i] = batcher.submit("square", points[i]).result(timeout=30)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        batcher.close()
        assert results == list(serial)

    def test_hot_point_deduplicated_within_flush(self, tiny_registry):
        calls = []
        lock = threading.Lock()

        def counting(assignment):
            with lock:
                calls.append(dict(assignment))
            return assignment["x"]

        registry = ModelRegistry()
        registry.register("counting", counting, probe=False)
        # A long flush window so all submissions land in one burst.
        batcher = make_batcher(registry, max_batch=64, flush_window=0.2)
        futures = [batcher.submit("counting", {"x": 7.0}) for _ in range(10)]
        values = [f.result(timeout=30) for f in futures]
        batcher.close()
        assert values == [7.0] * 10
        assert len(calls) == 1  # evaluated once, fanned out ten times

    def test_mixed_models_in_one_burst(self, tiny_registry):
        batcher = make_batcher(tiny_registry, flush_window=0.05)
        square = batcher.submit("square", {"x": 2.0})
        picky = batcher.submit("picky", {"x": 2.0})
        assert square.result(timeout=30) == 4.0
        assert picky.result(timeout=30) == 3.0
        batcher.close()

    def test_poisoned_point_fails_alone(self, tiny_registry):
        batcher = make_batcher(tiny_registry, flush_window=0.05)
        good = batcher.submit("picky", {"x": 1.0})
        bad = batcher.submit("picky", {"x": -1.0})
        assert good.result(timeout=30) == 2.0
        with pytest.raises(EvaluationFailed) as excinfo:
            bad.result(timeout=30)
        batcher.close()
        assert excinfo.value.record.error_type == "ValueError"
        assert "negative x" in excinfo.value.record.message

    def test_unknown_model_fails_fast_in_caller(self, tiny_registry):
        batcher = make_batcher(tiny_registry)
        try:
            with pytest.raises(UnknownModelError):
                batcher.submit("nope", {"x": 1.0})
        finally:
            batcher.close()

    def test_metrics_flow_to_shared_registry(self, tiny_registry):
        metrics = ThreadSafeMetricsRegistry()
        batcher = make_batcher(tiny_registry, metrics=metrics, flush_window=0.05)
        futures = [batcher.submit("square", {"x": 1.0}) for _ in range(3)]
        for f in futures:
            f.result(timeout=30)
        batcher.close()
        summary = metrics.summary()
        assert summary["serve.batch.flushes"] >= 1
        assert summary["serve.batch.size.count"] >= 1
        assert summary.get("serve.batch.deduplicated{model=square}", 0) == 2


class TestClose:
    def test_close_drains_pending_work(self, tiny_registry):
        # Everything queued before close() still resolves: the
        # graceful-shutdown contract.
        batcher = make_batcher(tiny_registry, max_batch=1000, flush_window=5.0)
        futures = [batcher.submit("square", {"x": float(i)}) for i in range(10)]
        batcher.close(drain=True)  # well before the 5 s window expires
        assert [f.result(timeout=1) for f in futures] == [float(i) ** 2 for i in range(10)]

    def test_close_without_drain_fails_pending(self, tiny_registry):
        batcher = make_batcher(tiny_registry, max_batch=1000, flush_window=5.0)
        future = batcher.submit("square", {"x": 2.0})
        batcher.close(drain=False)
        with pytest.raises(EvaluationFailed, match="shut down"):
            future.result(timeout=1)

    def test_submit_after_close_raises(self, tiny_registry):
        batcher = make_batcher(tiny_registry)
        batcher.close()
        assert batcher.closed
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("square", {"x": 1.0})

    def test_close_is_idempotent(self, tiny_registry):
        batcher = make_batcher(tiny_registry)
        batcher.close()
        batcher.close()


class TestValidation:
    def test_bad_knobs_rejected(self, tiny_registry):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(tiny_registry, max_batch=0)
        with pytest.raises(ValueError, match="flush_window"):
            MicroBatcher(tiny_registry, flush_window=-1.0)


class TestNamedPoolFlushes:
    def test_flushes_reuse_one_warm_pool(self, registry, monkeypatch):
        import numpy as np

        from repro.engine import ProcessExecutor

        pools = []
        make_pool = ProcessExecutor._make_pool

        def counted(self, shipped):
            pools.append(shipped)
            return make_pool(self, shipped)

        monkeypatch.setattr(ProcessExecutor, "_make_pool", counted)
        points = [{"disk_failure_rate": 1e-5 * (1.0 + k / 10.0)} for k in range(4)]
        serial = evaluate_batch(registry.get("bladecenter").evaluate, points).outputs
        batcher = make_batcher(registry, executor="process", n_jobs=2)
        try:
            # one point at a time: every submit is its own flush
            got = [batcher.submit("bladecenter", p).result(timeout=60) for p in points]
        finally:
            batcher.close()
        assert np.array(got).tobytes() == serial.tobytes()
        assert len(pools) == 1
