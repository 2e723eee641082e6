"""End-to-end crash recovery: SIGKILL a real worker subprocess mid-campaign,
resume, and require bit-identity with an uninterrupted serial run.

This is the acceptance harness for the durability story: the worker dies
hard (``kill -9`` semantics — no atexit, no flush), so anything it had
not committed is genuinely gone.  The checkpoint contract says the
blast radius is at most the round in flight (one chunk when serial, at
most ``n_jobs`` chunks with a pool), and a resumed worker re-evaluates
only that.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.engine import EngineOptions
from repro.store import CampaignStore, ResumableCampaign, campaign_id_for, encode_point_key
from tests.engine.test_executors import _alive
from tests.store.crash_model import evaluate

POINTS = [{"x": 0.25 * k} for k in range(20)]
CHUNK = 4
MODEL = "tests.store.crash_model:evaluate"


def worker_env():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src), os.path.abspath(root), env.get("PYTHONPATH", "")]
    )
    return env


def worker_cmd(path, *extra):
    return [
        sys.executable, "-u", "-m", "repro.store", "resume",
        "--store", path, "--worker-id", "w-test", "--quiet", *extra,
    ]


@pytest.fixture()
def declared(tmp_path):
    path = str(tmp_path / "crash.sqlite")
    campaign_id = campaign_id_for(
        MODEL, [encode_point_key(p) for p in POINTS], chunk_size=CHUNK
    )
    with CampaignStore(path) as store:
        store.create_campaign(campaign_id, MODEL, POINTS, chunk_size=CHUNK)
    return path, campaign_id


class TestSigkillRecovery:
    def test_kill_resume_bit_identity(self, declared):
        path, campaign_id = declared
        baseline = np.asarray([evaluate(p) for p in POINTS], dtype=float)

        # the worker SIGKILLs itself on its 10th evaluation: mid-chunk,
        # with two committed chunks behind it
        proc = subprocess.run(
            worker_cmd(path, "--kill-after", "10"),
            env=worker_env(), capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL

        with CampaignStore(path) as store:
            mid = store.counts(MODEL)["ok"]
        assert 0 < mid < len(POINTS), "the kill lost work but not everything"
        assert mid % CHUNK == 0, "partial chunks never reach the store"
        assert mid == 8, "exactly the two committed chunks survived"

        proc = subprocess.run(
            worker_cmd(path), env=worker_env(), capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode()

        # in-process verification pass: everything is served durably and
        # the assembled array is byte-identical to the uninterrupted run
        with CampaignStore(path) as store:
            verify = ResumableCampaign(
                evaluate, POINTS, store, model=MODEL, chunk_size=CHUNK
            )
            outputs = verify.run().outputs
            assert verify.evaluated_points == 0
        assert outputs.tobytes() == baseline.tobytes()

    def test_resume_reevaluates_at_most_one_chunk_boundary(self, declared):
        """A serial worker's round is one chunk, so the kill loses at most
        that chunk: the resume's work is exactly total - committed, where
        committed is chunk-aligned."""
        path, _ = declared
        # short lease: the dead worker's in-flight chunk becomes claimable
        # quickly for the differently-named verifier below
        subprocess.run(
            worker_cmd(path, "--kill-after", "10", "--ttl", "2"),
            env=worker_env(), capture_output=True, timeout=120,
        )
        with CampaignStore(path) as store:
            committed = store.counts(MODEL)["ok"]
            resumed = ResumableCampaign(
                evaluate, POINTS, store, model=MODEL, chunk_size=CHUNK,
                worker_id="w-verify",
            )
            resumed.run()
        lost = 10 - committed  # evaluations the killed worker had made but not committed
        assert 0 <= lost < CHUNK + 1
        assert resumed.evaluated_points == len(POINTS) - committed
        assert resumed.skipped_points == committed


class TestSigkillTwoWorkerRound:
    """With ``n_jobs=2`` a round holds two chunks, one per pool worker; a
    hard kill of the driver loses at most that round."""

    def test_kill_loses_at_most_one_round(self, declared, tmp_path):
        path, _ = declared
        log = str(tmp_path / "evaluations.log")
        baseline = np.asarray([evaluate(p) for p in POINTS], dtype=float)
        # point 14 sits in chunk 3, the second chunk of round 1 (chunks 2, 3)
        script = textwrap.dedent(
            f"""
            import os
            from repro.engine import EngineOptions
            from repro.store import CampaignStore, ResumableCampaign
            from tests.store.crash_model import KillDriverAt
            from tests.store.test_crash_recovery import CHUNK, MODEL, POINTS

            with CampaignStore({path!r}) as store:
                ResumableCampaign(
                    KillDriverAt(3.5, os.getpid(), {log!r}), POINTS, store,
                    model=MODEL, chunk_size=CHUNK, worker_id="w-round",
                    options=EngineOptions(executor="process", n_jobs=2),
                ).run()
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=worker_env(), capture_output=True, timeout=120
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

        with CampaignStore(path) as store:
            committed = store.counts(MODEL)["ok"]
        with open(log) as handle:
            lines = [line.split() for line in handle]
        assert committed % CHUNK == 0, "partial chunks never reach the store"
        assert committed == 2 * CHUNK, "round 0 survived, round 1 was lost whole"
        lost = len(lines) - committed  # evaluations made but never committed
        assert 0 < lost <= 2 * CHUNK
        # the orphaned pool workers notice the dead driver and leave
        workers = {int(pid) for _, pid in lines}
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in workers)

        with CampaignStore(path) as store:
            resumed = ResumableCampaign(
                evaluate, POINTS, store, model=MODEL, chunk_size=CHUNK,
                worker_id="w-round",  # re-entrant: takes its dead leases back
                options=EngineOptions(executor="process", n_jobs=2),
            )
            outputs = resumed.run().outputs
            assert resumed.evaluated_points == len(POINTS) - committed
            assert resumed.duplicate_commits == 0
        assert outputs.tobytes() == baseline.tobytes()


class TestSigtermGracefulDrain:
    def test_first_sigterm_commits_and_exits_zero(self, declared):
        """Satellite: a campaign worker traps SIGTERM, finishes the chunk
        in flight, commits it, and exits 0."""
        path, _ = declared
        proc = subprocess.Popen(
            worker_cmd(path, "--throttle", "0.2"),
            env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            # let it claim and start the first chunk, then ask it to stop
            import time

            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert rc == 0, proc.stderr.read().decode()

        with CampaignStore(path) as store:
            done = store.counts(MODEL)["ok"]
        assert done % CHUNK == 0, "the drain committed whole chunks only"
        assert 0 < done < len(POINTS), "it stopped early but not empty-handed"
