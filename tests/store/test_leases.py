"""Lease semantics: claims, expiry reclamation, heartbeats, racing workers.

The clock is injected (``CampaignStore(now=...)``) so lease expiry is
tested deterministically, without sleeping.
"""

import pytest

from repro.exceptions import ModelDefinitionError
from repro.store import CampaignStore, ResumableCampaign


class Clock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def store(clock):
    with CampaignStore(":memory:", now=clock) as s:
        s.create_campaign("c1", "m", [{"x": float(x)} for x in range(6)], chunk_size=2)
        yield s


class TestClaims:
    def test_claims_are_exclusive_until_expiry(self, store):
        assert store.claim_chunk("c1", "w1", ttl=60.0) == 0
        assert store.claim_chunk("c1", "w2", ttl=60.0) == 1
        assert store.claim_chunk("c1", "w3", ttl=60.0) == 2
        # everything leased and live: nothing claimable for a newcomer
        assert store.claim_chunk("c1", "w4", ttl=60.0) is None

    def test_claim_is_reentrant_for_the_holder(self, store):
        assert store.claim_chunk("c1", "w1", ttl=60.0) == 0
        # the same worker asking again gets its own chunk back
        assert store.claim_chunk("c1", "w1", ttl=60.0) == 0

    def test_expired_lease_is_reclaimed(self, store, clock):
        assert store.claim_chunk("c1", "w1", ttl=30.0) == 0
        clock.advance(10.0)
        assert store.claim_chunk("c1", "w2", ttl=60.0) == 1  # 0 still live
        clock.advance(25.0)  # w1's lease expired at t=30, w2's lives to t=70
        assert store.claim_chunk("c1", "w3", ttl=60.0) == 0  # reclaimed from w1
        states = {s["chunk_id"]: s for s in store.chunk_states("c1")}
        assert states[0]["worker_id"] == "w3"

    def test_completed_chunks_are_never_claimable(self, store):
        chunk = store.claim_chunk("c1", "w1", ttl=60.0)
        store.record_chunk("c1", chunk, "m", [], worker_id="w1")
        assert store.claim_chunk("c1", "w2", ttl=60.0) == 1
        states = {s["chunk_id"]: s for s in store.chunk_states("c1")}
        assert states[0]["completed"] is True


class TestClaimMany:
    """``claim_chunks``: one transaction claims a round of chunks."""

    @pytest.fixture()
    def store(self, clock):
        with CampaignStore(":memory:", now=clock) as s:
            s.create_campaign("c5", "m", [{"x": float(x)} for x in range(10)], chunk_size=2)
            yield s

    def test_claims_lowest_chunks_first(self, store):
        assert store.claim_chunks("c5", "w1", n=3, ttl=60.0) == [0, 1, 2]
        states = {s["chunk_id"]: s["worker_id"] for s in store.chunk_states("c5")}
        assert states == {0: "w1", 1: "w1", 2: "w1", 3: None, 4: None}

    def test_two_workers_get_disjoint_rounds(self, store):
        assert store.claim_chunks("c5", "w1", n=2, ttl=60.0) == [0, 1]
        assert store.claim_chunks("c5", "w2", n=2, ttl=60.0) == [2, 3]

    def test_fewer_when_fewer_are_claimable(self, store):
        store.claim_chunks("c5", "w1", n=3, ttl=60.0)
        store.record_chunk("c5", 3, "m", [], worker_id="w2")
        assert store.claim_chunks("c5", "w2", n=4, ttl=60.0) == [4]
        assert store.claim_chunks("c5", "w3", n=4, ttl=60.0) == []

    def test_expired_leases_are_reclaimed(self, store, clock):
        assert store.claim_chunks("c5", "w1", n=2, ttl=30.0) == [0, 1]
        clock.advance(10.0)
        assert store.claim_chunks("c5", "w2", n=2, ttl=60.0) == [2, 3]
        clock.advance(25.0)  # w1's leases expired at t=30, w2's live to t=70
        assert store.claim_chunks("c5", "w3", n=3, ttl=60.0) == [0, 1, 4]
        states = {s["chunk_id"]: s["worker_id"] for s in store.chunk_states("c5")}
        assert states == {0: "w3", 1: "w3", 2: "w2", 3: "w2", 4: "w3"}

    def test_holder_reclaims_its_own_round(self, store):
        assert store.claim_chunks("c5", "w1", n=2, ttl=60.0) == [0, 1]
        # re-entrant: the holder gets its chunks back first, then new ones
        assert store.claim_chunks("c5", "w1", n=3, ttl=60.0) == [0, 1, 2]
        assert store.claim_chunks("c5", "w2", n=3, ttl=60.0) == [3, 4]

    def test_n_below_one_is_refused(self, store):
        with pytest.raises(ModelDefinitionError, match="n must be >= 1"):
            store.claim_chunks("c5", "w1", n=0)


class TestHeartbeat:
    def test_heartbeat_extends_the_lease(self, store, clock):
        store.claim_chunk("c1", "w1", ttl=30.0)
        clock.advance(20.0)
        assert store.heartbeat("c1", 0, "w1", ttl=30.0) is True  # now expires at t=50
        clock.advance(15.0)  # t=35: past the original expiry, inside the extension
        assert store.claim_chunk("c1", "w2", ttl=60.0) == 1  # chunk 0 still owned
        clock.advance(20.0)  # t=55: extension lapsed too
        assert store.claim_chunk("c1", "w3", ttl=60.0) == 0

    def test_heartbeat_reports_a_lost_lease(self, store, clock):
        store.claim_chunk("c1", "w1", ttl=10.0)
        clock.advance(20.0)
        store.claim_chunk("c1", "w2", ttl=60.0)  # w2 reclaims chunk 0
        assert store.heartbeat("c1", 0, "w1", ttl=10.0) is False
        assert store.heartbeat("c1", 0, "w2", ttl=60.0) is True

    def test_release_gives_the_chunk_back(self, store):
        store.claim_chunk("c1", "w1", ttl=60.0)
        assert store.release_chunk("c1", 0, "w1") is True
        assert store.release_chunk("c1", 0, "w1") is False  # already released
        assert store.claim_chunk("c1", "w2", ttl=60.0) == 0


class TestRacingWorkers:
    def test_race_loser_gets_a_fresh_claim_and_no_double_commit(self, store, clock):
        """Two workers end up on one chunk (expiry race); the loser's
        commit writes zero duplicate rows."""
        assert store.claim_chunk("c1", "w1", ttl=10.0) == 0
        clock.advance(20.0)  # w1 looks dead
        assert store.claim_chunk("c1", "w2", ttl=60.0) == 0  # w2 reclaims
        # ... but w1 was only slow, and both now evaluate chunk 0
        rows = [({"x": 0.0}, 10.0, None, 0.0, 1), ({"x": 1.0}, 11.0, None, 0.0, 1)]
        written_w2, dup_w2 = store.record_chunk("c1", 0, "m", rows, worker_id="w2")
        written_w1, dup_w1 = store.record_chunk("c1", 0, "m", rows, worker_id="w1")
        assert (written_w2, dup_w2) == (2, 0)
        assert (written_w1, dup_w1) == (0, 2)  # first writer won; no double commit
        # stored values are w2's (identical values either way — but provenance shows it)
        assert store.lookup("m", {"x": 0.0}).worker_id == "w2"
        # the loser moves on to a fresh claim
        assert store.claim_chunk("c1", "w1", ttl=60.0) == 1

    def test_two_workers_drain_disjoint_chunks(self, store):
        seen = {"w1": [], "w2": []}
        while True:
            c1 = store.claim_chunk("c1", "w1", ttl=60.0)
            if c1 is not None:
                seen["w1"].append(c1)
                store.record_chunk("c1", c1, "m", [], worker_id="w1")
            c2 = store.claim_chunk("c1", "w2", ttl=60.0)
            if c2 is not None:
                seen["w2"].append(c2)
                store.record_chunk("c1", c2, "m", [], worker_id="w2")
            if c1 is None and c2 is None:
                break
        assert sorted(seen["w1"] + seen["w2"]) == [0, 1, 2]
        assert not (set(seen["w1"]) & set(seen["w2"]))


class TestResumeNeverReevaluates:
    def test_stored_successes_are_not_reevaluated(self):
        """A resumed run's evaluation-call counter stays at zero."""
        calls = {"n": 0}

        def evaluate(p):
            calls["n"] += 1
            return p["x"] * 2

        points = [{"x": float(x)} for x in range(10)]
        with CampaignStore(":memory:") as store:
            first = ResumableCampaign(evaluate, points, store, model="m", chunk_size=3)
            first.run()
            assert calls["n"] == 10
            second = ResumableCampaign(evaluate, points, store, model="m", chunk_size=3)
            result = second.run()
            assert calls["n"] == 10  # not a single re-evaluation
            assert second.evaluated_points == 0
            assert second.skipped_points == 10
            assert result.outputs.tolist() == [x * 2.0 for x in range(10)]
