"""The durable campaign result store: :class:`CampaignStore`.

Every ``(model, canonical point key, seed)`` evaluation outcome —
success *or* structured failure — is written to sqlite through the
single-writer :class:`~repro.store.db.StoreDB` serializer, so a
campaign's results survive the process that computed them.  On top of
the raw memo the store keeps *campaign* bookkeeping: a declared task
list (point keys in input order), a chunk plan, and per-chunk **lease
rows** (worker id, lease expiry, heartbeat) that let N worker processes
drain one campaign concurrently with crash-safe hand-off — a worker
that dies simply stops heart-beating and its chunk is reclaimed when
the lease expires.

Commit semantics (the invariants the rest of the subsystem builds on):

* a **success never degrades** — ``record_failure`` cannot overwrite an
  ``ok`` row, and a second ``record_success`` for the same key is a
  no-op (first writer wins; the return value says whether the row was
  actually written, which is how the benchmarks prove zero duplicate
  commits);
* a **failure never masquerades** — error rows carry the full
  :class:`~repro.robust.ErrorRecord` payload and are re-dispatched on
  resume, exactly like the in-memory cache's failures-never-cached
  rule;
* a **chunk commits atomically** — :meth:`record_chunk` folds the
  chunk's rows and its lease completion into one transaction, so a
  ``kill -9`` loses only uncommitted chunks, never half of one.

Point keys are the engine's :func:`~repro.engine.canonical_point_key`
serialized as JSON — ``json`` renders floats via ``repr``, which
round-trips every finite double exactly, so the stored key is
bit-faithful to the in-memory one.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..engine.cache import Key, canonical_point_key
from ..exceptions import ModelDefinitionError, SolverError
from ..robust.policy import ErrorRecord
from .db import SCHEMA_VERSION, StoreDB

__all__ = [
    "CampaignStore",
    "StoredResult",
    "encode_point_key",
    "decode_point_key",
]

#: a point as a mapping, a canonical key tuple, or its encoded key text
PointKey = Union[Key, Mapping[str, float], str]


def encode_point_key(point: PointKey) -> str:
    """Canonical JSON text for a parameter point.

    Accepts either a raw assignment mapping or an already-canonical
    :func:`~repro.engine.canonical_point_key` tuple.  ``json`` emits
    floats with ``repr``, so ``decode_point_key(encode_point_key(p))``
    reproduces the key bit for bit.

    Examples
    --------
    >>> encode_point_key({"b": 2, "a": 0.1})
    '[["a", 0.1], ["b", 2.0]]'
    """
    if isinstance(point, Mapping):
        key = canonical_point_key(point)
    else:
        key = canonical_point_key(dict(point))
    return json.dumps([[name, value] for name, value in key])


def _key_text(point: PointKey) -> str:
    """The encoded key of ``point``; key text passes through as is."""
    return point if isinstance(point, str) else encode_point_key(point)


def decode_point_key(text: str) -> Key:
    """Inverse of :func:`encode_point_key`."""
    return tuple((str(name), float(value)) for name, value in json.loads(text))


@dataclass(frozen=True)
class StoredResult:
    """One durable evaluation outcome.

    ``status`` is ``"ok"`` (``value`` holds the number) or ``"error"``
    (``error_type``/``message``/``attempts``/``duration`` hold the
    :class:`~repro.robust.ErrorRecord` payload and ``value`` is NaN).
    """

    model: str
    point_key: str
    seed: str
    status: str
    value: float
    error_type: Optional[str] = None
    message: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0
    worker_id: Optional[str] = None
    created_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_error_record(self, index: int = 0) -> ErrorRecord:
        """The failure as an engine :class:`~repro.robust.ErrorRecord`."""
        if self.ok:
            raise ModelDefinitionError("stored result is a success, not a failure")
        return ErrorRecord(
            index=int(index),
            error_type=self.error_type or "StoredFailure",
            message=self.message or "",
            attempts=self.attempts,
            duration=self.duration,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict form (used by ``export --json``)."""
        return {
            "model": self.model,
            "point": dict(decode_point_key(self.point_key)),
            "seed": self.seed,
            "status": self.status,
            # strict-JSON friendly: failures export null, not NaN
            "value": self.value if self.ok else None,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "duration": self.duration,
            "worker_id": self.worker_id,
            "created_at": self.created_at,
        }


_RESULT_COLUMNS = (
    "model, point_key, seed, status, value, error_type, message, "
    "attempts, duration, worker_id, created_at"
)


Row = Tuple[PointKey, float, Optional[ErrorRecord], float, int]


def _write_rows(
    conn, model: str, rows: Sequence[Row], seed: str, worker_id: Optional[str], stamp: float
) -> Tuple[int, int]:
    """Upsert outcome rows inside the caller's transaction.

    A success replaces only a stored failure (first ok writer wins).
    Returns ``(written, duplicates)``.
    """
    written = duplicates = 0
    for point, value, error, duration, attempts in rows:
        if error is None:
            outcome = ("ok", float(value), None, None)
        else:
            outcome = ("error", None, error.error_type, error.message)
        conn.execute(
            f"INSERT INTO results ({_RESULT_COLUMNS}) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT (model, point_key, seed) DO UPDATE SET "
            "status = excluded.status, value = excluded.value, "
            "error_type = excluded.error_type, message = excluded.message, "
            "attempts = excluded.attempts, duration = excluded.duration, "
            "worker_id = excluded.worker_id, created_at = excluded.created_at "
            "WHERE results.status = 'error'",
            (model, point, seed, *outcome, attempts, duration, worker_id, stamp),
        )
        if conn.execute("SELECT changes()").fetchone()[0]:
            written += 1
        else:
            duplicates += 1
    return written, duplicates


def _encode_rows(rows: Sequence[Row]) -> List[Row]:
    return [
        (_key_text(point), value, error, float(duration), int(attempts))
        for point, value, error, duration, attempts in rows
    ]


def _result_from_row(row: Tuple) -> StoredResult:
    # sqlite has no NaN (it stores NULL); restore the documented float form
    value = row[4]
    return StoredResult(*row[:4], float("nan") if value is None else float(value), *row[5:])


class CampaignStore:
    """Durable ``(model, point, seed) -> result-or-error`` store.

    Parameters
    ----------
    path:
        sqlite file (created on first open; parents must exist).
    timeout:
        Cross-process write-lock patience in seconds.
    now:
        Clock used for lease expiry and timestamps — injectable so the
        lease state machine is testable without sleeping.

    Examples
    --------
    >>> store = CampaignStore(":memory:")
    >>> store.record_success("m", {"x": 1.0}, 0.5)
    True
    >>> store.lookup("m", {"x": 1.0}).value
    0.5
    >>> store.record_success("m", {"x": 1.0}, 0.7)  # first writer wins
    False
    >>> store.close()
    """

    def __init__(self, path: str, timeout: float = 30.0, now=None):
        self.db = StoreDB(path, timeout=timeout)
        self.now = now if now is not None else _time.time

    # ------------------------------------------------------------ results
    def record_success(
        self,
        model: str,
        point: PointKey,
        value: float,
        seed: str = "",
        worker_id: Optional[str] = None,
        duration: float = 0.0,
        attempts: int = 1,
    ) -> bool:
        """Durably record one successful evaluation.

        Returns ``True`` when the row was written (fresh, or replacing a
        stored failure) and ``False`` when an ``ok`` row already existed
        — the duplicate-commit signal the lease tests assert on.
        """
        rows = [(point, float(value), None, float(duration), int(attempts))]
        written, _ = self.record_many(model, rows, seed=seed, worker_id=worker_id)
        return written == 1

    def record_failure(
        self,
        model: str,
        point: PointKey,
        error: ErrorRecord,
        seed: str = "",
        worker_id: Optional[str] = None,
    ) -> bool:
        """Durably record one terminal failure (never clobbers a success)."""
        rows = [(point, float("nan"), error, error.duration, error.attempts)]
        written, _ = self.record_many(model, rows, seed=seed, worker_id=worker_id)
        return written == 1

    def record_many(
        self,
        model: str,
        rows: Sequence[Row],
        seed: str = "",
        worker_id: Optional[str] = None,
    ) -> Tuple[int, int]:
        """Record a batch of outcomes in **one transaction**.

        Each row is ``(point, value, error_or_None, duration, attempts)``.
        Returns ``(written, duplicates)`` where *duplicates* counts rows
        that already had an ``ok`` entry and were left untouched.
        """
        encoded = _encode_rows(rows)
        stamp = float(self.now())
        return self.db.run(
            lambda conn: _write_rows(conn, model, encoded, seed, worker_id, stamp)
        )

    def lookup(self, model: str, point: PointKey, seed: str = "") -> Optional[StoredResult]:
        """The stored outcome for one point, or ``None``."""
        key_text = _key_text(point)
        return self._lookup_texts(model, [key_text], seed).get(key_text)

    def lookup_many(
        self, model: str, points: Iterable[PointKey], seed: str = ""
    ) -> Dict[str, StoredResult]:
        """Stored outcomes for many points, keyed by encoded point key.

        One serializer round-trip regardless of batch size — the chunk
        runner's resume check is a single query, not N.
        """
        return self._lookup_texts(model, [_key_text(point) for point in points], seed)

    def _lookup_texts(
        self, model: str, key_texts: Sequence[str], seed: str
    ) -> Dict[str, StoredResult]:
        """The one results query: stored outcomes by encoded key text."""

        def _read(conn):
            found: Dict[str, StoredResult] = {}
            for lo in range(0, len(key_texts), 400):
                batch = key_texts[lo : lo + 400]
                marks = ",".join("?" * len(batch))
                for row in conn.execute(
                    f"SELECT {_RESULT_COLUMNS} FROM results "
                    f"WHERE model = ? AND seed = ? AND point_key IN ({marks})",
                    [model, seed, *batch],
                ):
                    result = _result_from_row(row)
                    found[result.point_key] = result
            return found

        return self.db.run(_read)

    def failures(self, model: Optional[str] = None) -> List[StoredResult]:
        """Every stored failure (optionally for one model)."""

        def _read(conn):
            if model is None:
                cursor = conn.execute(
                    f"SELECT {_RESULT_COLUMNS} FROM results WHERE status = 'error'"
                )
            else:
                cursor = conn.execute(
                    f"SELECT {_RESULT_COLUMNS} FROM results "
                    "WHERE status = 'error' AND model = ?",
                    (model,),
                )
            return [_result_from_row(row) for row in cursor]

        return self.db.run(_read)

    def clear_failures(self, model: Optional[str] = None) -> int:
        """Drop stored failures so the next resume re-dispatches them.

        The ``retry-failed`` runbook verb; returns the number dropped.
        """

        def _write(conn):
            if model is None:
                conn.execute("DELETE FROM results WHERE status = 'error'")
            else:
                conn.execute(
                    "DELETE FROM results WHERE status = 'error' AND model = ?",
                    (model,),
                )
            return conn.execute("SELECT changes()").fetchone()[0]

        return self.db.run(_write)

    # ---------------------------------------------------------- campaigns
    def create_campaign(
        self,
        campaign_id: str,
        model: str,
        points: Sequence[PointKey],
        chunk_size: int,
        seed: str = "",
    ) -> int:
        """Declare (or idempotently re-open) a campaign's task list.

        Writes the ordered point keys into ``tasks`` and one lease row
        per chunk.  Re-declaring an existing campaign verifies that the
        shape matches (same model, seed and point count) and leaves the
        stored rows alone — the foundation of resume.  Returns the
        number of chunks.
        """
        if chunk_size < 1:
            raise ModelDefinitionError(f"chunk_size must be >= 1, got {chunk_size}")
        if not points:
            raise ModelDefinitionError("a campaign needs at least one point")
        encoded = [_key_text(point) for point in points]
        n = len(encoded)
        n_chunks = (n + chunk_size - 1) // chunk_size
        stamp = float(self.now())

        def _write(conn):
            row = conn.execute(
                "SELECT model, seed, n_points, chunk_size FROM campaigns "
                "WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
            if row is not None:
                if tuple(row) != (model, seed, n, chunk_size):
                    raise SolverError(
                        f"campaign {campaign_id!r} already exists with shape "
                        f"(model={row[0]!r}, seed={row[1]!r}, n_points={row[2]}, "
                        f"chunk_size={row[3]}); refusing to redeclare it as "
                        f"(model={model!r}, seed={seed!r}, n_points={n}, "
                        f"chunk_size={chunk_size})"
                    )
                return n_chunks
            conn.execute(
                "INSERT INTO campaigns (campaign_id, model, seed, n_points, "
                "chunk_size, created_at) VALUES (?, ?, ?, ?, ?, ?)",
                (campaign_id, model, seed, n, chunk_size, stamp),
            )
            conn.executemany(
                "INSERT INTO tasks (campaign_id, idx, point_key) VALUES (?, ?, ?)",
                [(campaign_id, idx, key) for idx, key in enumerate(encoded)],
            )
            conn.executemany(
                "INSERT INTO leases (campaign_id, chunk_id) VALUES (?, ?)",
                [(campaign_id, chunk) for chunk in range(n_chunks)],
            )
            return n_chunks

        return self.db.run(_write)

    def campaign(self, campaign_id: str) -> Dict[str, object]:
        """The campaign header row as a dict (raises on unknown id)."""

        def _read(conn):
            row = conn.execute(
                "SELECT campaign_id, model, seed, n_points, chunk_size, created_at "
                "FROM campaigns WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
            return row

        row = self.db.run(_read)
        if row is None:
            raise SolverError(f"unknown campaign {row!r}" if row else f"unknown campaign {campaign_id!r}")
        keys = ("campaign_id", "model", "seed", "n_points", "chunk_size", "created_at")
        return dict(zip(keys, row))

    def campaign_ids(self) -> List[str]:
        """Declared campaign ids, oldest first."""
        return self.db.run(
            lambda conn: [
                row[0]
                for row in conn.execute(
                    "SELECT campaign_id FROM campaigns ORDER BY created_at, campaign_id"
                )
            ]
        )

    def campaign_points(self, campaign_id: str) -> List[str]:
        """Encoded point keys of a campaign, in input order."""
        keys = self.db.run(
            lambda conn: [
                row[0]
                for row in conn.execute(
                    "SELECT point_key FROM tasks WHERE campaign_id = ? ORDER BY idx",
                    (campaign_id,),
                )
            ]
        )
        if not keys:
            raise SolverError(f"unknown campaign {campaign_id!r}")
        return keys

    # -------------------------------------------------------------- leases
    def claim_chunk(
        self,
        campaign_id: str,
        worker_id: str,
        ttl: float = 60.0,
    ) -> Optional[int]:
        """Atomically claim one chunk: the ``n=1`` case of :meth:`claim_chunks`.

        Returns the chunk id, or ``None`` when nothing is claimable.
        """
        claimed = self.claim_chunks(campaign_id, worker_id, n=1, ttl=ttl)
        return claimed[0] if claimed else None

    def claim_chunks(
        self,
        campaign_id: str,
        worker_id: str,
        n: int = 1,
        ttl: float = 60.0,
    ) -> List[int]:
        """Atomically claim up to ``n`` incomplete, unleased (or expired) chunks.

        A chunk is claimable when it is not completed and either was
        never leased, its lease expired (crashed worker — counted as a
        reclaim), or this very worker already holds it (re-entrant).
        Returns the claimed chunk ids, lowest first — fewer than ``n``
        when fewer are claimable, and an empty list when nothing is,
        which means either the campaign is drained or every remaining
        chunk is live under another worker's lease.

        The select-and-update runs inside one ``BEGIN IMMEDIATE``
        transaction on the serializer thread, so two workers can never
        walk away with the same chunk: the loser of the race simply
        claims the next chunks (or none).
        """
        if n < 1:
            raise ModelDefinitionError(f"n must be >= 1, got {n}")
        stamp = float(self.now())

        def _claim(conn):
            conn.execute("BEGIN IMMEDIATE")
            rows = conn.execute(
                "SELECT chunk_id, worker_id, lease_expiry FROM leases "
                "WHERE campaign_id = ? AND completed = 0 "
                "AND (worker_id IS NULL OR worker_id = ? OR lease_expiry < ?) "
                "ORDER BY chunk_id LIMIT ?",
                (campaign_id, worker_id, stamp, int(n)),
            ).fetchall()
            conn.executemany(
                "UPDATE leases SET worker_id = ?, lease_expiry = ?, heartbeat = ? "
                "WHERE campaign_id = ? AND chunk_id = ?",
                [
                    (worker_id, stamp + float(ttl), stamp, campaign_id, chunk_id)
                    for chunk_id, _, _ in rows
                ],
            )
            reclaimed = sum(
                holder is not None and holder != worker_id and expiry < stamp
                for _, holder, expiry in rows
            )
            return [chunk_id for chunk_id, _, _ in rows], reclaimed

        chunk_ids, reclaimed = self.db.run(_claim)
        if reclaimed:
            from ..obs.trace import get_tracer

            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.counter("store.lease.reclaims").inc(reclaimed)
        return chunk_ids

    def heartbeat(
        self, campaign_id: str, chunk_id: int, worker_id: str, ttl: float = 60.0
    ) -> bool:
        """Extend a held lease; ``False`` when the lease was lost."""
        stamp = float(self.now())

        def _beat(conn):
            conn.execute(
                "UPDATE leases SET lease_expiry = ?, heartbeat = ? "
                "WHERE campaign_id = ? AND chunk_id = ? AND worker_id = ? "
                "AND completed = 0",
                (stamp + float(ttl), stamp, campaign_id, chunk_id, worker_id),
            )
            return conn.execute("SELECT changes()").fetchone()[0] > 0

        return self.db.run(_beat)

    def release_chunk(self, campaign_id: str, chunk_id: int, worker_id: str) -> bool:
        """Voluntarily give an unfinished chunk back (graceful shutdown)."""

        def _release(conn):
            conn.execute(
                "UPDATE leases SET worker_id = NULL, lease_expiry = NULL, "
                "heartbeat = NULL WHERE campaign_id = ? AND chunk_id = ? "
                "AND worker_id = ? AND completed = 0",
                (campaign_id, chunk_id, worker_id),
            )
            return conn.execute("SELECT changes()").fetchone()[0] > 0

        return self.db.run(_release)

    def record_chunk(
        self,
        campaign_id: str,
        chunk_id: int,
        model: str,
        rows: Sequence[Row],
        seed: str = "",
        worker_id: Optional[str] = None,
    ) -> Tuple[int, int]:
        """Commit a chunk's results **and** its completion atomically.

        The checkpoint primitive: results land and the chunk's lease row
        flips to completed in one transaction.  A ``kill -9`` before the
        commit loses the whole chunk (it stays claimable after lease
        expiry); after the commit the chunk is durably done.  Returns
        ``(written, duplicates)`` as :meth:`record_many`.
        """
        encoded = _encode_rows(rows)
        stamp = float(self.now())

        def _commit(conn):
            conn.execute("BEGIN IMMEDIATE")
            written, duplicates = _write_rows(conn, model, encoded, seed, worker_id, stamp)
            conn.execute(
                "UPDATE leases SET completed = 1, worker_id = ?, "
                "lease_expiry = NULL WHERE campaign_id = ? AND chunk_id = ?",
                (worker_id, campaign_id, chunk_id),
            )
            return written, duplicates

        return self.db.run(_commit)

    def reopen_chunks(self, campaign_id: str, chunk_ids: Sequence[int]) -> int:
        """Mark completed chunks incomplete again (failure re-dispatch)."""
        ids = [int(c) for c in chunk_ids]
        if not ids:
            return 0

        def _write(conn):
            marks = ",".join("?" * len(ids))
            conn.execute(
                "UPDATE leases SET completed = 0, worker_id = NULL, "
                "lease_expiry = NULL, heartbeat = NULL "
                f"WHERE campaign_id = ? AND chunk_id IN ({marks})",
                [campaign_id, *ids],
            )
            return conn.execute("SELECT changes()").fetchone()[0]

        return self.db.run(_write)

    def chunk_states(self, campaign_id: str) -> List[Dict[str, object]]:
        """Lease table snapshot: one dict per chunk."""

        def _read(conn):
            return [
                {
                    "chunk_id": row[0],
                    "worker_id": row[1],
                    "lease_expiry": row[2],
                    "heartbeat": row[3],
                    "completed": bool(row[4]),
                }
                for row in conn.execute(
                    "SELECT chunk_id, worker_id, lease_expiry, heartbeat, completed "
                    "FROM leases WHERE campaign_id = ? ORDER BY chunk_id",
                    (campaign_id,),
                )
            ]

        return self.db.run(_read)

    # ------------------------------------------------------------- status
    def counts(self, model: Optional[str] = None) -> Dict[str, int]:
        """``{"ok": ..., "error": ...}`` result counts."""

        def _read(conn):
            if model is None:
                cursor = conn.execute(
                    "SELECT status, COUNT(*) FROM results GROUP BY status"
                )
            else:
                cursor = conn.execute(
                    "SELECT status, COUNT(*) FROM results WHERE model = ? "
                    "GROUP BY status",
                    (model,),
                )
            found = dict(cursor.fetchall())
            return {"ok": int(found.get("ok", 0)), "error": int(found.get("error", 0))}

        return self.db.run(_read)

    def status(self) -> Dict[str, object]:
        """A full human/JSON-facing snapshot (the CLI ``status`` verb)."""
        stamp = float(self.now())

        def _read(conn):
            models = {
                row[0]: {"ok": 0, "error": 0}
                for row in conn.execute("SELECT DISTINCT model FROM results")
            }
            for model, status_, count in conn.execute(
                "SELECT model, status, COUNT(*) FROM results GROUP BY model, status"
            ):
                models[model][status_] = int(count)
            campaigns = []
            for row in conn.execute(
                "SELECT campaign_id, model, seed, n_points, chunk_size "
                "FROM campaigns ORDER BY created_at, campaign_id"
            ):
                campaign_id, model, seed, n_points, chunk_size = row
                done, active = 0, 0
                for completed, expiry in conn.execute(
                    "SELECT completed, lease_expiry FROM leases WHERE campaign_id = ?",
                    (campaign_id,),
                ):
                    if completed:
                        done += 1
                    elif expiry is not None and expiry >= stamp:
                        active += 1
                n_ok = conn.execute(
                    "SELECT COUNT(*) FROM tasks t JOIN results r "
                    "ON r.model = ? AND r.seed = ? AND r.point_key = t.point_key "
                    "AND r.status = 'ok' WHERE t.campaign_id = ?",
                    (model, seed, campaign_id),
                ).fetchone()[0]
                n_chunks = (n_points + chunk_size - 1) // chunk_size
                campaigns.append(
                    {
                        "campaign_id": campaign_id,
                        "model": model,
                        "n_points": n_points,
                        "chunk_size": chunk_size,
                        "chunks": n_chunks,
                        "chunks_completed": done,
                        "leases_active": active,
                        "points_ok": int(n_ok),
                    }
                )
            return models, campaigns

        models, campaigns = self.db.run(_read)
        return {
            "path": self.db.path,
            "schema_version": SCHEMA_VERSION,
            "models": models,
            "campaigns": campaigns,
        }

    def export_json(self, model: Optional[str] = None) -> List[Dict[str, object]]:
        """Every stored result as a JSON-safe list of dicts."""

        def _read(conn):
            if model is None:
                cursor = conn.execute(
                    f"SELECT {_RESULT_COLUMNS} FROM results ORDER BY model, point_key"
                )
            else:
                cursor = conn.execute(
                    f"SELECT {_RESULT_COLUMNS} FROM results WHERE model = ? "
                    "ORDER BY point_key",
                    (model,),
                )
            return [_result_from_row(row) for row in cursor]

        return [result.to_dict() for result in self.db.run(_read)]

    def vacuum(self) -> None:
        """Reclaim file space (sqlite ``VACUUM``)."""
        self.db.run(lambda conn: conn.execute("VACUUM"))

    # ----------------------------------------------------------- plumbing
    def close(self) -> None:
        """Flush and close the underlying serializer.  Idempotent."""
        self.db.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CampaignStore({self.db.path!r})"
