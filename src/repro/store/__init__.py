"""repro.store — durable, resumable, multi-worker campaigns (E36).

The tutorial's workloads are long parameter-sweep campaigns over
availability models; until this subsystem, a campaign died with its
process.  ``repro.store`` makes every evaluation durable — a
stdlib-sqlite :class:`CampaignStore` records each
``(model, canonical point key, seed)`` outcome (success *or* structured
:class:`~repro.robust.ErrorRecord` failure) through a single-writer
serializer thread in WAL mode — and makes campaigns resumable and
shareable on top of it:

* :class:`ResumableCampaign` — checkpoint-per-chunk execution in
  rounds of one chunk per executor worker: each completed chunk
  commits atomically, restart skips stored successes and re-dispatches
  stored failures, so ``kill -9`` mid-campaign loses at most the round
  in flight (``n_jobs`` chunks; one when serial);
* **work leases** — N worker processes drain one campaign against one
  store file via ``claim → evaluate → commit`` lease rows (worker id,
  expiry, heartbeat); a crashed worker's lease expires and its chunk is
  reclaimed automatically, and first-writer-wins commit rules make
  duplicate commits impossible;
* :class:`StoreBackedCache` — the persistent tier under the engine's
  :class:`~repro.engine.EvaluationCache`: memory LRU in front, sqlite
  behind, failures never persisted as successes;
* a CLI — ``python -m repro.store status|resume|retry-failed|vacuum|
  export`` — plus ``--selfcheck`` (create → kill → resume → verify
  bit-identity in a tmpdir), wired into ``tools/check.sh``.

Engine integration: ``run_campaign(..., store=..., resume=True)`` (or
the same fields on :class:`~repro.engine.EngineOptions`) routes a
campaign through the store transparently; results are bit-identical to
the in-memory path — durability adds bookkeeping, never arithmetic.

Kill-and-resume quickstart::

    from repro import GridCampaign, run_campaign
    from repro.store import CampaignStore
    from repro.casestudies.bladecenter import evaluate_availability

    spec = GridCampaign({"blade_failure_rate": [1e-4, 2e-4, 4e-4]})
    with CampaignStore("sweep.sqlite") as store:
        result = run_campaign(evaluate_availability, spec, store=store)
    # ... kill -9 at any point; re-running the same two lines resumes
    # from the last committed chunk instead of starting over.

See ``docs/DURABILITY.md`` for the schema, the lease lifecycle and the
``retry-failed`` runbook.
"""

from .cache import StoreBackedCache
from .db import SCHEMA_VERSION, StoreDB
from .naming import model_name_for, resolve_evaluator
from .resumable import ResumableCampaign, campaign_id_for, resume_campaign
from .store import CampaignStore, StoredResult, decode_point_key, encode_point_key

__all__ = [
    "CampaignStore",
    "StoredResult",
    "StoreDB",
    "SCHEMA_VERSION",
    "StoreBackedCache",
    "ResumableCampaign",
    "resume_campaign",
    "campaign_id_for",
    "model_name_for",
    "resolve_evaluator",
    "encode_point_key",
    "decode_point_key",
]
