"""CLI entry point: ``python -m repro.store <verb> --store FILE``.

The operational surface of the durable campaign store:

* ``status`` — models, result counts, campaign/chunk/lease progress;
* ``resume`` — join a declared campaign as a worker and drain it
  (the multi-worker entry point: run it on N hosts against one file);
* ``retry-failed`` — drop stored failures so the next resume
  re-dispatches them (see the runbook in ``docs/DURABILITY.md``);
* ``vacuum`` — reclaim sqlite file space;
* ``export --json`` — dump every stored result;
* ``--selfcheck`` — create → kill → resume → verify bit-identity in a
  tmpdir, wired into ``tools/check.sh`` so crash recovery cannot rot.

The ``resume`` worker honors the two-stage signal contract
(:class:`~repro.robust.GracefulShutdown`): the first SIGTERM/SIGINT
finishes the in-flight round, commits it, flushes the store and exits 0;
the second force-exits.  ``--kill-after N`` arms the end-to-end crash
harness — the worker SIGKILLs *itself* on its N-th evaluation via
:class:`~repro.robust.FaultInjector`'s ``kill`` mode, which is how the
selfcheck produces a genuine unflushed mid-chunk death.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import List, Optional

from ..exceptions import ReproError
from ..robust.faultinject import FaultInjector
from ..robust.policy import FaultPolicy
from ..robust.shutdown import GracefulShutdown
from .naming import resolve_evaluator
from .resumable import resume_campaign
from .store import CampaignStore

__all__ = ["main", "selfcheck"]


def _open_store(path: str) -> CampaignStore:
    if not os.path.exists(path):
        raise ReproError(f"no store file at {path!r} (stores are created by runs)")
    return CampaignStore(path)


def _pick_campaign(store: CampaignStore, requested: Optional[str]) -> str:
    ids = store.campaign_ids()
    if requested is not None:
        if requested not in ids:
            raise ReproError(
                f"unknown campaign {requested!r}; store has {ids or 'none'}"
            )
        return requested
    if len(ids) == 1:
        return ids[0]
    raise ReproError(
        f"store has {len(ids)} campaigns; pick one with --campaign "
        f"(ids: {', '.join(ids) or 'none'})"
    )


def _cmd_status(args) -> int:
    with _open_store(args.store) as store:
        snapshot = store.status()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"store: {snapshot['path']} (schema v{snapshot['schema_version']})")
    models = snapshot["models"]
    if not models:
        print("  no results recorded")
    for name, counts in sorted(models.items()):  # type: ignore[union-attr]
        print(f"  model {name}: {counts['ok']} ok, {counts['error']} failed")
    for campaign in snapshot["campaigns"]:  # type: ignore[union-attr]
        print(
            f"  campaign {campaign['campaign_id']} [{campaign['model']}]: "
            f"{campaign['chunks_completed']}/{campaign['chunks']} chunks, "
            f"{campaign['points_ok']}/{campaign['n_points']} points ok, "
            f"{campaign['leases_active']} live lease(s)"
        )
    return 0


def _cmd_resume(args) -> int:
    shutdown = GracefulShutdown().install()
    with _open_store(args.store) as store:
        campaign_id = _pick_campaign(store, args.campaign)
        evaluate = None
        if args.kill_after is not None:
            header = store.campaign(campaign_id)
            evaluate = FaultInjector(
                resolve_evaluator(str(header["model"])),
                mode="kill",
                fail_calls={int(args.kill_after)},
            )
        from ..engine.options import EngineOptions

        options = EngineOptions(
            policy=FaultPolicy(args.on_error) if args.on_error != "raise" else None
        )
        result = resume_campaign(
            store,
            campaign_id,
            evaluate=evaluate,
            worker_id=args.worker_id,
            lease_ttl=args.ttl,
            options=options,
            throttle=args.throttle,
            should_stop=shutdown,
            wait=not args.no_wait,
        )
        campaign = result.campaign  # type: ignore[attr-defined]
        if not args.quiet:
            state = "complete" if campaign.complete else "incomplete"
            print(
                f"resume: campaign {campaign_id} {state}: "
                f"{campaign.evaluated_points} evaluated, "
                f"{campaign.skipped_points} served from store, "
                f"{campaign.committed_chunks} chunk(s) committed, "
                f"{len(result.errors)} failed point(s)"
            )
    shutdown.uninstall()
    if shutdown.requested:
        return 0  # drained gracefully on request — that is a success
    return 0 if campaign.complete and not result.errors else 3


def _cmd_retry_failed(args) -> int:
    with _open_store(args.store) as store:
        dropped = store.clear_failures(args.model)
        if not args.quiet:
            scope = f"model {args.model}" if args.model else "all models"
            print(
                f"retry-failed: dropped {dropped} stored failure(s) for {scope}; "
                "the next resume re-dispatches them"
            )
    return 0


def _cmd_vacuum(args) -> int:
    with _open_store(args.store) as store:
        before = os.path.getsize(args.store)
        store.vacuum()
        after = os.path.getsize(args.store)
    if not args.quiet:
        print(f"vacuum: {before} -> {after} bytes")
    return 0


def _cmd_export(args) -> int:
    with _open_store(args.store) as store:
        rows = store.export_json(args.model)
    print(json.dumps(rows, indent=None if args.compact else 2, sort_keys=True))
    return 0


def selfcheck(quiet: bool = False) -> int:
    """Create → kill → resume → verify bit-identity, in a tmpdir.

    The CI gate for crash recovery: declares a BladeCenter campaign,
    runs a worker subprocess that SIGKILLs itself mid-campaign (via the
    ``kill`` fault injector), verifies the store holds a strict subset
    of results, resumes with a second worker, and requires the final
    outputs to be bit-identical to an uninterrupted in-process run.
    """

    def say(line: str) -> None:
        if not quiet:
            print(line)

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        say(f"  {'ok' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    import numpy as np

    from .resumable import ResumableCampaign, campaign_id_for
    from .store import encode_point_key

    evaluate = resolve_evaluator("bladecenter")
    points = [{"disk_failure_rate": 1e-5 * (1.0 + 0.05 * k)} for k in range(30)]
    say("selfcheck: 30-point bladecenter campaign, chunk_size=5")
    baseline = np.asarray([evaluate(p) for p in points], dtype=float)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "selfcheck.sqlite")
        encoded = [encode_point_key(p) for p in points]
        campaign_id = campaign_id_for("bladecenter", encoded, chunk_size=5)
        with CampaignStore(path) as store:
            store.create_campaign(campaign_id, "bladecenter", points, chunk_size=5)
        say(f"selfcheck: declared campaign {campaign_id} in {path}")

        # make sure the worker subprocess imports *this* repro, wherever
        # the selfcheck was launched from
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        worker = [
            sys.executable, "-m", "repro.store", "resume",
            "--store", path, "--worker-id", "selfcheck", "--quiet",
        ]
        proc = subprocess.run(
            worker + ["--kill-after", "13"], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300,
        )
        check(proc.returncode == -9, f"worker SIGKILLed itself (rc {proc.returncode})")

        with CampaignStore(path) as store:
            mid = store.counts("bladecenter")["ok"]
        check(0 < mid < 30, f"mid-kill store holds a strict subset ({mid}/30 points)")
        check(mid % 5 == 0, f"only whole chunks survived the kill ({mid} points)")

        proc = subprocess.run(
            worker, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300,
        )
        check(proc.returncode == 0, f"resume worker drained cleanly (rc {proc.returncode})")

        with CampaignStore(path) as store:
            resumed = ResumableCampaign(
                evaluate, points, store, model="bladecenter", chunk_size=5
            )
            outputs = resumed.run().outputs
            check(
                resumed.evaluated_points == 0,
                "verification pass re-evaluated nothing (all 30 served durably)",
            )
        identical = outputs.tobytes() == baseline.tobytes()
        check(identical, "resumed outputs byte-identical to uninterrupted run")

    if failures:
        say(f"selfcheck: {len(failures)} failure(s)")
        return 1
    say("selfcheck: all checks passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Durable, resumable campaign store: status, resume, retry-failed, vacuum, export.",
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="create -> kill -> resume -> verify bit-identity in a tmpdir, exit 0/1",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="verb")

    def add_store(p):
        p.add_argument("--store", required=True, help="sqlite store file")
        p.add_argument("-q", "--quiet", action="store_true", help="suppress output")

    p_status = sub.add_parser("status", help="models, campaigns, chunk/lease progress")
    add_store(p_status)
    p_status.add_argument("--json", action="store_true", help="machine-readable output")

    p_resume = sub.add_parser("resume", help="join a declared campaign as a worker and drain it")
    add_store(p_resume)
    p_resume.add_argument("--campaign", help="campaign id (optional when the store has exactly one)")
    p_resume.add_argument("--worker-id", help="lease identity (default host:pid)")
    p_resume.add_argument("--ttl", type=float, default=60.0, help="lease seconds before a dead worker's chunk is reclaimed (default %(default)s)")
    p_resume.add_argument("--throttle", type=float, default=0.0, help="sleep this many seconds before each evaluation (test hook)")
    p_resume.add_argument("--kill-after", type=int, metavar="N", help="SIGKILL this worker on its N-th evaluation (crash-recovery harness)")
    p_resume.add_argument("--on-error", choices=("raise", "skip", "retry"), default="skip", help="fault policy for evaluation errors (default %(default)s)")
    p_resume.add_argument("--no-wait", action="store_true", help="return when out of claimable chunks instead of waiting for other workers")

    p_retry = sub.add_parser("retry-failed", help="drop stored failures so the next resume re-dispatches them")
    add_store(p_retry)
    p_retry.add_argument("--model", help="limit to one model name")

    p_vacuum = sub.add_parser("vacuum", help="reclaim sqlite file space")
    add_store(p_vacuum)

    p_export = sub.add_parser("export", help="dump stored results as JSON")
    add_store(p_export)
    p_export.add_argument("--model", help="limit to one model name")
    p_export.add_argument("--json", action="store_true", help="accepted for symmetry; export is always JSON")
    p_export.add_argument("--compact", action="store_true", help="single-line output")

    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(quiet=args.quiet)
    if args.verb is None:
        parser.print_help()
        return 2
    handlers = {
        "status": _cmd_status,
        "resume": _cmd_resume,
        "retry-failed": _cmd_retry_failed,
        "vacuum": _cmd_vacuum,
        "export": _cmd_export,
    }
    try:
        return handlers[args.verb](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
