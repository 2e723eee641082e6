"""The serve daemon of the ``serve-mixed`` workload, run in its own process.

Started by ``serve_mixed.py`` as ``python3 perfbench/serve_server.py``
with the library on ``PYTHONPATH``.  It builds ``default_registry()``,
binds ``create_server`` on an ephemeral port, prints one ``ready`` JSON
line (host and port) and then obeys one
command per stdin line:

``trace-on``  wrap the serve layers' public functions (see :class:`ServeTrace`)
``stats``     print one JSON line: peak RSS, cache counters, trace data
``quit``      (or end of input) close the server gracefully and exit
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from urllib.parse import parse_qs, urlsplit


class ServeTrace:
    """Per-request timing of the serve layers, from wrappers in this process.

    A request is identified by the ``rid`` query parameter the load
    generator appends (``ServeApp.handle`` ignores query strings).  On
    the request thread, ``ServeApp.handle`` and the result-cache calls
    are timed; ``MicroBatcher.submit_many`` stamps each future with its
    submit time.  On the flush thread, the batcher's ``evaluate_batch``
    call and each model's ``evaluate`` are timed, and a future's
    done-callback records when it resolved and how long the flush that
    resolved it spent in ``evaluate_batch``.
    """

    def __init__(self, app):
        self.app = app
        self.local = threading.local()
        self.lock = threading.Lock()
        self.requests = {}  # rid -> dict of seconds
        self.waits = []  # per future: submit -> resolved, minus its flush
        self.flush_points = []
        self.model_eval = defaultdict(list)
        self.installed = []

    # ------------------------------------------------------------ wrappers
    def _patch(self, owner, attr, make):
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        from repro.serve import app as app_module
        from repro.serve import batcher as batcher_module
        from repro.serve.cache import ResultCache

        trace = self

        def handle(func):
            @functools.wraps(func)
            def traced(app, method, path, body=b""):
                rid = parse_qs(urlsplit(path).query).get("rid", [None])[0]
                row = {"cache_s": 0.0, "waited_s": 0.0, "flush_eval_s": 0.0, "model_s": 0.0}
                trace.local.row = row
                t0 = time.perf_counter()
                try:
                    return func(app, method, path, body)
                finally:
                    row["handle_s"] = time.perf_counter() - t0
                    trace.local.row = None
                    if rid is not None:
                        with trace.lock:
                            trace.requests[rid] = row
            return traced

        def cache_call(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    row = getattr(trace.local, "row", None)
                    if row is not None:
                        row["cache_s"] += time.perf_counter() - t0
            return traced

        def submit_many(func):
            @functools.wraps(func)
            def traced(batcher, model, assignments):
                row = getattr(trace.local, "row", None)
                t0 = time.perf_counter()
                futures = func(batcher, model, assignments)
                for future in futures:
                    future.add_done_callback(
                        lambda _f, t0=t0, row=row: trace._resolved(t0, row)
                    )
                return futures
            return traced

        def flush_batch(func):
            @functools.wraps(func)
            def traced(evaluate, points, *args, **kwargs):
                trace.local.model_s = 0.0
                t0 = time.perf_counter()
                try:
                    return func(evaluate, points, *args, **kwargs)
                finally:
                    trace.local.flush = (time.perf_counter() - t0, trace.local.model_s)
                    with trace.lock:
                        trace.flush_points.append(len(points))
            return traced

        self._patch(app_module.ServeApp, "handle", handle)
        self._patch(ResultCache, "get", cache_call)
        self._patch(ResultCache, "put", cache_call)
        self._patch(batcher_module.MicroBatcher, "submit_many", submit_many)
        self._patch(batcher_module, "evaluate_batch", flush_batch)
        for name in self.app.registry.names():
            self._patch(self.app.registry.get(name), "evaluate",
                        lambda func, name=name: self._model(name, func))

    def _model(self, name, func):
        @functools.wraps(func)
        def traced(assignment):
            t0 = time.perf_counter()
            try:
                return func(assignment)
            finally:
                elapsed = time.perf_counter() - t0
                self.local.model_s = getattr(self.local, "model_s", 0.0) + elapsed
                with self.lock:
                    self.model_eval[name].append(elapsed)
        return traced

    def _resolved(self, submitted: float, row) -> None:
        """Done-callback, on the flush thread right after ``evaluate_batch``."""
        waited = time.perf_counter() - submitted
        flush_eval, model = getattr(self.local, "flush", (0.0, 0.0))
        with self.lock:
            self.waits.append(waited - flush_eval)
            if row is not None and waited >= row["waited_s"]:
                row.update(waited_s=waited, flush_eval_s=flush_eval, model_s=model)

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def to_dict(self) -> dict:
        with self.lock:
            return {
                "requests": dict(self.requests),
                "waits": list(self.waits),
                "flush_points": list(self.flush_points),
                "model_eval": {k: list(v) for k, v in self.model_eval.items()},
            }


def main() -> int:
    from repro.serve import ServeApp, create_server, default_registry

    app = ServeApp(default_registry())
    server = create_server(app, port=0).start()
    trace = ServeTrace(app)
    print(json.dumps({"event": "ready", "host": server.host, "port": server.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace-on":
                trace.install()
                print(json.dumps({"event": "traced", "cache": app.cache.stats()}), flush=True)
            elif command == "stats":
                stats = {
                    "event": "stats",
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "cache": app.cache.stats(),
                    "trace": trace.to_dict(),
                }
                print(json.dumps(stats), flush=True)
            elif command == "quit":
                break
    finally:
        trace.uninstall()
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
