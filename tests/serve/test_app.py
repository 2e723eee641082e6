"""Transport-free API contract tests: ``ServeApp.handle`` directly."""

import json
import time

import pytest

from repro.obs import ThreadSafeMetricsRegistry
from repro.serve import ModelRegistry, ServeApp


@pytest.fixture
def app(registry):
    app = ServeApp(registry, flush_window=0.001)
    yield app
    app.close()


def call(app, method, path, body=b""):
    status, content_type, payload = app.handle(method, path, body)
    if content_type.startswith("application/json"):
        return status, json.loads(payload)
    return status, payload.decode()


class TestRoutes:
    def test_index(self, app):
        status, payload = call(app, "GET", "/")
        assert status == 200
        assert "GET /metrics" in payload["endpoints"]
        assert "bladecenter" in payload["models"]

    def test_healthz(self, app):
        status, payload = call(app, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["models"] == 9
        assert payload["batching"] is True
        assert payload["uptime_s"] >= 0.0

    def test_models_listing(self, app):
        status, payload = call(app, "GET", "/models")
        assert status == 200
        names = [m["name"] for m in payload["models"]]
        assert names == sorted(names) and "sip" in names

    def test_model_detail_includes_size_and_diagnostics(self, app):
        status, payload = call(app, "GET", "/models/wfs")
        assert status == 200
        assert payload["size"]["n_states"] == 7
        assert payload["diagnostics"]["ok"] is True
        assert payload["defaults"]["n_workstations"] == 4

    def test_trailing_slash_tolerated(self, app):
        status, _ = call(app, "GET", "/models/")
        assert status == 200

    def test_unknown_model_404(self, app):
        status, payload = call(app, "GET", "/models/nope")
        assert status == 404
        assert payload["error"]["error_type"] == "UnknownModel"
        assert "bladecenter" in payload["error"]["message"]

    def test_unknown_endpoint_404(self, app):
        status, payload = call(app, "GET", "/frobnicate")
        assert status == 404
        assert payload["error"]["error_type"] == "UnknownEndpoint"

    def test_wrong_method_405(self, app):
        status, payload = call(app, "POST", "/healthz", b"{}")
        assert status == 405
        assert payload["error"]["error_type"] == "MethodNotAllowed"
        status, payload = call(app, "GET", "/models/wfs/evaluate")
        assert status == 405


class TestEvaluate:
    def test_single_point_object(self, app, registry):
        expected = registry.get("wfs").evaluate({"n_workstations": 6.0})
        status, payload = call(
            app, "POST", "/models/wfs/evaluate", b'{"n_workstations": 6}'
        )
        assert status == 200
        assert payload["value"] == expected
        assert payload["stats"]["n_points"] == 1
        assert payload["stats"]["batched"] is True

    def test_point_array(self, app, registry):
        body = json.dumps([{"coverage": 0.9}, {"coverage": 0.99}]).encode()
        status, payload = call(app, "POST", "/models/telecom/evaluate", body)
        assert status == 200
        expected = [
            registry.get("telecom").evaluate({"coverage": c}) for c in (0.9, 0.99)
        ]
        assert payload["values"] == expected

    def test_malformed_json_400(self, app):
        status, payload = call(app, "POST", "/models/wfs/evaluate", b"{nope")
        assert status == 400
        assert payload["error"]["error_type"] == "MalformedRequest"

    def test_non_numeric_parameter_400(self, app):
        status, payload = call(
            app, "POST", "/models/wfs/evaluate", b'{"n_workstations": "four"}'
        )
        assert status == 400
        assert "must be a number" in payload["error"]["message"]

    def test_wrong_shape_400(self, app):
        for body in (b"42", b"[]", b"[42]"):
            status, payload = call(app, "POST", "/models/wfs/evaluate", body)
            assert status == 400, body

    def test_bad_parameter_name_is_structured_422(self, app):
        status, payload = call(
            app, "POST", "/models/wfs/evaluate", b'{"bogus_name": 1.0}'
        )
        assert status == 422
        assert payload["value"] is None
        (error,) = payload["errors"]
        assert error["error_type"] == "ModelDefinitionError"
        assert "bogus_name" in error["message"]

    @pytest.mark.parametrize(
        "model, knob, cap",
        [
            ("boeing", "n_sections", "the cap is 1024"),
            ("wfs", "n_workstations", "at most 500"),
            ("sip", "n_nodes", "at most 10000"),
            ("nfvchain", "replicas", "at most 500"),
            ("nfvchain", "n_vnfs", "at most 64"),
        ],
    )
    def test_oversized_structure_knob_is_prompt_422(self, app, model, knob, cap):
        started = time.perf_counter()
        status, payload = call(
            app, "POST", f"/models/{model}/evaluate", json.dumps({knob: 1e7}).encode()
        )
        assert time.perf_counter() - started < 5.0
        assert status == 422
        (error,) = payload["errors"]
        assert error["error_type"] == "ModelDefinitionError"
        assert knob in error["message"] and cap in error["message"]

    def test_partial_batch_failure_is_200_with_records(self, app):
        body = json.dumps([{"k_required": 2}, {"k_required": 2.5}]).encode()
        status, payload = call(app, "POST", "/models/wfs/evaluate", body)
        assert status == 200
        assert payload["values"][0] is not None
        assert payload["values"][1] is None
        (error,) = payload["errors"]
        assert error["index"] == 1
        assert payload["stats"]["n_failed"] == 1

    def test_cache_hits_reported(self, app):
        body = b'{"n_workstations": 5}'
        status, first = call(app, "POST", "/models/wfs/evaluate", body)
        assert first["stats"]["cache_hits"] == 0
        status, second = call(app, "POST", "/models/wfs/evaluate", body)
        assert second["stats"]["cache_hits"] == 1
        assert second["value"] == first["value"]

    def test_failures_never_cached(self, app):
        body = b'{"bogus_name": 1.0}'
        call(app, "POST", "/models/wfs/evaluate", body)
        status, payload = call(app, "POST", "/models/wfs/evaluate", body)
        assert status == 422  # re-evaluated, not replayed from cache
        assert payload["stats"]["cache_hits"] == 0

    def test_naive_mode_matches_batched(self, registry):
        batched = ServeApp(registry, flush_window=0.001)
        naive = ServeApp(registry, batching=False)
        body = b'{"n_nodes": 6, "k_required": 3}'
        try:
            _, from_batched = call(batched, "POST", "/models/sip/evaluate", body)
            _, from_naive = call(naive, "POST", "/models/sip/evaluate", body)
        finally:
            batched.close()
            naive.close()
        assert from_batched["value"] == from_naive["value"]
        assert from_naive["stats"]["batched"] is False


class TestMetricsEndpoint:
    def test_prometheus_text_format(self, app):
        call(app, "GET", "/healthz")
        call(app, "POST", "/models/wfs/evaluate", b"{}")
        status, text = call(app, "GET", "/metrics")
        assert status == 200
        assert "# TYPE repro_serve_requests counter" in text
        assert 'route="/models/{name}/evaluate"' in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert "repro_serve_request_seconds_bucket" in text

    def test_engine_metrics_surface_through_batcher(self, app):
        call(app, "POST", "/models/wfs/evaluate", b"{}")
        _, text = call(app, "GET", "/metrics")
        assert "repro_serve_batch_flushes" in text
        assert "repro_engine_" in text  # evaluate_batch's own counters

    def test_shared_metrics_registry_injectable(self, registry):
        metrics = ThreadSafeMetricsRegistry()
        app = ServeApp(registry, metrics=metrics, flush_window=0.001)
        try:
            call(app, "GET", "/healthz")
        finally:
            app.close()
        assert metrics.summary()["serve.requests{route=/healthz,status=200}"] == 1.0


class TestInternalErrors:
    def test_handler_exception_becomes_structured_500(self):
        registry = ModelRegistry()
        registry.register("opaque", lambda a: 1.0, probe=False)
        app = ServeApp(registry, batching=False, cache_size=0)
        # Sabotage after construction: description access works, but
        # describe() explodes when the detail route renders it.
        entry = registry.get("opaque")
        entry.size = object()  # json.dumps will choke on this
        try:
            status, _, payload = app.handle("GET", "/models/opaque")
            body = json.loads(payload)
        finally:
            app.close()
        assert status == 500
        assert body["error"]["error_type"] == "TypeError"
        assert "Traceback" not in payload.decode()

    def test_recent_spans_ring(self, app):
        call(app, "GET", "/healthz")
        call(app, "GET", "/models")
        spans = list(app.recent_spans)
        assert spans[-1]["attributes"]["path"] == "/models"
        assert spans[-1]["attributes"]["status"] == 200

    def test_requests_after_close_get_503(self, registry):
        app = ServeApp(registry, flush_window=0.001)
        app.close()
        status, _, payload = app.handle("GET", "/healthz")
        assert status == 503
        assert json.loads(payload)["error"]["error_type"] == "ServerClosing"
