"""benchmarks/conftest.py — every BENCH record carries its provenance."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy
import scipy

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
)
bench_conftest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_conftest)


def test_write_record_stamps_provenance(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_conftest, "RECORD_DIR", tmp_path)
    path = bench_conftest.write_record("demo", {"qps": 12.5})
    assert path == tmp_path / "BENCH_demo.json"
    record = json.loads(path.read_text())
    assert record["qps"] == 12.5
    prov = record["provenance"]
    assert prov["nproc"] == os.cpu_count()
    assert prov["python"] == platform.python_version()
    assert prov["numpy"] == numpy.__version__
    assert prov["scipy"] == scipy.__version__
    assert set(prov) == {"git_sha", "git_dirty", "nproc", "python", "numpy", "scipy"}


def test_git_fields_agree(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_conftest, "RECORD_DIR", tmp_path)
    prov = json.loads(bench_conftest.write_record("demo", {}).read_text())["provenance"]
    if prov["git_sha"] is None:  # not a git checkout: both unknown
        assert prov["git_dirty"] is None
    else:
        assert len(prov["git_sha"]) == 40
        int(prov["git_sha"], 16)
        assert isinstance(prov["git_dirty"], bool)


def test_provenance_is_fresh_not_inherited(tmp_path, monkeypatch):
    # A record merged over an older committed file must not keep the
    # older run's provenance.
    monkeypatch.setattr(bench_conftest, "RECORD_DIR", tmp_path)
    stale = {"qps": 1.0, "provenance": {"git_sha": "0" * 40, "nproc": -1}}
    record = json.loads(bench_conftest.write_record("demo", stale).read_text())
    assert record["provenance"]["nproc"] == os.cpu_count()
