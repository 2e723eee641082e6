"""The curated lazy top-level namespace (``repro.__all__`` + PEP 562)."""

import importlib
import pkgutil
import subprocess
import sys
import warnings

import pytest

import repro


class TestLazyExports:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'definitely_not_here'"):
            repro.definitely_not_here

    def test_dir_lists_the_curated_surface(self):
        listing = dir(repro)
        for name in ("CTMC", "trace", "evaluate_batch", "EngineOptions", "FaultTree"):
            assert name in listing

    def test_exports_map_is_consistent(self):
        # every _EXPORTS entry points at a module that really defines it
        for name, module_name in repro._EXPORTS.items():
            module = importlib.import_module(module_name)
            assert hasattr(module, name), f"{module_name} does not define {name}"

    def test_resolution_is_cached(self):
        first = repro.CTMC
        assert "CTMC" in vars(repro)  # cached into the module dict
        assert repro.CTMC is first

    def test_flagship_flat_import(self):
        from repro import CTMC, EngineOptions, evaluate_batch, trace  # noqa: F401

    def test_import_repro_is_lazy(self):
        # a fresh interpreter importing repro must not pull in the heavy
        # submodules until a name is touched
        code = (
            "import sys; import repro; "
            "print('repro.markov.ctmc' in sys.modules, repro.CTMC.__name__, "
            "'repro.markov.ctmc' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert out.stdout.split() == ["False", "CTMC", "True"]

    def test_serving_packages_skip_the_heavy_imports(self):
        # the store, compiled evaluators, the daemon and the case studies
        # never need scipy.stats/integrate/optimize or networkx; every
        # worker process would pay ~0.9 s and ~50 MB for them (lint R011)
        code = (
            "import sys; import repro.store, repro.compile, repro.serve, "
            "repro.casestudies; print(' '.join(m for m in ('scipy.stats', "
            "'scipy.integrate', 'scipy.optimize', 'networkx') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert out.stdout.split() == []


class TestNoDeprecatedInternalUsage:
    """Library code must never call its own deprecated kwargs."""

    def test_importing_every_submodule_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
                importlib.import_module(info.name)

    def test_representative_workloads_emit_no_deprecation_warnings(self):
        import numpy as np

        from repro import CTMC, GridCampaign, run_campaign, solve_steady_state
        from repro.casestudies.bladecenter import evaluate_availability

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            chain = CTMC()
            chain.add_transition("up", "down", 1e-3)
            chain.add_transition("down", "up", 0.5)
            chain.steady_state(method="auto")
            chain.steady_state_report()
            chain.transient([1.0, 5.0], initial="up", method="auto")
            solve_steady_state(chain.generator())
            run_campaign(
                evaluate_availability,
                GridCampaign({"cpu_failure_rate": [1e-6, 2e-6]}),
            )
            np.testing.assert_allclose(
                solve_steady_state(chain.generator(), method="gth").pi.sum(), 1.0
            )
