"""tools/lint_repro.py — the project-specific AST lint rules."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "lint_repro", REPO_ROOT / "tools" / "lint_repro.py"
)
lint_repro = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint_repro)


def lint_source(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_repro.lint_file(path)


def codes(findings):
    return [code for _path, _line, code, _msg in findings]


class TestR002MutableDefaults:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "{1}", "list()", "dict()", "set()", "deque()"]
    )
    def test_flags_mutable_defaults(self, tmp_path, default):
        findings = lint_source(tmp_path, f"def f(x, y={default}):\n    pass\n")
        assert codes(findings) == ["R002"]
        assert "'y'" in findings[0][3]

    def test_kwonly_and_posonly_defaults(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(a=1, /, b=2, *, c=[]):
                pass
            """,
        )
        assert codes(findings) == ["R002"]
        assert "'c'" in findings[0][3]

    def test_immutable_defaults_are_fine(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(a=1, b=(), c=None, d="x", e=frozenset()):
                pass
            """,
        )
        assert findings == []


class TestR004AllNames:
    def test_flags_unbound_name(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["present", "missing"]
            def present():
                pass
            """,
        )
        assert codes(findings) == ["R004"]
        assert "'missing'" in findings[0][3]

    def test_conditional_bindings_count(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["fast", "Slow"]
            try:
                from _accel import fast
            except ImportError:
                def fast():
                    pass
            if True:
                class Slow:
                    pass
            """,
        )
        assert findings == []

    def test_pep562_lazy_module_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["lazy_thing"]
            def __getattr__(name):
                raise AttributeError(name)
            """,
        )
        assert findings == []


class TestNoqaWaiver:
    def test_noqa_suppresses_matching_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(x=[]):  # noqa: R002 (shared on purpose)
                pass
            """,
        )
        assert findings == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(x=[]):  # noqa: R004
                pass
            """,
        )
        assert codes(findings) == ["R002"]


class TestR003LazyNamespace:
    def _init(self, tmp_path, body):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        path = pkg / "__init__.py"
        path.write_text(textwrap.dedent(body))
        return path

    def test_consistent_namespace_is_clean(self, tmp_path):
        path = self._init(
            tmp_path,
            """
            from typing import TYPE_CHECKING
            _EXPORTS = {"CTMC": "repro.markov"}
            if TYPE_CHECKING:
                from .markov import CTMC
            __all__ = ["CTMC", "__version__"]
            """,
        )
        assert lint_repro.check_lazy_namespace(path) == []

    def test_drift_is_flagged_in_all_three_directions(self, tmp_path):
        path = self._init(
            tmp_path,
            """
            from typing import TYPE_CHECKING
            _EXPORTS = {"CTMC": "repro.markov", "DTMC": "repro.markov"}
            if TYPE_CHECKING:
                from .markov import CTMC, SMP
            __all__ = ["CTMC", "Ghost"]
            """,
        )
        messages = [m for _p, _l, _c, m in lint_repro.check_lazy_namespace(path)]
        assert any("'DTMC' missing from __all__" in m for m in messages)
        assert any("'Ghost' with no export entry" in m for m in messages)
        assert any("'DTMC' missing from the TYPE_CHECKING" in m for m in messages)
        assert any("'SMP' which has no export entry" in m for m in messages)

    def test_module_exports_counted_and_exempt_from_type_checking(self, tmp_path):
        path = self._init(
            tmp_path,
            """
            from typing import TYPE_CHECKING
            _EXPORTS = {"CTMC": "repro.markov"}
            _MODULE_EXPORTS = {"sparse": "repro.sparse"}
            if TYPE_CHECKING:
                from .markov import CTMC
            __all__ = ["CTMC", "sparse", "__version__"]
            """,
        )
        assert lint_repro.check_lazy_namespace(path) == []

    def test_module_export_missing_from_all_is_flagged(self, tmp_path):
        path = self._init(
            tmp_path,
            """
            from typing import TYPE_CHECKING
            _EXPORTS = {"CTMC": "repro.markov"}
            _MODULE_EXPORTS = {"sparse": "repro.sparse"}
            if TYPE_CHECKING:
                from .markov import CTMC
            __all__ = ["CTMC", "__version__"]
            """,
        )
        messages = [m for *_rest, m in lint_repro.check_lazy_namespace(path)]
        assert any("'sparse' missing from __all__" in m for m in messages)

    def test_name_in_both_tables_is_flagged(self, tmp_path):
        path = self._init(
            tmp_path,
            """
            from typing import TYPE_CHECKING
            _EXPORTS = {"sparse": "repro.sparse.ctmc"}
            _MODULE_EXPORTS = {"sparse": "repro.sparse"}
            if TYPE_CHECKING:
                from .sparse.ctmc import sparse
            __all__ = ["sparse", "__version__"]
            """,
        )
        messages = [m for *_rest, m in lint_repro.check_lazy_namespace(path)]
        assert any("both _EXPORTS and _MODULE_EXPORTS" in m for m in messages)

    def test_missing_exports_table(self, tmp_path):
        path = self._init(tmp_path, "__all__ = []\n")
        findings = lint_repro.check_lazy_namespace(path)
        assert codes(findings) == ["R003"]


class TestRealTree:
    def test_shipping_tree_is_clean(self):
        findings = lint_repro.lint_paths(
            [REPO_ROOT / p for p in lint_repro.DEFAULT_PATHS]
        )
        assert findings == []

    def test_main_returns_zero_on_clean_tree(self, capsys):
        assert lint_repro.main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_main_returns_one_on_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    pass\n")
        assert lint_repro.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "1 finding(s)" in out


class TestR006StoreSqlite:
    """R006 is path-sensitive: it polices ``src/repro/store`` only."""

    def lint_at(self, tmp_path, relpath, source):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    def test_flags_connect_call_in_store_module(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/store/helper.py",
            """
            import sqlite3
            conn = sqlite3.connect("file.sqlite")
            """,
        )
        assert codes(findings) == ["R006"]
        assert "StoreDB serializer" in findings[0][3]

    def test_flags_from_import_connect(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/store/other.py",
            """
            from sqlite3 import connect
            """,
        )
        assert codes(findings) == ["R006"]

    def test_db_py_is_the_permitted_home(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/store/db.py",
            """
            import sqlite3
            conn = sqlite3.connect("file.sqlite")
            """,
        )
        assert findings == []

    def test_outside_the_store_package_is_ignored(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/engine/whatever.py",
            """
            import sqlite3
            conn = sqlite3.connect("file.sqlite")
            """,
        )
        assert findings == []


class TestR009PoolHome:
    """R009 confines concurrent.futures pools to ``engine/executors.py``."""

    def lint_at(self, tmp_path, relpath, source):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    def test_flags_a_pool_built_elsewhere_in_the_package(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/store/fanout.py",
            """
            import concurrent.futures
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
            """,
        )
        assert codes(findings) == ["R009"]
        assert "engine/executors.py" in findings[0][3]

    def test_flags_from_import_and_bare_call(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/serve/workers.py",
            """
            from concurrent.futures import ThreadPoolExecutor
            pool = ThreadPoolExecutor(4)
            """,
        )
        assert codes(findings) == ["R009", "R009"]

    def test_executors_module_is_the_permitted_home(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/engine/executors.py",
            """
            import concurrent.futures
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
            """,
        )
        assert findings == []

    def test_futures_without_a_pool_and_code_outside_the_package_pass(self, tmp_path):
        assert self.lint_at(
            tmp_path,
            "src/repro/serve/batcher.py",
            """
            from concurrent.futures import Future
            done = Future()
            """,
        ) == []
        assert self.lint_at(
            tmp_path,
            "benchmarks/bench_pool.py",
            """
            import concurrent.futures
            pool = concurrent.futures.ThreadPoolExecutor(2)
            """,
        ) == []

    def test_flags_a_library_pool_executor_built_elsewhere(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/serve/fanout.py",
            """
            from repro.engine import executors
            from repro.engine.executors import ProcessExecutor
            first = ProcessExecutor(2)
            second = executors.ThreadExecutor(n_jobs=4)
            """,
        )
        assert codes(findings) == ["R009", "R009"]
        assert all("resolve_executor" in finding[3] for finding in findings)

    def test_library_executors_are_built_only_at_home_or_outside_the_package(self, tmp_path):
        source = """
            from repro.engine.executors import ProcessExecutor, SerialExecutor, resolve_executor
            held = ProcessExecutor(2)
            serial = SerialExecutor()
            named = resolve_executor(2, "process")
            """
        assert self.lint_at(tmp_path, "src/repro/engine/executors.py", source) == []
        assert self.lint_at(tmp_path, "benchmarks/bench_executors.py", source) == []
        assert self.lint_at(tmp_path, "tests/engine/test_held.py", source) == []
        assert codes(self.lint_at(tmp_path, "src/repro/store/held.py", source)) == ["R009"]


class TestR010ScipyGmres:
    """R010 keeps one GMRES kernel: none reached through scipy.sparse.linalg."""

    def lint_at(self, tmp_path, relpath, source):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    def test_flags_a_call_through_a_module_alias(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/compile/fast.py",
            """
            from scipy.sparse import linalg as sparse_linalg
            x, info = sparse_linalg.gmres(a, b)
            """,
        )
        assert codes(findings) == ["R010"]
        assert "_gmres" in findings[0][3]

    def test_flags_from_import_dotted_path_and_import_alias(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/markov/other.py",
            """
            import scipy.sparse.linalg
            import scipy.sparse.linalg as spla
            from scipy.sparse.linalg import gmres
            solve = scipy.sparse.linalg.gmres
            x, info = spla.gmres(a, b)
            """,
        )
        assert codes(findings) == ["R010"] * 3

    def test_other_scipy_solvers_and_code_outside_the_package_pass(self, tmp_path):
        assert self.lint_at(
            tmp_path,
            "src/repro/sparse/krylov.py",
            """
            from scipy.sparse import linalg as sparse_linalg
            x, info = sparse_linalg.bicgstab(a, b)
            x, iterations, outcome = _gmres(a, b, None, None, 1e-12, 100, 20000)
            """,
        ) == []
        assert self.lint_at(
            tmp_path,
            "tests/sparse/test_reference.py",
            """
            from scipy.sparse import linalg as sparse_linalg
            x, info = sparse_linalg.gmres(a, b)
            """,
        ) == []

    def test_noqa_waives(self, tmp_path):
        assert self.lint_at(
            tmp_path,
            "src/repro/sparse/compare.py",
            """
            from scipy.sparse.linalg import gmres  # noqa: R010
            """,
        ) == []


class TestR007SparseDensification:
    """R007 is path-sensitive: it polices the sparse and compiled-CSR code only."""

    def lint_at(self, tmp_path, relpath, source):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    def test_flags_toarray_and_todense(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/sparse/bad.py",
            """
            dense = q.toarray()
            also = q.todense()
            """,
        )
        assert codes(findings) == ["R007", "R007"]
        assert "densifies" in findings[0][3]

    def test_flags_dense_2d_allocation(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/sparse/alloc.py",
            """
            import numpy as np
            big = np.zeros((n, n))
            """,
        )
        assert codes(findings) == ["R007"]
        assert "O(nnz)" in findings[0][3]

    def test_1d_vectors_allowed(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/sparse/ok.py",
            """
            import numpy as np
            vec = np.zeros(n)
            out = np.empty(m)
            """,
        )
        assert findings == []

    def test_compiled_core_policed(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/compile/ctmc.py",
            """
            import numpy as np
            dense = np.zeros((n, n))
            """,
        )
        assert codes(findings) == ["R007"]

    def test_other_packages_not_policed(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/markov/dense_ok.py",
            """
            dense = q.toarray()
            """,
        )
        assert findings == []

    def test_noqa_waives_the_result_matrix(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/sparse/out.py",
            """
            import numpy as np
            out = np.empty((n_times, n))  # noqa: R007
            """,
        )
        assert findings == []


class TestR008LockDiscipline:
    """R008 polices ``repro/serve``, ``repro/store``, and ``repro/obs``."""

    INSTANCE_VIOLATION = """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._models = {}
                self._count = 0

            def register(self, name, model):
                self._models[name] = model

            def guarded(self, name, model):
                with self._lock:
                    self._models[name] = model
                    self._count += 1
        """

    MODULE_VIOLATION = """
        import threading

        _LOCK = threading.Lock()
        _CACHE = {}

        def put(key, value):
            _CACHE[key] = value

        def put_guarded(key, value):
            with _LOCK:
                _CACHE[key] = value
        """

    def lint_at(self, tmp_path, relpath, source):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_repro.lint_file(path)

    def test_seeded_instance_violation(self, tmp_path):
        findings = self.lint_at(
            tmp_path, "src/repro/serve/registry.py", self.INSTANCE_VIOLATION
        )
        assert codes(findings) == ["R008"]
        assert "Registry.register" in findings[0][3]
        assert "with self." in findings[0][3]

    def test_seeded_module_violation(self, tmp_path):
        findings = self.lint_at(
            tmp_path, "src/repro/store/cache.py", self.MODULE_VIOLATION
        )
        assert codes(findings) == ["R008"]
        assert "module-level" in findings[0][3]
        assert "put()" in findings[0][3]

    def test_obs_package_is_policed_too(self, tmp_path):
        findings = self.lint_at(
            tmp_path, "src/repro/obs/metrics.py", self.MODULE_VIOLATION
        )
        assert codes(findings) == ["R008"]

    def test_mutator_method_calls_flagged(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/serve/batcher.py",
            """
            import threading

            class Batcher:
                def __init__(self):
                    self._cv = threading.Condition()
                    self._queue = []

                def submit(self, item):
                    self._queue.append(item)
            """,
        )
        assert codes(findings) == ["R008"]
        assert "mutator call" in findings[0][3] or "append" in findings[0][3]

    def test_init_and_locked_suffix_methods_exempt(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/serve/app.py",
            """
            import threading

            class App:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._handlers = {}
                    self._handlers["boot"] = None

                def _install_locked(self, name, fn):
                    self._handlers[name] = fn
            """,
        )
        assert findings == []

    def test_outside_the_policed_packages_is_ignored(self, tmp_path):
        findings = self.lint_at(
            tmp_path, "src/repro/sparse/state.py", self.INSTANCE_VIOLATION
        )
        assert findings == []

    def test_lockless_class_is_ignored(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/serve/plain.py",
            """
            class Plain:
                def __init__(self):
                    self._models = {}

                def register(self, name, model):
                    self._models[name] = model
            """,
        )
        assert findings == []

    def test_noqa_waives_a_deliberate_unlocked_write(self, tmp_path):
        findings = self.lint_at(
            tmp_path,
            "src/repro/serve/registry.py",
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._models = {}

                def register(self, name, model):
                    self._models[name] = model  # noqa: R008
            """,
        )
        assert findings == []

    def test_shipping_serve_store_obs_are_clean(self):
        for pkg in ("serve", "store", "obs"):
            pkg_dir = REPO_ROOT / "src" / "repro" / pkg
            for path in sorted(pkg_dir.rglob("*.py")):
                r008 = [f for f in lint_repro.lint_file(path) if f[2] == "R008"]
                assert r008 == [], f"{path}: {r008}"
