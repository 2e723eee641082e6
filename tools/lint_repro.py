#!/usr/bin/env python
"""Project-specific AST lint — rules no off-the-shelf tool enforces.

Stdlib-only (runs in the minimal CI image, where ruff/mypy may be
absent).  Rules:

``R002 mutable-default-arg``
    A ``def f(x=[])`` / ``def f(x={})`` / ``def f(x=set())`` default is
    shared across calls; use ``None`` plus an in-body default.

``R003 lazy-namespace-drift``
    ``src/repro/__init__.py`` keeps parallel listings of the public
    surface: the ``_EXPORTS`` lazy-import table (attributes), the
    ``_MODULE_EXPORTS`` table (lazily-imported submodules), ``__all__``
    and the ``TYPE_CHECKING`` import block.  They must agree, or a name
    either fails to resolve at runtime or is invisible to type
    checkers.  A name must not appear in both tables (the ``__getattr__``
    lookup order would silently shadow one), and module exports are
    *not* required in ``TYPE_CHECKING`` — they resolve to real modules.

``R004 all-name-undefined``
    Every string in a module's ``__all__`` must be bound at module top
    level (def / class / import / assignment).

``R005 serve-swallowed-exception``
    In the serving daemon (``src/repro/serve``) a broad handler —
    ``except Exception`` / ``except BaseException`` / bare ``except:``
    — must either build a structured ``ErrorRecord`` or re-raise.  The
    daemon's contract is that no failure ever leaves as a bare
    traceback (or vanishes silently), so a handler that swallows
    broadly without producing a record is a bug by construction.

``R006 store-bare-sqlite``
    All sqlite access in ``src/repro/store`` goes through the
    single-writer serializer (``StoreDB`` in ``db.py``); a
    ``sqlite3.connect`` anywhere else under the package bypasses the
    one-connection-one-thread invariant the store's durability
    guarantees are built on.

``R007 sparse-densification``
    ``src/repro/sparse`` and the compiled CSR core
    (``src/repro/compile/ctmc.py``, ``src/repro/compile/sparse.py``)
    exist to keep 10^5+-state chains in CSR form end to end; a
    ``.toarray()`` / ``.todense()`` call or a dense 2-D allocation
    (``np.zeros((n, n))`` and friends) on those solver hot paths
    silently reintroduces the O(n²) memory wall the subsystem was
    built to remove.

``R008 lock-discipline``
    The concurrent subsystems (``src/repro/serve``, ``src/repro/store``,
    ``src/repro/obs``) guard shared mutable state with explicit locks.
    In a class that owns a ``Lock``/``RLock``/``Condition`` attribute,
    container state (attributes initialized to ``dict``/``list``/...)
    must only be mutated — subscript assignment, ``.append()`` and
    friends, ``+=`` on counter attributes — inside a ``with
    self.<lock>:`` block; likewise module-level mutable state in a
    module that creates a module-level lock.  Methods whose name ends
    with ``_locked`` are exempt (the caller-holds-the-lock convention),
    as is ``__init__`` (no concurrent access before construction
    completes).  Waivable with ``# noqa: R008`` for state that is
    genuinely single-threaded.

``R009 pool-outside-executors``
    Under ``src/repro`` a ``concurrent.futures`` worker pool
    (``ProcessPoolExecutor`` / ``ThreadPoolExecutor``) and the library's
    own pool executors (``ProcessExecutor`` / ``ThreadExecutor``) may be
    built only in ``engine/executors.py``.  Pool lifetime (one warm
    executor per named backend per process, reference-counted holding,
    broken-pool replacement) and the worker initializer (ship-once
    evaluators, the orphan watchdog) live there; a pool or executor
    built anywhere else silently skips them — library code resolves a
    backend by name through ``resolve_executor``.

``R010 scipy-gmres``
    Under ``src/repro`` no ``gmres`` is reached through
    ``scipy.sparse.linalg`` (``from scipy.sparse.linalg import gmres``,
    ``<alias>.gmres`` on a name bound to the module, or the dotted
    ``scipy.sparse.linalg.gmres``).  The repository has one GMRES
    kernel, ``_gmres`` in ``sparse/krylov.py``; a second path would
    skip its stagnation exit and its BLAS-1 plumbing.

``R011 heavy-module-level-import``
    Under ``src/repro`` no module imports ``scipy.stats``,
    ``scipy.integrate``, ``scipy.optimize`` or ``networkx`` at module
    level (top level, or in a class body or a block run on import;
    ``if TYPE_CHECKING:`` is exempt).  Together they cost ~0.9 s and
    ~50 MB per process, and the store, compiled evaluators, the daemon
    and the case studies never use them; import them inside the
    function that does.

Usage::

    python tools/lint_repro.py [paths...]

Defaults to ``src/repro``, ``examples``, ``benchmarks`` and ``tools``.
Prints ``path:line: CODE message`` per finding; exits 1 when any fired.
"""

import ast
import sys
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src/repro", "examples", "benchmarks", "tools")

Finding = Tuple[str, int, str, str]  # (path, line, code, message)


def _callee_name(func: ast.expr) -> str:
    """Trailing name of a call target: ``f`` for ``f(...)`` and ``m.f(...)``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


def _is_mutable_default(default: ast.expr) -> bool:
    if isinstance(default, _MUTABLE_DISPLAYS):
        return True
    if isinstance(default, ast.Call) and _callee_name(default.func) in _MUTABLE_CONSTRUCTORS:
        return True
    return False


def check_mutable_defaults(tree: ast.AST, path: str) -> List[Finding]:
    """R002: mutable default argument values."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        defaults = list(zip(args.posonlyargs + args.args, _padded(args)))
        defaults += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default in defaults:
            if default is not None and _is_mutable_default(default):
                findings.append(
                    (
                        path,
                        default.lineno,
                        "R002",
                        f"mutable default for argument {arg.arg!r} of "
                        f"{node.name}(); use None and fill in the body",
                    )
                )
    return findings


def _padded(args: ast.arguments):
    """Positional defaults left-padded with None to align with the args."""
    positional = args.posonlyargs + args.args
    pad = [None] * (len(positional) - len(args.defaults))
    return pad + list(args.defaults)


def _string_elements(node: ast.expr) -> List[str]:
    """Constant string elements of a list/tuple display (starred skipped)."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return []
    return [
        element.value
        for element in node.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]


def _toplevel_bindings(tree: ast.Module) -> set:
    """Names bound at module top level (defs, imports, assignments)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # conditionally-bound names (TYPE_CHECKING / fallback imports)
            # count as bindings for __all__ purposes
            bound |= _toplevel_bindings(ast.Module(body=node.body, type_ignores=[]))
            for handler in getattr(node, "handlers", []):
                bound |= _toplevel_bindings(ast.Module(body=handler.body, type_ignores=[]))
            bound |= _toplevel_bindings(
                ast.Module(body=getattr(node, "orelse", []), type_ignores=[])
            )
    return bound


def check_all_names(tree: ast.Module, path: str) -> List[Finding]:
    """R004: every constant string in ``__all__`` is bound in the module."""
    findings = []
    all_node = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            all_node = node
    if all_node is None:
        return findings
    names = _string_elements(all_node.value)
    has_starred = isinstance(all_node.value, (ast.List, ast.Tuple)) and any(
        isinstance(e, ast.Starred) for e in all_node.value.elts
    )
    bound = _toplevel_bindings(tree)
    lazy = "__getattr__" in bound  # PEP 562 module: names resolve lazily
    for name in names:
        if name in bound or name == "__version__":
            continue
        if lazy or has_starred:
            continue
        findings.append(
            (path, all_node.lineno, "R004", f"__all__ lists {name!r} but the module never binds it")
        )
    return findings


def check_serve_error_records(tree: ast.AST, path: str) -> List[Finding]:
    """R005: serve-path broad except handlers must emit an ErrorRecord.

    Only files under ``src/repro/serve`` are checked.  A handler
    passes when its body references the name ``ErrorRecord`` (building
    the structured record that becomes the wire error) or contains a
    bare ``raise`` (propagating to a handler that does).
    """
    if "repro/serve" not in path.replace("\\", "/"):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            broad = True  # bare except:
        else:
            caught = [
                name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)
            ]
            broad = any(name in ("Exception", "BaseException") for name in caught)
        if not broad:
            continue
        handles = False
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and sub.id == "ErrorRecord":
                    handles = True
                if isinstance(sub, ast.Raise) and sub.exc is None:
                    handles = True
        if not handles:
            findings.append(
                (
                    path,
                    node.lineno,
                    "R005",
                    "broad except in serve code must build an ErrorRecord or "
                    "re-raise; the daemon never swallows failures bare",
                )
            )
    return findings


def check_store_sqlite(tree: ast.AST, path: str) -> List[Finding]:
    """R006: ``sqlite3.connect`` only in the store's serializer module.

    Checks files under ``src/repro/store``; the single permitted home
    is ``db.py`` (the ``StoreDB`` serializer).  Both spellings are
    caught: ``sqlite3.connect(...)`` and ``from sqlite3 import
    connect``.
    """
    normalized = path.replace("\\", "/")
    if "repro/store" not in normalized or normalized.endswith("/db.py"):
        return []
    findings = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "connect"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "sqlite3"
        ):
            findings.append(
                (
                    path,
                    node.lineno,
                    "R006",
                    "bare sqlite3.connect outside repro/store/db.py; all store "
                    "database access goes through the StoreDB serializer",
                )
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "sqlite3" and any(
            alias.name == "connect" for alias in node.names
        ):
            findings.append(
                (
                    path,
                    node.lineno,
                    "R006",
                    "importing sqlite3.connect outside repro/store/db.py; all "
                    "store database access goes through the StoreDB serializer",
                )
            )
    return findings


#: the concurrent.futures pool classes R009 confines to engine/executors.py
_POOL_CLASSES = {"ProcessPoolExecutor", "ThreadPoolExecutor"}
#: the library's own pool executors, likewise built only there
_EXECUTOR_CLASSES = {"ProcessExecutor", "ThreadExecutor"}


def check_pool_home(tree: ast.AST, path: str) -> List[Finding]:
    """R009: pools and pool executors only in ``engine/executors.py``.

    Checks files under ``src/repro``; flags a ``ProcessPoolExecutor`` /
    ``ThreadPoolExecutor`` call (``concurrent.futures.X(...)`` or a bare
    ``X(...)``), ``from concurrent.futures import X``, and a
    ``ProcessExecutor(...)`` / ``ThreadExecutor(...)`` call.
    """
    normalized = path.replace("\\", "/")
    if "src/repro/" not in normalized or normalized.endswith("repro/engine/executors.py"):
        return []
    message = (
        "concurrent.futures pool built outside repro/engine/executors.py; "
        "use an Executor (resolve_executor / parallel_starmap) so the pool "
        "lifetime and worker initializer keep one home"
    )
    executor_message = (
        "pool executor built outside repro/engine/executors.py; resolve the "
        "backend by name (resolve_executor) so library calls share its warm "
        "workers"
    )
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee_name(node.func) in _POOL_CLASSES:
            findings.append((path, node.lineno, "R009", message))
        elif isinstance(node, ast.Call) and _callee_name(node.func) in _EXECUTOR_CLASSES:
            findings.append((path, node.lineno, "R009", executor_message))
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module == "concurrent.futures"
            and any(alias.name in _POOL_CLASSES for alias in node.names)
        ):
            findings.append((path, node.lineno, "R009", message))
    return findings


_SCIPY_LINALG = "scipy.sparse.linalg"


def check_scipy_gmres(tree: ast.AST, path: str) -> List[Finding]:
    """R010: no ``gmres`` reached through ``scipy.sparse.linalg``.

    Checks files under ``src/repro``.  Names bound to the module
    (``import scipy.sparse.linalg as spla``, ``from scipy.sparse import
    linalg``) are collected first; then ``<name>.gmres``, the dotted
    ``scipy.sparse.linalg.gmres`` and ``from scipy.sparse.linalg[...]
    import gmres`` are flagged.
    """
    if "src/repro/" not in path.replace("\\", "/"):
        return []
    message = (
        "gmres reached through scipy.sparse.linalg; call "
        "repro.sparse.krylov.steady_state_iterative, whose _gmres is the "
        "repository's one GMRES kernel"
    )
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == _SCIPY_LINALG and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse":
            aliases.update(a.asname or a.name for a in node.names if a.name == "linalg")
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(_SCIPY_LINALG):
            if any(a.name == "gmres" for a in node.names):
                findings.append((path, node.lineno, "R010", message))
        elif isinstance(node, ast.Attribute) and node.attr == "gmres":
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in aliases) or (
                ast.unparse(owner) == _SCIPY_LINALG
            ):
                findings.append((path, node.lineno, "R010", message))
    return findings


#: modules R011 keeps out of module-level imports under src/repro
_HEAVY_MODULES = ("scipy.stats", "scipy.integrate", "scipy.optimize", "networkx")


def _is_heavy(module: str) -> bool:
    return any(module == heavy or module.startswith(heavy + ".") for heavy in _HEAVY_MODULES)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_time_statements(body):
    """Statements run on import: descends into blocks and class bodies,
    not into functions or ``if TYPE_CHECKING:``."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            if not _is_type_checking(node.test):
                yield from _import_time_statements(node.body)
            yield from _import_time_statements(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _import_time_statements(block)
            for handler in node.handlers:
                yield from _import_time_statements(handler.body)
        elif isinstance(node, (ast.With, ast.For, ast.While, ast.ClassDef)):
            yield from _import_time_statements(node.body)
            yield from _import_time_statements(getattr(node, "orelse", []))


def check_heavy_imports(tree: ast.Module, path: str) -> List[Finding]:
    """R011: no module-level import of scipy.stats/integrate/optimize or networkx.

    Checks files under ``src/repro``: ``import <heavy>[.sub]``,
    ``from <heavy>[.sub] import ...`` and ``from scipy import
    stats|integrate|optimize`` among the statements run on import.
    """
    if "src/repro/" not in path.replace("\\", "/"):
        return []
    findings = []
    for node in _import_time_statements(tree.body):
        if isinstance(node, ast.Import):
            heavy = [alias.name for alias in node.names if _is_heavy(alias.name)]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            heavy = [module] if _is_heavy(module) else [
                f"{module}.{alias.name}"
                for alias in node.names
                if _is_heavy(f"{module}.{alias.name}")
            ]
        else:
            continue
        for name in heavy:
            findings.append(
                (
                    path,
                    node.lineno,
                    "R011",
                    f"module-level import of {name}; import it inside the "
                    "function that uses it (the store, compiled evaluators "
                    "and the daemon never load it)",
                )
            )
    return findings


#: dense-allocation constructors checked by R007
_DENSE_ALLOCATORS = {"zeros", "ones", "empty", "full"}
#: path fragments R007 polices
_R007_SCOPES = ("repro/sparse", "repro/compile/sparse", "repro/compile/ctmc")


def check_sparse_densification(tree: ast.AST, path: str) -> List[Finding]:
    """R007: no densification on the sparse solver hot paths.

    Checks files under ``src/repro/sparse``, the compiled-sparse
    sweep kernel ``src/repro/compile/sparse.py`` and the compiled fill
    core it shares in ``src/repro/compile/ctmc.py`` (same O(nnz) memory
    contract): flags ``.toarray()`` / ``.todense()`` calls and 2-D
    dense allocations (``np.zeros((n, m))``,
    ``np.ones``/``np.empty``/``np.full`` likewise).  1-D vectors are
    the working currency of the iterative solvers and stay allowed.
    """
    norm = path.replace("\\", "/")
    if not any(scope in norm for scope in _R007_SCOPES):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee_name(node.func)
        if name in ("toarray", "todense") and isinstance(node.func, ast.Attribute):
            findings.append(
                (
                    path,
                    node.lineno,
                    "R007",
                    f".{name}() densifies the operator on a sparse hot path; "
                    "keep the CSR/LinearOperator form",
                )
            )
        elif name in _DENSE_ALLOCATORS and node.args:
            shape = node.args[0]
            if isinstance(shape, (ast.Tuple, ast.List)) and len(shape.elts) >= 2:
                findings.append(
                    (
                        path,
                        node.lineno,
                        "R007",
                        f"dense 2-D {name}() allocation on a sparse hot path; "
                        "the subsystem contract is O(nnz) memory, not O(n^2)",
                    )
                )
    return findings


#: lock-like constructors that establish ownership for R008
_LOCK_CONSTRUCTORS = {"Lock", "RLock", "Condition"}
#: method calls that mutate a container in place
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "setdefault",
    "appendleft",
    "popleft",
    "move_to_end",
}
_R008_MUTABLE_CONSTRUCTORS = _MUTABLE_CONSTRUCTORS | {"OrderedDict", "Counter"}


def _is_mutable_value(value: ast.expr) -> bool:
    """A value expression that creates a shared mutable container."""
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    return (
        isinstance(value, ast.Call)
        and _callee_name(value.func) in _R008_MUTABLE_CONSTRUCTORS
    )


def _is_self_attr(node: ast.expr, attrs) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attrs
    )


def _scan_mutations(body, is_state, is_lock, locked, report) -> None:
    """Recursively flag in-place mutations of tracked state outside a lock.

    ``is_state(expr)`` recognises the guarded container/counter,
    ``is_lock(expr)`` recognises the ``with`` context manager that
    acquires the owning lock; ``report(node, description)`` records a
    finding.  ``with`` bodies whose items include the lock are scanned
    with ``locked=True``.
    """
    for stmt in body:
        if isinstance(stmt, ast.With):
            now_locked = locked or any(
                is_lock(item.context_expr) for item in stmt.items
            )
            _scan_mutations(stmt.body, is_state, is_lock, now_locked, report)
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function may run later (e.g. a worker thread):
            # scan it as unlocked — acquiring inside still passes.
            _scan_mutations(stmt.body, is_state, is_lock, False, report)
            continue
        if not locked:
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Subscript) and is_state(target.value):
                        report(stmt, "subscript assignment")
                    elif isinstance(stmt, ast.AugAssign) and is_state(target):
                        report(stmt, "augmented assignment")
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    if isinstance(target, ast.Subscript) and is_state(target.value):
                        report(stmt, "subscript deletion")
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _MUTATOR_METHODS
                    and is_state(sub.func.value)
                ):
                    report(sub, f".{sub.func.attr}() call")
        # recurse into compound statements (if/for/while/try bodies)
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner and not isinstance(stmt, ast.With):
                _scan_mutations(inner, is_state, is_lock, locked, report)
        for handler in getattr(stmt, "handlers", []):
            _scan_mutations(handler.body, is_state, is_lock, locked, report)


def check_lock_discipline(tree: ast.AST, path: str) -> List[Finding]:
    """R008: guarded mutable state only mutated under its lock.

    Checks files under ``src/repro/serve``, ``src/repro/store`` and
    ``src/repro/obs``.  Two ownership patterns:

    * **instance** — a class binding ``self.X = Lock()/RLock()/
      Condition()`` owns every mutable-container attribute and every
      numeric counter attribute initialized in ``__init__``; methods
      other than ``__init__`` (and the ``*_locked`` helpers, which run
      with the caller holding the lock) must mutate them only inside
      ``with self.<lock>:``;
    * **module** — a module binding a top-level lock owns its top-level
      mutable containers; functions must mutate them only inside
      ``with <lockname>:``.
    """
    norm = path.replace("\\", "/")
    if not any(f"repro/{pkg}/" in norm or norm.endswith(f"repro/{pkg}.py") for pkg in ("serve", "store", "obs")):
        return []
    findings: List[Finding] = []

    # ---- module-level pattern ------------------------------------------
    module_locks, module_mutables = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if (
                    isinstance(node.value, ast.Call)
                    and _callee_name(node.value.func) in _LOCK_CONSTRUCTORS
                ):
                    module_locks.add(target.id)
                elif _is_mutable_value(node.value):
                    module_mutables.add(target.id)
    if module_locks and module_mutables:

        def is_mod_state(expr):
            return isinstance(expr, ast.Name) and expr.id in module_mutables

        def is_mod_lock(expr):
            return isinstance(expr, ast.Name) and expr.id in module_locks

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _scan_mutations(
                    node.body,
                    is_mod_state,
                    is_mod_lock,
                    False,
                    lambda n, what, fn=node: findings.append(
                        (
                            path,
                            n.lineno,
                            "R008",
                            f"module-level mutable state mutated ({what}) in "
                            f"{fn.name}() outside `with <lock>:` although this "
                            f"module owns a lock",
                        )
                    ),
                )

    # ---- instance pattern ----------------------------------------------
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        lock_attrs, state_attrs = set(), set()
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if (
                        isinstance(sub.value, ast.Call)
                        and _callee_name(sub.value.func) in _LOCK_CONSTRUCTORS
                    ):
                        lock_attrs.add(target.attr)
                    elif method.name == "__init__" and _is_mutable_value(sub.value):
                        state_attrs.add(target.attr)
                    elif (
                        method.name == "__init__"
                        and isinstance(sub.value, ast.Constant)
                        and isinstance(sub.value.value, (int, float))
                        and not isinstance(sub.value.value, bool)
                    ):
                        state_attrs.add(target.attr)
        if not lock_attrs or not state_attrs:
            continue

        def is_inst_state(expr, attrs=frozenset(state_attrs)):
            return _is_self_attr(expr, attrs)

        def is_inst_lock(expr, attrs=frozenset(lock_attrs)):
            return _is_self_attr(expr, attrs)

        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            _scan_mutations(
                method.body,
                is_inst_state,
                is_inst_lock,
                False,
                lambda n, what, m=method: findings.append(
                    (
                        path,
                        n.lineno,
                        "R008",
                        f"guarded instance state mutated ({what}) in "
                        f"{cls.name}.{m.name}() outside `with self.<lock>:` "
                        f"although the class owns a lock",
                    )
                ),
            )
    return findings


def check_lazy_namespace(init_path: Path) -> List[Finding]:
    """R003: ``_EXPORTS``/``_MODULE_EXPORTS`` vs ``__all__`` vs ``TYPE_CHECKING``."""
    findings: List[Finding] = []
    path = str(init_path)
    tree = ast.parse(init_path.read_text())
    exports, export_line = set(), 1
    module_exports, module_line = set(), 1
    all_names, all_starred, all_line = set(), False, 1
    type_checking: set = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            target_ids = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "_EXPORTS" in target_ids and isinstance(node.value, ast.Dict):
                export_line = node.lineno
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        exports.add(key.value)
            if "_MODULE_EXPORTS" in target_ids and isinstance(node.value, ast.Dict):
                module_line = node.lineno
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        module_exports.add(key.value)
            if "__all__" in target_ids:
                all_line = node.lineno
                all_names = set(_string_elements(node.value))
                all_starred = isinstance(node.value, (ast.List, ast.Tuple)) and any(
                    isinstance(e, ast.Starred) for e in node.value.elts
                )
        elif isinstance(node, ast.If):
            test = node.test
            is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            )
            if is_tc:
                type_checking |= _toplevel_bindings(
                    ast.Module(body=node.body, type_ignores=[])
                )
    if not exports:
        return [(path, 1, "R003", "no _EXPORTS table found in the lazy namespace")]
    for name in sorted(exports & module_exports):
        findings.append(
            (
                path,
                module_line,
                "R003",
                f"{name!r} appears in both _EXPORTS and _MODULE_EXPORTS; "
                "the __getattr__ lookup order would silently shadow one",
            )
        )
    if not all_starred:
        # with a literal __all__, every export must be listed explicitly
        for name in sorted((exports | module_exports) - all_names):
            findings.append(
                (path, all_line, "R003", f"export entry {name!r} missing from __all__")
            )
        for name in sorted(all_names - exports - module_exports - {"__version__"}):
            findings.append(
                (path, all_line, "R003", f"__all__ lists {name!r} with no export entry")
            )
    for name in sorted(exports - type_checking):
        findings.append(
            (
                path,
                export_line,
                "R003",
                f"_EXPORTS entry {name!r} missing from the TYPE_CHECKING import block",
            )
        )
    for name in sorted(type_checking - exports - module_exports):
        findings.append(
            (
                path,
                export_line,
                "R003",
                f"TYPE_CHECKING imports {name!r} which has no export entry",
            )
        )
    return findings


def lint_file(py_path: Path) -> List[Finding]:
    """All per-file rules over one source file.

    A ``# noqa: R00x`` comment on the flagged line waives that rule
    there.
    """
    path = str(py_path)
    source = py_path.read_text()
    tree = ast.parse(source, filename=path)
    findings = check_mutable_defaults(tree, path)
    findings += check_all_names(tree, path)
    findings += check_serve_error_records(tree, path)
    findings += check_store_sqlite(tree, path)
    findings += check_pool_home(tree, path)
    findings += check_scipy_gmres(tree, path)
    findings += check_heavy_imports(tree, path)
    findings += check_sparse_densification(tree, path)
    findings += check_lock_discipline(tree, path)
    lines = source.splitlines()
    return [
        f
        for f in findings
        if f"noqa: {f[2]}" not in (lines[f[1] - 1] if 0 < f[1] <= len(lines) else "")
    ]


def lint_paths(paths) -> List[Finding]:
    """All rules over files/trees; adds the R003 namespace check when
    the scanned set includes the top-level ``repro/__init__.py``."""
    findings: List[Finding] = []
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.suffix == ".py":
            files.append(entry)
    for py_path in files:
        findings.extend(lint_file(py_path))
        if py_path.name == "__init__.py" and py_path.parent.name == "repro":
            findings.extend(check_lazy_namespace(py_path))
    return findings


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or [
        REPO_ROOT / p for p in DEFAULT_PATHS
    ]
    findings = lint_paths(paths)
    for path, line, code, message in findings:
        print(f"{path}:{line}: {code} {message}")
    if findings:
        print(f"{len(findings)} finding(s)")
        return 1
    print("lint_repro: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
