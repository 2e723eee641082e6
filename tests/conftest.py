"""Shared pytest fixtures.

Also makes the test suite runnable straight from a source checkout by
putting ``src/`` on ``sys.path`` when the package is not installed.
"""

import pathlib
import sys

import numpy as np
import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:  # pragma: no cover - source-checkout fallback
        sys.path.insert(0, str(_SRC))


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(20160628)


@pytest.fixture(autouse=True)
def _no_shared_pools():
    """Each test starts and ends without library-held worker pools.

    Named pool backends keep warm workers for the life of the process;
    releasing them around every test keeps worker counts, fork counts
    and shipped-evaluator counters about the test at hand.
    """
    from repro.engine.executors import _release_shared

    _release_shared()
    yield
    _release_shared()
