"""A bounded, thread-safe memo for rate-independent model structure.

Case studies whose structure depends only on integer knobs (the NFV
chain's CSR pattern, the Boeing tree's BDD program) build it once per
knob signature and refill it per point.  :class:`BoundedMemo` is the one
policy both use: least-recently-used eviction past ``limit`` entries,
lookups and inserts under a lock, and the build itself outside it — a
build can take seconds and must not block lookups of other keys.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, TypeVar

__all__ = ["BoundedMemo"]

V = TypeVar("V")


class BoundedMemo(Generic[V]):
    """At most ``limit`` built values, least recently used evicted first."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The memoized value of ``key``, calling ``build()`` on a miss.

        Threads racing on one missing key may each build it; the first
        insert wins and every caller gets that one object.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))
