"""The repo's two cache policies, chosen by the key space.

- :func:`memoize` — one plain dict per object for caches whose keys are
  finite and fixed by the object: a batch's topology (scatter plans,
  fused operators, relation fusions, contexts) keyed by backend name,
  endpoint, dtype, relation id or stacked depth. The memo lives exactly
  as long as its owner, so it needs no bound, and adding a scatter
  backend adds keys, nothing else. Each key is built once, whatever its
  value (``None`` included).
- :class:`LRUCache` — the one eviction policy, for caches whose keys
  grow with traffic: the serving tier's result and partition caches,
  the shard reader's decoded shards, a partition's block contexts. A
  plain ``OrderedDict`` with move-to-front on hit and drop-oldest on
  overflow, no threads, no TTLs.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import TypeVar

V = TypeVar("V")

_MISSING = object()


def memoize(memo: dict, key: Hashable, build: Callable[[], V]) -> V:
    """``memo[key]``, set to ``build()`` on the first request for ``key``."""
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = build()
    return value


class LRUCache:
    """Least-recently-used mapping bounded to ``maxsize`` entries."""

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key, default=None):
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> int:
        """Insert ``key`` as most recent; returns how many entries it evicted."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        evicted = 0
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def get_or_create(self, key, factory: Callable[[], V]) -> V:
        """Return the cached value for ``key``, building it on a miss."""
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self._data.move_to_end(key)
            return value
        value = factory()
        self.put(key, value)
        return value

    def clear(self) -> None:
        self._data.clear()
