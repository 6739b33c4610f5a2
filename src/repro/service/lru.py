"""A capacity-bounded LRU cache with hit/miss/eviction counters.

The selection service keeps hot ``(expression, box)`` studies in
process behind the on-disk :class:`~repro.figures.cache.StudyStore`;
the counters feed ``GET /stats`` so operators can size the capacity
against the live working set.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Tuple


class LruCache:
    """Least-recently-used mapping holding at most ``capacity`` entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership probe; does not touch recency or the counters."""
        return key in self._entries

    def keys(self) -> Tuple[Hashable, ...]:
        """Current keys, least-recently-used first."""
        return tuple(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (marking it most-recent), else ``default``."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the coldest past capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
