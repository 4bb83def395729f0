"""The demand-driven evaluation cache (§2.2).

The paper: "many of the evaluations requested by the GA are likely to be
exactly the same as those required by previous generations... To capitalise
on this redundancy, a cache of all previous evaluations has been added
between the scheduler and the PACE evaluation engine."

Keys are ``(application name, nproc, platform name)`` — the three quantities
a prediction is a pure function of.  The cache records hit/miss statistics
so the cache ablation benchmark can reproduce §2.2's redundancy argument,
and supports an optional capacity bound with FIFO eviction (the paper's
cache was unbounded; ours defaults to unbounded too).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

from repro.errors import ValidationError

__all__ = ["CacheStats", "EvaluationCache"]

#: Missing-entry sentinel (cached values are floats, so None is not safe).
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss counters for an :class:`EvaluationCache`.

    Mergeable (``+`` / ``+=``) so per-worker statistics from the parallel
    experiment fabric aggregate into one grid-wide figure.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = self.misses = self.evictions = 0


class EvaluationCache:
    """Memoisation layer between a scheduler and the evaluation engine.

    Parameters
    ----------
    max_size:
        Optional capacity bound; ``None`` (default) means unbounded, as in
        the paper.  When bounded, the oldest entry is evicted first.

    Examples
    --------
    >>> cache = EvaluationCache()
    >>> calls = []
    >>> def compute():
    ...     calls.append(1)
    ...     return 42.0
    >>> cache.get_or_compute(("app", 4, "SGIOrigin2000"), compute)
    42.0
    >>> cache.get_or_compute(("app", 4, "SGIOrigin2000"), compute)
    42.0
    >>> len(calls)   # second lookup was a hit
    1
    """

    def __init__(self, max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size <= 0:
            raise ValidationError(f"max_size must be > 0 or None, got {max_size}")
        self._max_size = max_size
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()
        self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        """Live hit/miss statistics."""
        return self._stats

    def get_or_compute(self, key: Hashable, compute: Callable[[], float]) -> float:
        """Return the cached value for *key*, computing and storing on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self._stats.misses += 1
            value = compute()
            self._entries[key] = value
            if self._max_size is not None and len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
        else:
            self._stats.hits += 1
        return value

    def get_many(
        self, keys: Sequence[Hashable], compute: Callable[[Hashable], float]
    ) -> List[float]:
        """Bulk :meth:`get_or_compute` — one traversal for a batch of keys.

        *compute* receives each missing key and returns its value.  The hot
        callers (:meth:`EvaluationEngine.evaluate_counts` filling a whole
        ``t(1..n)`` duration row) see one call instead of ``n`` closure
        allocations; statistics are identical to ``n`` scalar lookups.
        """
        entries = self._entries
        out: List[float] = []
        hits = misses = 0
        for key in keys:
            value = entries.get(key, _MISSING)
            if value is _MISSING:
                misses += 1
                value = compute(key)
                entries[key] = value
                if self._max_size is not None and len(entries) > self._max_size:
                    entries.popitem(last=False)
                    self._stats.evictions += 1
            else:
                hits += 1
            out.append(value)
        self._stats.hits += hits
        self._stats.misses += misses
        return out

    def peek(self, key: Hashable) -> Optional[float]:
        """Return the cached value without affecting statistics, or None."""
        return self._entries.get(key)

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Entries (in insertion order, for FIFO eviction) plus statistics.

        Keys are tuples of strings/ints and serialise as JSON lists; noise
        entries (``("__noise__", app, nproc, platform)``) ride along, which
        matters under prediction noise — whether a noise factor is cached
        decides whether the next evaluation draws from the RNG.
        """
        return {
            "entries": [
                [list(key), value] for key, value in self._entries.items()
            ],
            "stats": {
                "hits": self._stats.hits,
                "misses": self._stats.misses,
                "evictions": self._stats.evictions,
            },
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild entries and counters from a :meth:`snapshot_state` dict."""
        self._entries = OrderedDict(
            (tuple(key), float(value)) for key, value in state["entries"]
        )
        stats = state["stats"]
        self._stats.hits = int(stats["hits"])
        self._stats.misses = int(stats["misses"])
        self._stats.evictions = int(stats["evictions"])
