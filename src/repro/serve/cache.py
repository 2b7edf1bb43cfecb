"""The server's warm answer store.

Two cache layers back a running service:

* the :class:`~repro.core.trace_cache.TraceCache` of each worker
  process's runner — the *computation* store: superstep recordings,
  optionally spilled to disk and shared across processes;
* this module's :class:`AnswerCache`, in the server process — the
  *response* store: finished :class:`~repro.api.PredictResponse`
  payload dicts keyed by the request's ``cell_key()``.  A warm hit is
  answered on the event loop and never touches a runner; misses are
  computed in the worker processes, so a long miss cannot stall the
  hits behind it, which is what keeps the p99 warm path flat under
  load.

Hit/miss traffic feeds the ambient :mod:`repro.obs` session
(``serve.answer_cache_*`` counters plus a live hit-rate gauge), so the
cache's health shows up on ``/metrics`` next to the trace cache's own
counters.
"""

from __future__ import annotations

import collections
import typing as _t

from repro import obs

__all__ = ["AnswerCache"]


class AnswerCache:
    """A bounded LRU of finished answer payloads keyed by cell key.

    Values are the JSON-ready ``result`` dicts the server returns —
    storing the serialized form (not the record) is what makes the
    byte-identity contract trivial: a cached answer *is* the original
    answer object, not a reconstruction of it.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = int(maxsize)
        self._store: collections.OrderedDict[tuple, dict] = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: tuple) -> dict | None:
        """The cached payload for ``key``, refreshed to MRU; ``None``
        on a miss."""
        payload = self._store.get(key)
        if payload is None:
            self.misses += 1
            self._publish("misses")
            return None
        self._store.move_to_end(key)
        self.hits += 1
        self._publish("hits")
        return payload

    def put(self, key: tuple, payload: dict) -> None:
        """Store ``payload`` under ``key``, evicting LRU entries past
        ``maxsize``."""
        self._store[key] = payload
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self.evictions += 1
        session = obs.active()
        if session is not None:
            session.metrics.gauge("serve.answer_cache_size", len(self._store))

    # -- accounting --------------------------------------------------------
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, _t.Any]:
        return {
            "size": len(self._store),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        }

    def _publish(self, outcome: str) -> None:
        session = obs.active()
        if session is None:
            return
        session.metrics.count(f"serve.answer_cache_{outcome}_total")
        session.metrics.gauge("serve.answer_cache_hit_rate", self.hit_rate())
