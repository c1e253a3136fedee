"""Addressable min-heap used for the planner open lists."""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf as INF

_COMPACT_FACTOR = 2
_COMPACT_SLACK = 64


class AddressableHeap:
    """Lazy-deletion min-heap over integer state ids, built on `heapq`.

    Entries are ordered by (key, -g, id): ties on key prefer the larger g,
    then the smaller id, so the minimum is unique and expansion order is
    deterministic. Keys must not be NaN; an empty heap's min_key is +inf.

    `_heap` is a heapq list of (key, -g, id) tuples; `_live` maps each queued
    id to its one live tuple. discard only drops the id from `_live`, and an
    update pushes a new tuple; min_key and top pop stale tuples off the top.
    Liveness is one pointer compare: a tuple is live only if `_live` holds
    that very object (`is`). A stale tuple equal to the live one, as left by
    a discard and a re-insert at the same key and g, is popped like any other.
    The live tuples are `_live.values()` with a unique minimum: the order of
    an eager heap.

    The planner discards each expanded id from every queue, so stale tuples
    pile up below the top. A push that makes the list longer than
    `_COMPACT_FACTOR * len(live) + _COMPACT_SLACK` re-heapifies the live
    tuples, so memory stays linear in the live count; the O(n) rebuild is
    paid for by the pushes before it, and the slack spares small queues.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int]] = []
        self._live: dict[int, tuple[float, float, int]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def members(self):
        """Ids currently queued, in no particular order."""
        return self._live.keys()

    def min_key(self) -> float:
        heap, live = self._heap, self._live
        while heap and live.get(heap[0][2]) is not heap[0]:
            heappop(heap)
        return heap[0][0] if heap else INF

    def top(self) -> int:
        heap, live = self._heap, self._live
        while heap and live.get(heap[0][2]) is not heap[0]:
            heappop(heap)
        if not heap:
            raise IndexError("top of empty heap")
        return heap[0][2]

    def insert_or_update(self, sid: int, key: float, g: float) -> None:
        entry = (key, -g, sid)
        live = self._live
        live[sid] = entry
        heappush(self._heap, entry)
        if len(self._heap) > _COMPACT_FACTOR * len(live) + _COMPACT_SLACK:
            self._heap = list(live.values())
            heapify(self._heap)

    def discard(self, sid: int) -> None:
        """Remove an id if present; no-op otherwise."""
        self._live.pop(sid, None)

    def rebuild(self, entries) -> None:
        """Replace all contents with (sid, key, g) triples and heapify."""
        self._live = {sid: (key, -g, sid) for (sid, key, g) in entries}
        self._heap = list(self._live.values())
        heapify(self._heap)
