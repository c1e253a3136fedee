"""Addressable binary min-heap used for the planner open lists."""
from __future__ import annotations

import math

INF = math.inf


class AddressableHeap:
    """Binary min-heap over integer state ids with handle-addressed updates.

    Entries are ordered by (key, -g, id): ties on key prefer the larger g,
    then the smaller id, so the minimum is always unique and expansion order
    is deterministic. insert_or_update, discard and pop are O(log n) through
    a position map; min_key/top are O(1). min_key of an empty heap is +inf.
    """

    __slots__ = ("_heap", "_pos")

    def __init__(self) -> None:
        self._heap: list[tuple[float, float, int]] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, sid: int) -> bool:
        return sid in self._pos

    def members(self):
        """Ids currently queued, in no particular order."""
        return self._pos.keys()

    def min_key(self) -> float:
        return self._heap[0][0] if self._heap else INF

    def top(self) -> int:
        if not self._heap:
            raise IndexError("top of empty heap")
        return self._heap[0][2]

    def key_of(self, sid: int) -> float:
        """Stored key for a queued id (KeyError if absent)."""
        return self._heap[self._pos[sid]][0]

    def insert_or_update(self, sid: int, key: float, g: float) -> None:
        entry = (key, -g, sid)
        i = self._pos.get(sid)
        if i is None:
            self._heap.append(entry)
            self._pos[sid] = len(self._heap) - 1
            self._sift_up(len(self._heap) - 1)
            return
        old = self._heap[i]
        if entry == old:
            return
        self._heap[i] = entry
        if entry < old:
            self._sift_up(i)
        else:
            self._sift_down(i)

    def discard(self, sid: int) -> None:
        """Remove an id if present; no-op otherwise."""
        i = self._pos.pop(sid, None)
        if i is None:
            return
        last = self._heap.pop()
        if i < len(self._heap):
            self._heap[i] = last
            self._pos[last[2]] = i
            self._sift_down(i)
            self._sift_up(i)

    def pop(self) -> int:
        sid = self.top()
        self.discard(sid)
        return sid

    def rebuild(self, entries) -> None:
        """Replace all contents with (sid, key, g) triples and heapify."""
        self._heap = [(key, -g, sid) for (sid, key, g) in entries]
        self._pos = {e[2]: i for i, e in enumerate(self._heap)}
        for i in range(len(self._heap) // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_up(self, i: int) -> None:
        heap = self._heap
        pos = self._pos
        entry = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            above = heap[parent]
            if entry < above:
                heap[i] = above
                pos[above[2]] = i
                i = parent
            else:
                break
        heap[i] = entry
        pos[entry[2]] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        pos = self._pos
        n = len(heap)
        entry = heap[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and heap[right] < heap[child]:
                child = right
            if heap[child] < entry:
                heap[i] = heap[child]
                pos[heap[child][2]] = i
                i = child
            else:
                break
        heap[i] = entry
        pos[entry[2]] = i
