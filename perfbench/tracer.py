"""Outside-in tracer: times and counts calls into amhastar's layers.

`install(tracer)` swaps timing wrappers into the program's modules for one
traced pass and returns a function that puts the originals back; nothing
under src/ knows about it. Each wrapped call adds its duration to the call
that encloses it, so a layer's self time is its duration minus the time of
the traced calls it made. Hot calls (domain methods, heap operations,
interning) are aggregated per name, because keeping millions of spans would
cost more than the calls; the coarse ones (query, domain build, heuristic
fields, planner run, reconcile) are also kept as spans
(name, start, end, parent, query id) and written out when the run ends.
`Tracer.settle` then takes the wrappers' own cost out of the self times.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import amhastar.bench as bench
import amhastar.domain as domain_mod
import amhastar.grid as grid
import amhastar.planner as planner
from amhastar.domain import SearchDomain
from amhastar.heap import AddressableHeap
from amhastar.tiles import TilePuzzleDomain


class Tracer:
    """Timing wrappers plus the spans and totals they record.

    `outside_s` and `inside_s` are the calibrated cost of one wrapped call
    outside its timed window (paid by its caller) and inside it.
    """

    def __init__(self, outside_s: float = 0.0, inside_s: float = 0.0) -> None:
        self.spans: list = []       # (name, start, end, parent span index, query id)
        # name -> [calls, total_s, self_s, calls made directly inside them]
        self.calls: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.query = None
        self._frames = [[0.0, 0]]   # per open call: traced time and calls inside it
        self._open = [-1]           # span index of each open coarse call
        self.outside_s = outside_s
        self.inside_s = inside_s

    @classmethod
    def calibrated(cls) -> "Tracer":
        return cls(*_calibrate())

    def wrap(self, name: str, fn, span: bool = False):
        """`fn` timed and counted under `name`; `span` also keeps each call."""
        acc = self.calls.setdefault(name, [0, 0.0, 0.0, 0])
        frames = self._frames
        perf = time.perf_counter
        if not span:
            def call(*args):
                frames.append([0.0, 0])
                t0 = perf()
                try:
                    return fn(*args)
                finally:
                    dt = perf() - t0
                    inner, n = frames.pop()
                    acc[0] += 1
                    acc[1] += dt
                    acc[2] += dt - inner
                    acc[3] += n
                    parent = frames[-1]
                    parent[0] += dt
                    parent[1] += 1
            return call

        spans, opened = self.spans, self._open

        def call_span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            opened.append(idx)
            frames.append([0.0, 0])
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                inner, n = frames.pop()
                opened.pop()
                spans[idx] = (name, t0, t1, opened[-1], self.query)
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - inner
                acc[3] += n
                parent = frames[-1]
                parent[0] += dt
                parent[1] += 1
        return call_span

    def settle(self) -> None:
        """Take the wrappers' calibrated cost out of every self time.

        Each call loses `inside_s`, and each caller `outside_s` per call it
        made. The calibration runs on a no-op, so real calls, with their
        arguments and the domain proxy's own frames, cost somewhat more: the
        rest stays in the callers' self time, mostly the planner's.
        """
        for acc in self.calls.values():
            acc[2] -= acc[0] * self.inside_s + acc[3] * self.outside_s

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def ncalls(self, name: str) -> int:
        return self.calls.get(name, (0, 0.0, 0.0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.calls.get(name, (0, 0.0, 0.0, 0))[1]

    def self_s(self, name: str) -> float:
        return self.calls.get(name, (0, 0.0, 0.0, 0))[2]

    def finish_query(self, domain) -> None:
        """Fold one query's domain counters into the totals."""
        self.count(f"{domain.layer}.heuristic.states", len(domain.states))
        self.count("grid.fallback_lookups", getattr(domain.inner, "fallback_lookups", 0))

    def write(self, path) -> None:
        """Spans as JSON lines (times relative to the first span), then per-name totals."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"span": name, "start": start - t_ref, "end": end - t_ref,
                                     "parent": parent, "query": query}) + "\n")
            for name, (calls, total, own, _) in sorted(self.calls.items()):
                fh.write(json.dumps({"calls": name, "n": calls, "total_s": total,
                                     "self_s": own}) + "\n")
            for name, n in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "n": n}) + "\n")


def _calibrate(n: int = 100_000, repeats: int = 5) -> tuple[float, float]:
    """Median wrapper cost per call (outside, inside its timed window), on a no-op."""
    perf = time.perf_counter

    def noop(*args):
        return None

    outside, inside = [], []
    for _ in range(repeats):
        probe = Tracer()
        wrapped = probe.wrap("noop", noop)
        t0 = perf()
        for _ in range(n):
            pass
        t1 = perf()
        for _ in range(n):
            noop(1, 2)
        t2 = perf()
        for _ in range(n):
            wrapped(1, 2)
        t3 = perf()
        loop, direct = (t1 - t0) / n, (t2 - t1) / n - (t1 - t0) / n
        window = probe.calls["noop"][1] / n
        inside.append(window - direct)
        outside.append((t3 - t2) / n - loop - window)
    return statistics.median(outside), statistics.median(inside)


class TracedDomain(SearchDomain):
    """Times and counts every SearchDomain call the planner makes."""

    def __init__(self, inner: SearchDomain, tracer: Tracer) -> None:
        self.inner = inner
        self.layer = "tiles" if isinstance(inner, TilePuzzleDomain) else "grid"
        self.num_inadmissible = inner.num_inadmissible
        self.states: set[int] = set()
        self._successors = tracer.wrap(f"{self.layer}.successors", inner.successors)
        self._heuristic = tracer.wrap(f"{self.layer}.heuristic", inner.heuristic)
        self._is_goal = tracer.wrap(f"{self.layer}.is_goal", inner.is_goal)

    def start(self) -> int:
        return self.inner.start()

    def is_goal(self, sid: int) -> bool:
        return self._is_goal(sid)

    def successors(self, sid: int):
        return self._successors(sid)

    def heuristic(self, sid: int, i: int) -> float:
        self.states.add(sid)
        return self._heuristic(sid, i)


def _traced_heap(tracer: Tracer) -> type:
    wrap = tracer.wrap
    timed_rebuild = wrap("heap.rebuild", AddressableHeap.rebuild)

    class TracedHeap(AddressableHeap):
        __slots__ = ()
        insert_or_update = wrap("heap.insert_or_update", AddressableHeap.insert_or_update)
        discard = wrap("heap.discard", AddressableHeap.discard)
        min_key = wrap("heap.min_key", AddressableHeap.min_key)
        top = wrap("heap.top", AddressableHeap.top)

        def rebuild(self, entries) -> None:
            timed_rebuild(self, entries)
            tracer.count("heap.rebuild.entries", len(self))

    return TracedHeap


def install(tracer: Tracer):
    """Swap the wrappers in; returns the function that restores the originals."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    wrap = tracer.wrap
    patch(planner, "AddressableHeap", _traced_heap(tracer))
    patch(domain_mod.StateInterner, "intern",
          wrap("domain.intern", domain_mod.StateInterner.intern))
    patch(grid, "clearance_field", wrap("grid.clearance_field", grid.clearance_field, True))
    patch(grid, "dijkstra_field", wrap("grid.dijkstra_field", grid.dijkstra_field, True))
    patch(bench, "LatticeDomain", wrap("grid.build", bench.LatticeDomain, True))
    patch(bench, "TilePuzzleDomain", wrap("tiles.build", bench.TilePuzzleDomain, True))
    build = wrap("bench.build_domain", bench.RunManifest.build_domain, True)
    patch(bench.RunManifest, "build_domain", lambda m: TracedDomain(build(m), tracer))
    patch(planner.Planner, "run", wrap("planner.run", planner.Planner.run, True))
    reconcile = wrap("planner.reconcile_queues", planner.Planner.reconcile_queues, True)

    def reconcile_queues(p) -> None:
        tracer.count("planner.reopen_incons", len(p.incons))
        reconcile(p)

    patch(planner.Planner, "reconcile_queues", reconcile_queues)

    def uninstall() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return uninstall
