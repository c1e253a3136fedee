"""Anytime multi-heuristic best-first search with bounded suboptimality.

The planner runs one admissible "anchor" queue (index 0) and N inadmissible
queues side by side. Each round it offers every inadmissible queue one
expansion, allowed only while that queue's min key stays within w2 times the
anchor's min key; otherwise the anchor expands. An iteration ends, before
any expansion, once g(goal) <= w2 times the anchor's min key. A state whose
cost improves after it was anchor-expanded is parked in an INCONS set and
re-queued at the next weight decrement, so work carries over between
iterations. Published solutions are w1*w2-suboptimal and per-iteration
re-expansion is capped at two (inadmissible then anchor).

The baselines are modes of the same loop, chosen by PlannerConfig(algo=...)
and run by Planner(domain, config).run(): `ara` (single queue, anytime on
w1; at w1 = 1 it is optimal A*), `mha` (one-shot, stops after the first
publish) and `wastar` (single queue, one-shot, reopens closed states).
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Optional

from .domain import SearchDomain
from .heap import AddressableHeap

INF = math.inf

MODES = ("amha", "mha", "ara", "wastar")
SINGLE_QUEUE_MODES = ("ara", "wastar")
ONE_SHOT_MODES = ("mha", "wastar")
# Textbook weighted A* reopens a closed state when its cost improves; the
# anytime modes instead park it in INCONS until the next iteration.
REOPENING_MODES = ("wastar",)


class Outcome(enum.Enum):
    GOAL_BOUND_PROVEN = "goal_bound_proven"
    EXHAUSTED = "exhausted"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class PlannerConfig:
    """Planner knobs.

    w1 inflates heuristics inside queue keys, w2 gates inadmissible
    expansions relative to the anchor; both anneal by dw1/dw2 per iteration
    down to 1, computed on the decimal values as written; above 1, a step
    must be at least two ulps of its initial weight. time_limit is in
    clock seconds, >= 0 and +inf for none ('wall' monotonic seconds, or
    deterministic virtual seconds advancing by a finite `tick` per expansion
    and per publish).
    A field out of range raises ValueError naming it. A NaN heuristic
    raises ValueError; `domain.checked` checks the rest of the domain
    contract.
    """

    w1: float = 1.0
    w2: float = 1.0
    dw1: float = 1.0
    dw2: float = 1.0
    time_limit: float = INF
    algo: str = "amha"
    clock: str = "wall"
    tick: float = 1e-4
    record_expansions: bool = False

    def __post_init__(self) -> None:
        # A step below two ulps of a weight above 1 can round back to that
        # weight, and the schedule would repeat it without end.
        least1, least2 = 2 * math.ulp(self.w1), 2 * math.ulp(self.w2)
        lowers = ", so each step lowers the weight"
        for name, ok, expected in (
            ("w1", self.w1 >= 1, ">= 1"),
            ("w2", self.w2 >= 1, ">= 1"),
            ("w1", self.w1 < INF, "finite"),
            ("w2", self.w2 < INF, "finite"),
            ("dw1", self.dw1 > 0, "> 0"),
            ("dw2", self.dw2 > 0, "> 0"),
            ("dw1", self.w1 <= 1 or self.dw1 >= least1, f">= {least1:.17g}{lowers}"),
            ("dw2", self.w2 <= 1 or self.dw2 >= least2, f">= {least2:.17g}{lowers}"),
            ("algo", self.algo in MODES, f"one of {', '.join(MODES)}"),
            ("clock", self.clock in ("wall", "virtual"), "wall or virtual"),
            ("tick", self.tick > 0, "> 0"),
            ("tick", self.tick < INF, "finite"),
            ("time_limit", self.time_limit >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)!r}: expected {expected}")


@dataclass(frozen=True)
class SolutionRecord:
    """One published solution: path, its cost, and the bound it carries."""

    path: tuple[int, ...]
    cost: int
    bound: float
    elapsed: float
    expansions_total: int


def _scheduled_weight(w_init: float, dw: float, k: int) -> float:
    """The weight after k decrements: max(w_init - k * dw, 1).

    Computed on the decimal values the floats print as, so the schedule is
    the one written down (1.3, 1.2, 1.1, 1.0 for w_init=1.3, dw=0.1) rather
    than one that drifts by repeated float subtraction (1.0999999999999999).
    Schedules exact in binary (12.5 by 5.75) come out unchanged.
    """
    return max(float(Decimal(repr(w_init)) - k * Decimal(repr(dw))), 1.0)


def _nan_key(sid: int, i: int) -> ValueError:
    return ValueError(f"heuristic {i} of state {sid} is NaN: queue {i} has no order")


class Planner:
    """Drives one search over one domain instance; not reusable or shareable.

    The public stepping methods (initialize / key / expand / improve_path /
    reconcile_queues / extract_path) mirror the phases of run() so each phase
    can be exercised on its own. g and parent are kept for reached states
    only, so their size follows the search, not the range of state ids.

    A run's result is its records and `outcome`, the Outcome of its last
    iteration: GOAL_BOUND_PROVEN after its final publish, TIMED_OUT when the
    budget cut it (the records so far stand), EXHAUSTED when no goal is
    reachable. It is None until run()'s first iteration ends.
    """

    def __init__(
        self,
        domain: SearchDomain,
        config: Optional[PlannerConfig] = None,
        observer: Optional[Callable[[SolutionRecord], None]] = None,
    ) -> None:
        self._domain = domain
        self._cfg = config or PlannerConfig()
        self._observer = observer
        self._n = 0 if self._cfg.algo in SINGLE_QUEUE_MODES else domain.num_inadmissible
        self._reopen = self._cfg.algo in REOPENING_MODES
        self._g: dict[int, float] = {}
        self._parent: dict[int, int] = {}
        # Queue 0 is the anchor.
        self.open_queues = [AddressableHeap() for _ in range(self._n + 1)]
        self.closed_anchor: set[int] = set()
        self._closed_inad: set[int] = set()
        self.incons: set[int] = set()
        self.records: list[SolutionRecord] = []
        self.expansion_log: list[list[tuple[int, int]]] = []
        self.expansions_total = 0
        self.outcome: Optional[Outcome] = None

    # -- reached-state lookups ---------------------------------------------

    def g(self, sid: int) -> float:
        return self._g.get(sid, INF)

    def parent(self, sid: int) -> int:
        return self._parent.get(sid, -1)

    # -- search phases -----------------------------------------------------

    def initialize(self) -> None:
        """Set weights, seed g(start)=0 / goal cost +inf, queue the start."""
        cfg = self._cfg
        self._w1 = float(cfg.w1)
        self._w2 = 1.0 if cfg.algo in SINGLE_QUEUE_MODES else float(cfg.w2)
        start = self._domain.start()
        self._g[start] = 0
        self._parent[start] = -1
        self._goal_sid = -1
        self._goal_g: float = INF
        if self._domain.is_goal(start):
            self._goal_sid = start
            self._goal_g = 0
        for i in range(self._n + 1):
            k = self.key(start, i)
            if k != k:
                raise _nan_key(start, i)
            self.open_queues[i].insert_or_update(start, k, 0)
        self._t0 = time.perf_counter()

    def key(self, sid: int, i: int) -> float:
        """Queue priority g(s) + w1 * h_i(s); +inf for unreached states."""
        g = self._g.get(sid, INF)
        if g == INF:
            return INF
        return g + self._w1 * self._domain.heuristic(sid, i)

    def expand(self, sid: int, qi: int) -> None:
        """Pop a state from every queue and relax its outgoing edges."""
        for q in self.open_queues:
            q.discard(sid)
        self.expansions_total += 1
        if self._cfg.record_expansions:
            self.expansion_log[-1].append((sid, qi))
        g = self._g
        g_s = g[sid]
        for s2, c in self._domain.successors(sid):
            new_g = g_s + c
            if new_g < g.get(s2, INF):
                self._relax(s2, sid, new_g)

    def improve_path(self) -> Outcome:
        """Expand until g(goal) is within w2 of the anchor min, or give up.

        The exit test runs before every expansion. An empty anchor has an
        infinite min key, so it ends the loop too: with a goal reached that
        is a proven bound, without one the search is exhausted, unless the
        anchor holds states (w2 times a key overflowed to +inf at a huge
        finite weight): then the anchor also takes an empty queue's turn.

        Expects the closed sets cleared by the caller, INCONS empty, and the
        queues carrying either the start state or reconciled content.
        """
        w2 = self._w2
        open0 = self.open_queues[0]
        budget = self._cfg.time_limit
        now = self._clock()
        if self._cfg.record_expansions:
            self.expansion_log.append([])
        if now() > budget:
            return Outcome.TIMED_OUT
        turns = range(1, self._n + 1) if self._n else (0,)
        while True:
            for i in turns:
                if self._goal_g <= w2 * open0.min_key():
                    if self._goal_g < INF:
                        return Outcome.GOAL_BOUND_PROVEN
                    if not open0:
                        return Outcome.EXHAUSTED
                    if not self.open_queues[i]:
                        i = 0
                if now() > budget:
                    return Outcome.TIMED_OUT
                if i >= 1 and self.open_queues[i].min_key() <= w2 * open0.min_key():
                    sid = self.open_queues[i].top()
                    self._closed_inad.add(sid)
                    self.expand(sid, i)
                else:
                    sid = open0.top()
                    self.closed_anchor.add(sid)
                    self.expand(sid, 0)

    def reconcile_queues(self) -> None:
        """Fold INCONS into the anchor, mirror it everywhere, re-key at new w1."""
        members = sorted(set(self.open_queues[0].members()) | self.incons)
        self.incons.clear()
        g, w1, h = self._g, self._w1, self._domain.heuristic
        for i in range(self._n + 1):
            entries = [(sid, g[sid] + w1 * h(sid, i), g[sid]) for sid in members]
            for sid, k, _ in entries:
                if k != k:
                    raise _nan_key(sid, i)
            self.open_queues[i].rebuild(entries)

    def extract_path(self, sid: int) -> list[int]:
        """Back-pointer walk from a reached state to the start, reversed."""
        if sid < 0 or self.g(sid) == INF:
            raise ValueError("extract_path requires a reached state")
        chain = []
        limit = len(self._parent) + 1
        cur = sid
        while cur != -1:
            chain.append(cur)
            if len(chain) > limit:
                raise RuntimeError("cycle in parent chain")
            cur = self._parent[cur]
        chain.reverse()
        return chain

    def run(self) -> list[SolutionRecord]:
        """Full anytime loop; returns the published records in order."""
        self.initialize()
        cfg = self._cfg
        w1_start, w2_start = self._w1, self._w2
        k = 0
        while True:
            self.closed_anchor.clear()
            self._closed_inad.clear()
            self.outcome = self.improve_path()
            if self.outcome is not Outcome.GOAL_BOUND_PROVEN:
                break
            self._publish()
            if (self._w1 == 1 and self._w2 == 1) or cfg.algo in ONE_SHOT_MODES:
                break
            k += 1
            self._w1 = _scheduled_weight(w1_start, cfg.dw1, k)
            self._w2 = _scheduled_weight(w2_start, cfg.dw2, k)
            self.reconcile_queues()
        return self.records

    # -- internals -----------------------------------------------------------

    def _clock(self, publishing: int = 0) -> Callable[[], float]:
        """The run's clock: seconds since initialize(), as a function.

        The virtual clock ticks once per expansion and once per publish;
        `publishing` counts a publish whose record is not yet kept. The wall
        clock reads perf_counter(). Callers keep the function in a local: a
        bound method or closure stored on the planner would be a reference
        cycle, and a finished planner would wait for the cyclic collector.
        """
        if self._cfg.clock == "virtual":
            tick = self._cfg.tick
            published = len(self.records) + publishing
            return lambda: (self.expansions_total + published) * tick
        t0 = self._t0
        return lambda: time.perf_counter() - t0

    def _relax(self, sid: int, parent: int, new_g: float) -> None:
        """Apply an improving edge: update g/parent and queue per the rules."""
        self._g[sid] = new_g
        self._parent[sid] = parent
        if new_g < self._goal_g and self._domain.is_goal(sid):
            self._goal_g = new_g
            self._goal_sid = sid
        if sid in self.closed_anchor:
            if not self._reopen:
                self.incons.add(sid)
                return
            self.closed_anchor.discard(sid)
        k0 = new_g + self._w1 * self._domain.heuristic(sid, 0)
        if k0 != k0:
            raise _nan_key(sid, 0)
        self.open_queues[0].insert_or_update(sid, k0, new_g)
        if sid not in self._closed_inad:
            w2k0 = self._w2 * k0
            for j in range(1, self._n + 1):
                kj = new_g + self._w1 * self._domain.heuristic(sid, j)
                if kj <= w2k0:
                    self.open_queues[j].insert_or_update(sid, kj, new_g)
                elif kj != kj:
                    raise _nan_key(sid, j)

    def _tighten_goal_chain(self) -> list[int]:
        """Re-relax the goal's parent chain so g(goal) equals its edge sum,
        and return the chain.

        Stale links appear when a chain node's g improved after it relaxed
        its child; replaying the chain edges start-to-goal through _relax
        restores exact prefix sums without touching any other invariant.
        The chain stands: each replayed edge keeps its parent, and no state
        before the goal is a goal, since g rises along the chain (edge costs
        are positive) and g(goal) is the least g of any reached goal.
        """
        chain = self.extract_path(self._goal_sid)
        for a, b in zip(chain, chain[1:]):
            c = min(cost for s2, cost in self._domain.successors(a) if s2 == b)
            if self._g[a] + c < self._g[b]:
                self._relax(b, a, self._g[a] + c)
        return chain

    def _publish(self) -> None:
        path = tuple(self._tighten_goal_chain())
        rec = SolutionRecord(
            path=path,
            cost=int(self._g[self._goal_sid]),
            bound=self._w1 * self._w2,
            elapsed=self._clock(publishing=1)(),
            expansions_total=self.expansions_total,
        )
        self.records.append(rec)
        if self._observer is not None:
            self._observer(rec)
