"""An executable specification of the planner's four modes.

A-MHA* is MHA* with one shared g (Aine et al., "Multi-Heuristic A*", IJRR
2016, the shared variant SMHA*) run inside the iterations, INCONS set and
weight schedule of ARA* (Likhachev, Gordon & Thrun, "ARA*: Anytime A* with
Provable Bounds on Sub-Optimality", NIPS 2003). This module writes the
search down as plainly as it can be written, so that a run of `Planner` can
be compared with it expansion by expansion:

- every open queue is a plain list holding one `(key, -g, sid)` entry per
  queued state, and its top is the least entry found by a scan, so a tie
  on key goes to the larger g, then to the smaller id;
- it imports nothing from the package, so it shares no heap, turn loop or
  bookkeeping with the code it checks.

Scope: the virtual clock (a run's time is `(expansions + publishes) *
tick`) and domains whose heuristics are never NaN.
"""
from __future__ import annotations

import math
from decimal import Decimal

INF = math.inf


# -- open queues as lists -------------------------------------------------------


def queue_put(queue: list, sid: int, key: float, g: float) -> None:
    """Insert `sid`, or replace its entry: a queue holds a state once."""
    queue_remove(queue, sid)
    queue.append((key, -g, sid))


def queue_remove(queue: list, sid: int) -> None:
    queue[:] = [entry for entry in queue if entry[2] != sid]


def min_key(queue: list) -> float:
    return min(queue)[0] if queue else INF


def top(queue: list) -> int:
    return min(queue)[2]


def scheduled_weight(w_init: float, dw: float, k: int) -> float:
    """The weight after k decrements, on the decimal values as written."""
    return max(float(Decimal(repr(w_init)) - k * Decimal(repr(dw))), 1.0)


# -- the search -------------------------------------------------------------------


class Spec:
    """One run of `algo` over `domain`. After run(), `records` holds each
    published record as `(path, cost, bound, elapsed, expansions_total)`,
    `expansion_log` the `(sid, queue)` expansions of each iteration and
    `outcome` the end of the last iteration; the search state is left as
    the run left it.

    - `amha`: anchor queue 0 plus one queue per inadmissible heuristic,
      anytime on w1 and w2;
    - `mha`: the same, stopped after its first publish;
    - `ara`: the anchor alone, anytime on w1 (w2 held at 1); at w1 = 1 it
      is optimal A*;
    - `wastar`: the anchor alone, one publish, and a closed state whose g
      improves is queued again instead of parked in INCONS.
    """

    def __init__(self, domain, algo="amha", w1=1.0, w2=1.0, dw1=1.0, dw2=1.0,
                 time_limit=INF, tick=1e-4):
        self.domain = domain
        single = algo in ("ara", "wastar")
        self.n = 0 if single else domain.num_inadmissible
        self.reopen = algo == "wastar"
        self.one_shot = algo in ("mha", "wastar")
        self.w1_init = float(w1)
        self.w2_init = 1.0 if single else float(w2)
        self.dw1, self.dw2 = dw1, dw2
        self.time_limit, self.tick = time_limit, tick
        self.records: list = []
        self.expansion_log: list = []
        self.outcome = ""

    # The state of a run: g and the back-pointers, one list per queue, the
    # two closed sets, INCONS, the best goal reached and the expansion count.

    def goal_g(self) -> float:
        return INF if self.goal is None else self.g[self.goal]

    def key(self, s: int, i: int) -> float:
        return self.g[s] + self.w1 * self.domain.heuristic(s, i)

    def now(self) -> float:
        return (self.expansions + len(self.records)) * self.tick

    def update(self, s: int, parent: int, g: float) -> None:
        """s is reached more cheaply, through `parent`.

        The best goal is the first goal reached at the least g. A state the
        anchor closed in this iteration waits in INCONS, or is reopened in
        the reopening modes. An inadmissible queue takes s only while no
        inadmissible queue has expanded it in this iteration, and only when
        its key is within w2 of the anchor key; a rejected update leaves
        that queue's older, higher entry where it is.
        """
        if g < self.goal_g() and self.domain.is_goal(s):
            self.goal = s
        self.g[s] = g
        self.parent[s] = parent
        if s in self.closed_anchor:
            if not self.reopen:
                self.incons.add(s)
                return
            self.closed_anchor.remove(s)
        key0 = self.key(s, 0)
        queue_put(self.open[0], s, key0, g)
        if s in self.closed_inadmissible:
            return
        for j in range(1, self.n + 1):
            key_j = self.key(s, j)
            if key_j <= self.w2 * key0:
                queue_put(self.open[j], s, key_j, g)

    def expand(self, s: int, queue: int) -> None:
        """Take s out of every queue and relax its edges."""
        for q in self.open:
            queue_remove(q, s)
        self.expansions += 1
        self.expansion_log[-1].append((s, queue))
        g_s = self.g[s]
        for s2, cost in self.domain.successors(s):
            if g_s + cost < self.g.get(s2, INF):
                self.update(s2, s, g_s + cost)

    def improve_path(self) -> str:
        """One iteration: round-robin over the inadmissible queues (the
        anchor alone in the single-queue modes).

        Before each expansion: the iteration ends once g(goal) <= w2 times
        the anchor's min key, and the budget cuts it once the clock is past
        the limit. A queue whose min key is within w2 of the anchor's
        expands its top; otherwise the anchor expands its own. The exit
        bound is +inf when the anchor is empty (then the search is
        exhausted unless a goal was reached), or when w2 times a finite key
        overflowed; then the turn's queue expands if it holds states.
        """
        self.expansion_log.append([])
        if self.now() > self.time_limit:
            return "timed_out"
        anchor = self.open[0]
        turns = range(1, self.n + 1) if self.n else (0,)
        while True:
            for i in turns:
                bound = self.w2 * min_key(anchor)
                if self.goal_g() <= bound:
                    if self.goal_g() < INF:
                        return "goal_bound_proven"
                    if not anchor:
                        return "exhausted"
                if self.now() > self.time_limit:
                    return "timed_out"
                if i >= 1 and self.open[i] and min_key(self.open[i]) <= bound:
                    s = top(self.open[i])
                    self.closed_inadmissible.add(s)
                    self.expand(s, i)
                else:
                    s = top(anchor)
                    self.closed_anchor.add(s)
                    self.expand(s, 0)

    def path_to(self, s: int) -> list[int]:
        path = [s]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path[::-1]

    def publish(self) -> None:
        """Publish the path to the best goal, first re-relaxing its edges
        from the start so that its g is the sum of its cheapest edges."""
        path = self.path_to(self.goal)
        for a, b in zip(path, path[1:]):
            cost = min(c for s2, c in self.domain.successors(a) if s2 == b)
            if self.g[a] + cost < self.g[b]:
                self.update(b, a, self.g[a] + cost)
        elapsed = (self.expansions + len(self.records) + 1) * self.tick
        self.records.append((tuple(self.path_to(self.goal)), int(self.g[self.goal]),
                             self.w1 * self.w2, elapsed, self.expansions))

    def reconcile(self) -> None:
        """Move INCONS into the anchor and give every queue the anchor's
        states, keyed at the new weights."""
        states = {entry[2] for entry in self.open[0]} | self.incons
        self.incons = set()
        self.open = [[(self.key(s, i), -self.g[s], s) for s in states]
                     for i in range(self.n + 1)]

    def run(self) -> Spec:
        domain = self.domain
        self.w1, self.w2 = self.w1_init, self.w2_init
        start = domain.start()
        self.g, self.parent = {start: 0}, {start: None}
        self.goal = start if domain.is_goal(start) else None
        self.expansions = 0
        self.open = [[(self.key(start, i), 0, start)] for i in range(self.n + 1)]
        k = 0
        while True:
            self.closed_anchor, self.closed_inadmissible, self.incons = set(), set(), set()
            self.outcome = self.improve_path()
            if self.outcome != "goal_bound_proven":
                return self
            self.publish()
            if (self.w1 == 1 and self.w2 == 1) or self.one_shot:
                return self
            k += 1
            self.w1 = scheduled_weight(self.w1_init, self.dw1, k)
            self.w2 = scheduled_weight(self.w2_init, self.dw2, k)
            self.reconcile()
