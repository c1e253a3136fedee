"""Post-hoc verification of a run of any of the planner's four modes against
its theoretical guarantees."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .domain import SearchDomain
from .planner import REOPENING_MODES, SolutionRecord


@dataclass
class Verdict:
    passed: bool = True
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def __str__(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL\n" + "\n".join("  - " + f for f in self.failures)


def verify_run(
    records: Sequence[SolutionRecord],
    oracle_cost: Optional[float],
    expansion_log: Optional[Sequence[Sequence[tuple[int, int]]]] = None,
    algo: Optional[str] = None,
    domain: Optional[SearchDomain] = None,
) -> Verdict:
    """Check published records and the expansion log of one run.

    - path (when the run's `domain` is given): every record's path starts at
      `domain.start()`, ends on a goal, and steps only along `successors`
      edges whose least costs sum to the record's cost.
    - suboptimality-bound: every record's cost is at least oracle_cost and at
      most bound * oracle_cost (skipped when the oracle is unavailable).
    - expansion-limit: within each improve-path iteration no state is expanded
      more than twice, and a second expansion is anchor-after-inadmissible
      (skipped for `wastar`, the one mode that reopens closed states by
      design).
    - monotonicity: published costs and bounds never increase.
    """
    verdict = Verdict()
    for k, rec in enumerate(records if domain is not None else ()):
        path, cost = rec.path, 0
        if not path or path[0] != domain.start():
            verdict.fail(f"path: record {k} does not start at the start state")
            continue
        if not domain.is_goal(path[-1]):
            verdict.fail(f"path: record {k} does not end on a goal")
        for step, (a, b) in enumerate(zip(path, path[1:])):
            costs = [c for s2, c in domain.successors(a) if s2 == b]
            if not costs:
                verdict.fail(f"path: record {k} step {step} is no edge from state {a} to {b}")
                break
            cost += min(costs)
        else:
            if cost != rec.cost:
                verdict.fail(f"path: record {k} cost {rec.cost} but its edges sum to {cost}")
    if oracle_cost is not None:
        for k, rec in enumerate(records):
            if rec.cost < oracle_cost:
                verdict.fail(
                    f"suboptimality-bound: record {k} cost {rec.cost} is below "
                    f"optimal {oracle_cost}"
                )
            elif rec.cost > rec.bound * oracle_cost:
                verdict.fail(
                    f"suboptimality-bound: record {k} cost {rec.cost} exceeds "
                    f"bound {rec.bound} * optimal {oracle_cost}"
                )
    for k in range(1, len(records)):
        if records[k].cost > records[k - 1].cost:
            verdict.fail(f"monotonicity: cost increases at record {k}")
        if records[k].bound > records[k - 1].bound:
            verdict.fail(f"monotonicity: bound increases at record {k}")
    if expansion_log is not None and algo not in REOPENING_MODES:
        for it, log in enumerate(expansion_log):
            seen: dict[int, list[int]] = {}
            for sid, qi in log:
                seen.setdefault(sid, []).append(qi)
            for sid, qis in seen.items():
                if len(qis) > 2:
                    verdict.fail(
                        f"expansion-limit: state {sid} expanded {len(qis)} times in iteration {it}"
                    )
                elif len(qis) == 2 and not (qis[0] >= 1 and qis[1] == 0):
                    verdict.fail(
                        f"expansion-limit: state {sid} re-expanded out of order "
                        f"(queues {qis}) in iteration {it}"
                    )
    return verdict

