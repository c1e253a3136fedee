"""Post-hoc verification of a run against its theoretical guarantees."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

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
) -> Verdict:
    """Check published records and the expansion log of one run.

    - suboptimality-bound: every record's cost is at most bound * oracle_cost
      (skipped when the oracle is unavailable).
    - expansion-limit: within each improve-path iteration no state is expanded
      more than twice, and a second expansion is anchor-after-inadmissible
      (skipped for the planner's `algo` when it reopens closed states by
      design, as `wastar` and `astar` do).
    - monotonicity: published costs and bounds never increase.
    """
    verdict = Verdict()
    if oracle_cost is not None:
        for k, rec in enumerate(records):
            if rec.cost > rec.bound * oracle_cost:
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
