"""Anytime multi-heuristic A* search library."""

from .domain import SearchDomain, StateInterner
from .heap import AddressableHeap
from .planner import Outcome, Planner, PlannerConfig, SolutionRecord
from .verify import Verdict, verify_run

__version__ = "0.1.0"

__all__ = [
    "AddressableHeap",
    "Outcome",
    "Planner",
    "PlannerConfig",
    "SearchDomain",
    "SolutionRecord",
    "StateInterner",
    "Verdict",
    "verify_run",
]
