"""Abstract search-domain interface, a wrapper that checks its contract,
state interning, and the line-numbered parse error the input readers share."""
from __future__ import annotations

import abc
import math
from typing import Hashable, Sequence


def _line_error(lineno: int, problem: str) -> ValueError:
    """A parse error that names the 1-based line of the input it is about."""
    return ValueError(f"line {lineno}: {problem}")


class StateInterner:
    """Bijection between hashable domain state keys and dense integer ids.

    Interning the same key twice returns the same id; ids are assigned in
    first-touch order starting at 0, so they are dense and deterministic for
    a deterministic touch order.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []

    def intern(self, key: Hashable) -> int:
        sid = self._ids.get(key)
        if sid is None:
            sid = len(self._keys)
            self._ids[key] = sid
            self._keys.append(key)
        return sid

    def key_of(self, sid: int) -> Hashable:
        return self._keys[sid]


class SearchDomain(abc.ABC):
    """A search problem over interned states.

    Implementors expose a start state, a goal predicate, successor generation
    with strictly positive integer edge costs, and num_inadmissible + 1
    heuristic evaluators. heuristic(s, 0) must be admissible and consistent;
    heuristic(s, i) for i >= 1 may overestimate. Every heuristic must return
    0 on states satisfying the goal predicate.
    """

    num_inadmissible: int = 0

    @abc.abstractmethod
    def start(self) -> int:
        """Id of the start state."""

    @abc.abstractmethod
    def is_goal(self, sid: int) -> bool:
        """Goal predicate."""

    @abc.abstractmethod
    def successors(self, sid: int) -> Sequence[tuple[int, int]]:
        """(successor id, edge cost) pairs; costs are positive integers."""

    @abc.abstractmethod
    def heuristic(self, sid: int, i: int) -> float:
        """Value of heuristic i at a state, 0 <= i <= num_inadmissible."""


def checked(domain: SearchDomain) -> SearchDomain:
    """`domain`, raising ValueError on a call that breaks its contract: an
    edge cost that is not a positive integer, or a heuristic value below 0,
    NaN, +inf for the anchor, or nonzero at a goal. The message names the
    edge or the state; every other attribute is the wrapped domain's."""
    return _Checked(domain)


@SearchDomain.register
class _Checked:
    def __init__(self, domain: SearchDomain) -> None:
        self._domain = domain

    def __getattr__(self, name: str):
        return getattr(self._domain, name)

    def successors(self, sid: int) -> Sequence[tuple[int, int]]:
        succs = self._domain.successors(sid)
        for s2, c in succs:
            if not (isinstance(c, int) and c > 0):
                raise ValueError(f"edge {sid} -> {s2} costs {c!r}, not a positive integer")
        return succs

    def heuristic(self, sid: int, i: int) -> float:
        h = self._domain.heuristic(sid, i)
        if not h >= 0 or (i == 0 and h == math.inf) or (h != 0 and self._domain.is_goal(sid)):
            raise ValueError(f"heuristic {i} of state {sid} is {h!r}")
        return h
