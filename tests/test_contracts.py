"""Smaller interface contracts: validation, error propagation, observers."""
import pytest

from amhastar import Planner, PlannerConfig, StateInterner
from amhastar.domain import SearchDomain
from amhastar.explicit import ExplicitGraphDomain

from helpers import grid_domain


def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(w1_init=0.5)
    with pytest.raises(ValueError):
        PlannerConfig(w2_init=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(dw1=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(mode="sideways")
    with pytest.raises(ValueError):
        PlannerConfig(termination_check="sometimes")
    with pytest.raises(ValueError):
        PlannerConfig(clock="sundial")


def test_interner_is_stable_and_dense():
    interner = StateInterner()
    a = interner.intern(("x", 1))
    b = interner.intern(("x", 2))
    assert interner.intern(("x", 1)) == a
    assert (a, b) == (0, 1)
    assert interner.key_of(b) == ("x", 2)
    assert ("x", 2) in interner and ("x", 3) not in interner


def test_successor_failure_aborts_run():
    class Broken(SearchDomain):
        num_inadmissible = 0

        def start(self):
            return 0

        def is_goal(self, sid):
            return sid == 99

        def successors(self, sid):
            raise RuntimeError("sensor glitch")

        def heuristic(self, sid, i):
            return 0.0

    with pytest.raises(RuntimeError, match="sensor glitch"):
        Planner(Broken(), PlannerConfig()).run()


def test_parent_cycle_detected():
    dom = ExplicitGraphDomain({"a": [("b", 1)], "b": []}, "a", "b", heuristics=[{}])
    planner = Planner(dom, PlannerConfig())
    planner.run()
    a, b = dom.id_of("a"), dom.id_of("b")
    planner._parent[a] = b  # forge corruption: a <-> b loop
    with pytest.raises(RuntimeError, match="cycle"):
        planner.extract_path(b)


def test_observer_sees_records_in_publish_order():
    seen = []
    dom = grid_domain(5, 5, (0, 0), (4, 4))
    records = Planner(dom, PlannerConfig(mode="amha", w1_init=3.0, w2_init=2.0),
                      observer=seen.append).run()
    assert seen == records
    assert [r.bound for r in seen] == [6.0, 2.0, 1.0]


def test_mha_degenerates_to_single_anchor_round_when_no_inadmissible():
    dom = ExplicitGraphDomain({"a": [("b", 1)], "b": [("c", 1)]}, "a", "c",
                              heuristics=[{}])
    records = Planner(dom, PlannerConfig(mode="amha", w1_init=2.0, w2_init=2.0)).run()
    assert records[-1].cost == 2
