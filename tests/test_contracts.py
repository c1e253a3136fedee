"""Smaller interface contracts: validation, error propagation, observers."""
import pytest

from amhastar import Planner, PlannerConfig, StateInterner
from amhastar.domain import SearchDomain, checked

from helpers import ExplicitGraphDomain, grid_domain


def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(w1=0.5)
    with pytest.raises(ValueError):
        PlannerConfig(w2=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(dw1=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(algo="sideways")
    # No `astar` mode: `ara` at w1 = 1 is optimal A*.
    with pytest.raises(ValueError, match=r"^algo = 'astar': expected one of amha, mha, ara, "
                                         r"wastar$"):
        PlannerConfig(algo="astar")
    with pytest.raises(ValueError):
        PlannerConfig(clock="sundial")
    with pytest.raises(ValueError, match=r"^dw2 = 1e-16: expected >= 4.4408920985006262e-16, "
                                         r"so each step lowers the weight$"):
        PlannerConfig(w2=1.5, dw2=1e-16)  # below two ulps of 1.5
    PlannerConfig(w1=1.0, dw1=1e-300)  # a weight of 1 never steps


def test_interner_is_stable_and_dense():
    interner = StateInterner()
    a = interner.intern(("x", 1))
    b = interner.intern(("x", 2))
    assert interner.intern(("x", 1)) == a
    assert (a, b) == (0, 1)
    assert interner.key_of(b) == ("x", 2)
    assert interner.intern(("x", 3)) == 2


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
    records = Planner(dom, PlannerConfig(algo="amha", w1=3.0, w2=2.0),
                      observer=seen.append).run()
    assert seen == records
    assert [r.bound for r in seen] == [6.0, 2.0, 1.0]


def test_mha_degenerates_to_single_anchor_round_when_no_inadmissible():
    dom = ExplicitGraphDomain({"a": [("b", 1)], "b": [("c", 1)]}, "a", "c",
                              heuristics=[{}])
    records = Planner(dom, PlannerConfig(algo="amha", w1=2.0, w2=2.0)).run()
    assert records[-1].cost == 2


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("heuristics, solves", [
    ([{"a": NAN}, {}], False),
    ([{"b": NAN}, {}], False),
    ([{}, {"b": NAN}], False),   # fails the w2 filter; mha never reconciles
    ([{}, {"b": INF}], True),    # +inf is a valid inadmissible value
], ids=["start", "anchor", "inadmissible", "inadmissible-inf"])
def test_nan_heuristic_is_rejected_and_inf_inadmissible_solves(heuristics, solves):
    dom = ExplicitGraphDomain({"a": [("b", 1), ("c", 5)], "b": [("c", 1)]}, "a", "c",
                              heuristics=heuristics)
    for algo in ("amha", "mha"):
        for wrapped in (dom, checked(dom)):
            planner = Planner(wrapped, PlannerConfig(w1=2.0, w2=2.0, dw1=0.5, dw2=0.5,
                                                     algo=algo))
            if solves:
                records = planner.run()
                assert records and records[-1].cost <= 2 * records[-1].bound
            else:
                with pytest.raises(ValueError, match="(?i)nan"):
                    planner.run()


def test_reconcile_rejects_a_nan_key():
    dom = ExplicitGraphDomain({"a": [("b", 1)], "b": [("c", 1)]}, "a", "c",
                              heuristics=[{}, {}])
    planner = Planner(dom, PlannerConfig(w1=2.0, w2=2.0))
    planner.initialize()
    planner.expand(dom.start(), 0)
    dom.heuristic = lambda sid, i: NAN if i == 1 else 0.0
    with pytest.raises(ValueError, match=f"heuristic 1 of state {dom.id_of('b')} is NaN"):
        planner.reconcile_queues()


class _Line(SearchDomain):
    """States 0..len(costs) in a line, edge k -> k+1 costing costs[k]."""

    def __init__(self, costs, heuristics):
        self.costs, self.h = costs, heuristics
        self.num_inadmissible = len(heuristics) - 1

    def start(self):
        return 0

    def is_goal(self, sid):
        return sid == len(self.costs)

    def successors(self, sid):
        return ((sid + 1, self.costs[sid]),) if sid < len(self.costs) else ()

    def heuristic(self, sid, i):
        return self.h[i].get(sid, 0)


@pytest.mark.parametrize("costs, heuristics, match", [
    ((1, 0), [{}], "edge 1 -> 2 costs 0"),
    ((1, 1.5), [{}], "edge 1 -> 2 costs 1.5"),
    ((1, -1), [{}], "edge 1 -> 2 costs -1"),
    ((1, 1), [{1: -1}], "heuristic 0 of state 1 is -1"),
    ((1, 1), [{1: INF}], "heuristic 0 of state 1 is inf"),
    ((1, 1), [{2: 5}], "heuristic 0 of state 2 is 5"),
    ((1, 1), [{}, {2: 5}], "heuristic 1 of state 2 is 5"),
    ((1, 1), [{}, {1: -0.5}], "heuristic 1 of state 1 is -0.5"),
    ((), [{0: 3}], "heuristic 0 of state 0 is 3"),
], ids=["zero-cost", "fractional-cost", "negative-cost", "negative-h0", "infinite-h0",
        "h0-at-goal", "h1-at-goal", "negative-h1", "start-is-goal"])
def test_check_invariants_rejects_a_broken_domain_contract(costs, heuristics, match):
    # Named for the planner option `checked` replaced, so the case ids stay.
    cfg = PlannerConfig(w1=2.0, w2=2.0)
    with pytest.raises(ValueError, match=match):
        Planner(checked(_Line(costs, heuristics)), cfg).run()
