import math
import random

import pytest

import amhastar.heap as heap_mod
from amhastar.heap import AddressableHeap

from helpers import queue_keys


def take(h):
    """Remove and return the top id, as the planner expands it: `top`, then
    `discard`."""
    sid = h.top()
    h.discard(sid)
    return sid


def test_empty_heap_min_is_infinite():
    h = AddressableHeap()
    assert h.min_key() == math.inf
    assert len(h) == 0


def test_orders_by_key():
    h = AddressableHeap()
    h.insert_or_update(1, 5.0, 0)
    h.insert_or_update(2, 3.0, 0)
    h.insert_or_update(3, 4.0, 0)
    assert h.top() == 2
    assert h.min_key() == 3.0
    assert take(h) == 2
    assert take(h) == 3
    assert take(h) == 1


def test_tie_break_prefers_larger_g_then_smaller_id():
    h = AddressableHeap()
    h.insert_or_update(7, 10.0, 2)
    h.insert_or_update(3, 10.0, 5)
    h.insert_or_update(9, 10.0, 5)
    assert take(h) == 3  # deepest g wins, then the smaller id
    assert take(h) == 9
    assert take(h) == 7


def test_decrease_key_moves_item_up():
    h = AddressableHeap()
    for sid, key in [(1, 10.0), (2, 20.0), (3, 30.0)]:
        h.insert_or_update(sid, key, 0)
    h.insert_or_update(3, 5.0, 1)
    assert h.top() == 3
    assert queue_keys(h) == {1: 10.0, 2: 20.0, 3: 5.0}


def test_increase_key_moves_item_down():
    h = AddressableHeap()
    for sid, key in [(1, 10.0), (2, 20.0), (3, 30.0)]:
        h.insert_or_update(sid, key, 0)
    h.insert_or_update(1, 99.0, 0)
    assert take(h) == 2
    assert take(h) == 3
    assert take(h) == 1


def test_discard_arbitrary_member():
    h = AddressableHeap()
    for sid in range(10):
        h.insert_or_update(sid, float(sid), 0)
    h.discard(4)
    h.discard(0)
    h.discard(99)  # absent: no-op
    assert 4 not in h.members()
    assert sorted(h.members()) == [1, 2, 3, 5, 6, 7, 8, 9]
    assert take(h) == 1


def test_rebuild_replaces_contents():
    h = AddressableHeap()
    h.insert_or_update(1, 1.0, 0)
    h.rebuild([(5, 2.0, 1), (6, 1.0, 1), (7, 3.0, 1)])
    assert 1 not in h.members()
    assert [take(h) for _ in range(3)] == [6, 5, 7]


def test_random_operations_match_reference():
    rng = random.Random(20240817)
    h = AddressableHeap()
    ref: dict[int, tuple[float, int]] = {}

    def check():
        assert len(h) == len(ref)
        assert sorted(h.members()) == sorted(ref)

    for step in range(4000):
        op = rng.random()
        sid = rng.randrange(120)
        if op < 0.5:
            key = round(rng.uniform(0, 50), 2)
            g = rng.randrange(40)
            h.insert_or_update(sid, key, g)
            ref[sid] = (key, g)
        elif op < 0.6 and sid in ref:
            # Discard, then re-insert the same (key, g): the old tuple goes
            # stale but stays equal to the new one.
            h.discard(sid)
            key, g = ref.pop(sid)
            check()
            h.insert_or_update(sid, key, g)
            ref[sid] = (key, g)
        elif op < 0.75:
            h.discard(sid)
            ref.pop(sid, None)
        elif ref:
            best = min(ref.items(), key=lambda kv: (kv[1][0], -kv[1][1], kv[0]))
            assert h.top() == best[0]
            assert h.min_key() == best[1][0]
            assert take(h) == best[0]
            del ref[best[0]]
        check()
    # Thousands of updates over a few ids, each followed by a pop or a
    # discard now and then, so stale tuples pile up and get compacted.
    for step in range(5000):
        sid = rng.randrange(4)
        key = float(rng.randrange(20))
        g = rng.randrange(5)
        h.insert_or_update(sid, key, g)
        ref[sid] = (key, g)
        if step % 7 == 0:
            h.discard(sid)
            del ref[sid]
        elif step % 11 == 0:
            best = min(ref.items(), key=lambda kv: (kv[1][0], -kv[1][1], kv[0]))
            assert take(h) == best[0]
            del ref[best[0]]
        check()
    while ref:
        best = min(ref.items(), key=lambda kv: (kv[1][0], -kv[1][1], kv[0]))
        assert h.min_key() == best[1][0]
        assert take(h) == best[0]
        del ref[best[0]]
        check()
    assert h.min_key() == math.inf


def test_discarded_id_stays_gone_after_equal_reinsert():
    # The re-insert leaves a stale tuple equal to the live one; the second
    # discard must leave neither of them answering min_key or top.
    h = AddressableHeap()
    h.insert_or_update(1, 5, 0)
    h.discard(1)
    h.insert_or_update(1, 5, 0)
    h.discard(1)
    assert 1 not in h.members()
    assert len(h) == 0
    assert h.min_key() == math.inf
    with pytest.raises(IndexError):
        h.top()


def test_stale_entries_stay_within_the_compaction_threshold():
    rng = random.Random(7)
    h = AddressableHeap()
    for _ in range(10_000):
        h.insert_or_update(rng.randrange(3), rng.uniform(0, 100), rng.randrange(10))
        assert len(h._heap) <= heap_mod._COMPACT_FACTOR * len(h) + heap_mod._COMPACT_SLACK
    assert len(h) == 3
