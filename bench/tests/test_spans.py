"""The span recorder's self-time arithmetic, on hand-built spans."""

import pytest

from bench.spans import NullRecorder, SpanRecorder


def test_self_time_is_duration_minus_the_union_of_children():
    rec = SpanRecorder("t")
    root = rec.add("round", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent=root)
    rec.add("b", 3.0, 6.0, parent=root)  # overlaps a: the union covers 1..6
    rec.add("c", 8.0, 12.0, parent=root)  # runs past its parent: only 8..10 counts
    leaf = rec.add("d", 20.0, 21.5)
    self_s = rec.self_times()
    assert self_s[root] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_s[leaf] == pytest.approx(1.5)


def test_nesting_follows_the_open_span():
    rec = SpanRecorder("t")
    with rec.span("outer") as outer:
        with rec.span("inner", k=1) as inner:
            pass
    assert rec.spans[inner]["parent"] == outer and rec.spans[outer]["parent"] is None
    assert rec.spans[inner]["run"] == "t"
    assert rec.spans[outer]["end"] >= rec.spans[inner]["end"] >= rec.spans[inner]["start"]
    assert rec.select("inner", k=1) and not rec.select("inner", k=2)


def test_sums_under_groups_by_the_nearest_ancestor():
    rec = SpanRecorder("t")
    r0 = rec.add("round", 0.0, 1.0)
    r1 = rec.add("round", 1.0, 2.0)
    d0 = rec.add("decode", 0.1, 0.3, parent=r0)
    rec.add("codec", 0.1, 0.2, parent=d0)  # grandchild of round 0
    rec.add("codec", 1.1, 1.4, parent=r1)
    rec.add("codec", 5.0, 6.0)  # under no round: not counted
    assert rec.sums_under("codec", "round") == pytest.approx([0.1, 0.3])
    assert rec.sums_under("decode", "round") == pytest.approx([0.2, 0.0])


def test_timed_wraps_each_call_and_null_recorder_wraps_nothing():
    rec = SpanRecorder("t")
    double = rec.timed("double", lambda x: 2 * x, layer="x")
    assert double(3) == 6 and double(4) == 8
    assert len(rec.durations("double", layer="x")) == 2

    def fn():
        return 1

    assert NullRecorder().timed("anything", fn) is fn
    with NullRecorder().span("anything", a=1):
        pass
