"""Unit tests for points and the dominance relation."""

import copy
import dataclasses

import pytest

from repro.core.point import (
    Point,
    dominates,
    ensure_general_position,
    in_general_position,
    leftmost_dominator,
    strictly_dominates,
)


def test_dominance_basic():
    p, q = Point(2, 3), Point(1, 1)
    assert p.dominates(q)
    assert not q.dominates(p)
    assert dominates(p, q)
    assert strictly_dominates(p, q)


def test_dominance_requires_both_coordinates():
    assert not Point(2, 0).dominates(Point(1, 1))
    assert not Point(0, 2).dominates(Point(1, 1))
    assert Point(2, 1).dominates(Point(1, 1))
    assert not Point(2, 1).strictly_dominates(Point(1, 1))


def test_point_does_not_dominate_itself():
    p = Point(1, 1)
    assert not p.dominates(Point(1, 1))


def test_lexicographic_ordering_sorts_by_x():
    points = [Point(3, 0), Point(1, 5), Point(2, 2)]
    assert [p.x for p in sorted(points)] == [1, 2, 3]


def test_mirrored_y_and_tuple():
    p = Point(2, 5, ident=7)
    assert p.mirrored_y() == Point(2, -5, 7)
    assert p.as_tuple() == (2, 5)


def test_general_position_check_and_fix():
    points = [Point(1, 1), Point(1, 2), Point(3, 2)]
    assert not in_general_position(points)
    fixed = ensure_general_position(points)
    assert in_general_position(fixed)
    assert len(fixed) == 3
    # Already-general-position inputs are unchanged.
    clean = [Point(1, 1), Point(2, 2)]
    assert ensure_general_position(clean) == clean


def test_leftmost_dominator():
    points = [Point(1, 1), Point(2, 5), Point(4, 3), Point(6, 2)]
    assert leftmost_dominator(Point(1, 1), points) == Point(2, 5)
    assert leftmost_dominator(Point(6, 2), points) is None
    assert leftmost_dominator(Point(4, 3), points) is None


def test_point_is_frozen_and_hashable():
    p = Point(1.5, 2.5, ident=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 9
    assert hash(p) == hash(Point(1.5, 2.5, 3))
    assert len({p, Point(1.5, 2.5, 3), Point(1.5, 2.5, 4)}) == 2
    assert {p: "v"}[Point(1.5, 2.5, 3)] == "v"


def test_point_orders_by_x_then_y_then_ident():
    points = [Point(2, 1, 0), Point(1, 3, 2), Point(1, 3, 1), Point(1, 2, 5)]
    assert sorted(points) == [
        Point(1, 2, 5),
        Point(1, 3, 1),
        Point(1, 3, 2),
        Point(2, 1, 0),
    ]
    assert Point(1, 3, 1) < Point(1, 3, 2) < Point(2, 0, 0)


def test_point_is_slotted_and_deep_copyable():
    """Points carry no per-instance dict, and deep copies (the crash
    simulator deep-copies whole stores) stay equal, frozen and hashable."""
    p = Point(1.0, 2.0, ident=7)
    assert not hasattr(p, "__dict__")
    clone = copy.deepcopy({"points": [p, p]})
    copied = clone["points"][0]
    assert copied == p and hash(copied) == hash(p)
    assert clone["points"][1] is copied
    with pytest.raises(dataclasses.FrozenInstanceError):
        copied.y = 0
