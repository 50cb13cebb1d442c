"""Properties of the one interval type (eigenvalue strips and s-intervals)."""

import json
import math
from fractions import Fraction as F

from hypothesis import given, strategies as st

from polystokes.spaces import Eps
from polystokes.vertex_pencil import INF, Interval

ENDS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def finite_ends(draw):
    """A rational end, or the float equal to it where there is one."""
    x = draw(ENDS)
    return float(x) if float(x) == x and draw(st.booleans()) else x


@st.composite
def intervals(draw):
    """Nonempty intervals with rational or float endpoints, either end
    possibly unbounded, and any openness."""
    lo, hi = sorted((draw(finite_ends()), draw(finite_ends())))
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    if draw(st.booleans()):
        lo = -INF
    if draw(st.booleans()):
        hi = INF
    if lo == hi:
        lo_closed = hi_closed = True
    return Interval(lo, hi, lo_closed, hi_closed)


def samples(*ivs):
    """Every endpoint, every midpoint between neighbouring finite endpoints,
    and a point on either side of all of them, far beyond 10**9 too."""
    ends = sorted({x for iv in ivs for x in (iv.lo, iv.hi)})
    finite = [x for x in ends if -INF < x < INF] or [F(0)]
    mids = [(a + b) / 2 for a, b in zip(finite, finite[1:])]
    return ends + mids + [finite[0] - 1, finite[-1] + 1, -10 ** 12, 10 ** 12]


@given(intervals(), intervals())
def test_intersect_is_pointwise_and(a, b):
    both = a.intersect(b)
    for x in samples(a, b):
        assert both.contains(x) == (a.contains(x) and b.contains(x))


@given(intervals(), intervals())
def test_union_is_pointwise_or_or_none(a, b):
    either = a.union(b)
    xs = samples(a, b)
    gap = [x for x in xs if min(a.lo, b.lo) < x < max(a.hi, b.hi)
           and not a.contains(x) and not b.contains(x)]
    assert (either is None) == bool(gap)
    if either is not None:
        for x in xs:
            assert either.contains(x) == (a.contains(x) or b.contains(x))


@given(intervals(), intervals())
def test_contains_interval_agrees_with_points(a, b):
    assert a.contains_interval(b) == all(a.contains(x) for x in samples(a, b) if b.contains(x))


@given(intervals(), st.fractions(min_value=F(1, 6), max_value=2, max_denominator=6))
def test_disjoint_union_is_none(a, gap):
    if a.hi < INF:
        right = Interval(a.hi + gap, a.hi + gap + 1, True, True)
        assert a.union(right) is None and right.union(a) is None
        touching = Interval(a.hi, a.hi + 1, False, True)
        assert (a.union(touching) is None) == (not a.hi_closed)
    if a.lo > -INF:
        left = Interval(a.lo - gap - 1, a.lo - gap, True, True)
        assert a.union(left) is None and left.union(a) is None
        touching = Interval(a.lo - 1, a.lo, True, False)
        assert (a.union(touching) is None) == (not a.lo_closed)


@given(intervals())
def test_rational_format(a):
    def text(x):
        return "%.6g" % x if isinstance(x, float) else str(x)
    assert str(a) == "%s%s, %s%s" % ("[" if a.lo_closed else "(", text(a.lo), text(a.hi),
                                     "]" if a.hi_closed else ")")


def test_equal_ends_keep_the_documented_object():
    # the float 3.0 and Fraction(3) serialize differently, so a tie must keep
    # a fixed one: intersect keeps the open end, union the closed one, and
    # ``other``'s when both ends agree
    def kinds(iv):
        return type(iv.lo), iv.lo_closed, type(iv.hi), iv.hi_closed
    closed_f, closed_q = Interval(0.0, 3.0, True, True), Interval(F(0), F(3), True, True)
    open_f, open_q = Interval(0.0, 3.0), Interval(F(0), F(3))
    assert kinds(closed_f.intersect(closed_q)) == (float, True, float, True)
    assert kinds(open_f.intersect(open_q)) == (F, False, F, False)
    assert kinds(open_f.intersect(closed_q)) == (float, False, float, False)
    assert kinds(closed_f.intersect(open_q)) == (F, False, F, False)
    assert kinds(closed_f.union(closed_q)) == (F, True, F, True)
    assert kinds(open_f.union(open_q)) == (float, False, float, False)
    assert kinds(open_f.union(closed_q)) == (F, True, F, True)
    assert kinds(closed_f.union(open_q)) == (float, True, float, True)
    # one end tied, the other not
    mixed = Interval(F(0), 3.0, False, True)
    assert kinds(mixed.intersect(Interval(0.0, F(2), False, True))) == (float, False, F, True)
    assert kinds(mixed.union(Interval(0.0, F(3), True, True))) == (float, True, F, True)


def test_unbounded_end_on_the_wire():
    # JSON has no infinity, and readers of the reports take ends as numbers:
    # the unbounded end travels as the rational 10**9 and comes back unbounded
    iv = Interval(F(2), INF, False, True)
    d = json.loads(json.dumps(iv.to_dict()))
    assert d["hi"] == [1000000000, 1] and d["lo"] == [2, 1]
    back = Interval.from_dict(d)
    assert back.hi == INF == math.inf and back == iv
    assert back.contains(10 ** 12) and not back.contains(2)


def test_formats_of_every_endpoint_kind():
    assert str(Interval(-0.5, 1.0, True, False)) == "[-0.5, 1)"
    assert str(Interval(-0.5, 0.31672559500000008, True, False)) == "[-0.5, 0.316726)"
    assert str(Interval(Eps(F(-1, 2)), Eps(F(4, 5)), True, True)) == "[-1/2, 4/5]"
    assert str(Interval(Eps(F(-1, 2)), Eps(F(5, 4), -1), False, True)) == "(-1/2, 5/4-1eps]"
    assert str(Interval(F(6, 5), F(8, 7), False, True)) == "(6/5, 8/7]"
    assert str(Interval(F(2), INF, False, True)) == "(2, inf]"
    assert str(Interval(-INF, F(3, 2), True, False)) == "[-inf, 3/2)"
    assert str(Interval(F(1), 2 / (2 - 0.54448373), False, False)) == "(1, 1.37408)"
