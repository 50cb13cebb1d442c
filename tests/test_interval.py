"""Properties of the one interval type (eigenvalue strips and s-intervals)."""

from fractions import Fraction as F

from hypothesis import given, strategies as st

from polystokes.spaces import Eps
from polystokes.vertex_pencil import INF, Interval

ENDS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def intervals(draw):
    """Nonempty intervals with rational endpoints and any openness."""
    lo, hi = sorted((draw(ENDS), draw(ENDS)))
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    if lo == hi:
        lo_closed = hi_closed = True
    return Interval(lo, hi, lo_closed, hi_closed)


def samples(*ivs):
    """Every endpoint, every midpoint between neighbouring endpoints, and a
    point on either side of all of them."""
    ends = sorted({x for iv in ivs for x in (iv.lo, iv.hi)})
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return ends + mids + [ends[0] - 1, ends[-1] + 1]


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
    right = Interval(a.hi + gap, a.hi + gap + 1, True, True)
    assert a.union(right) is None and right.union(a) is None
    touching = Interval(a.hi, a.hi + 1, False, True)
    assert (a.union(touching) is None) == (not a.hi_closed)


@given(intervals())
def test_rational_format(a):
    assert str(a) == "%s%s, %s%s" % ("[" if a.lo_closed else "(", a.lo, a.hi,
                                     "]" if a.hi_closed else ")")


def test_formats_of_every_endpoint_kind():
    assert str(Interval(-0.5, 1.0, True, False)) == "[-0.5, 1)"
    assert str(Interval(-0.5, 0.31672559500000008, True, False)) == "[-0.5, 0.316726)"
    assert str(Interval(Eps(F(-1, 2)), Eps(F(4, 5)), True, True)) == "[-1/2, 4/5]"
    assert str(Interval(Eps(F(-1, 2)), Eps(F(5, 4), -1), False, True)) == "(-1/2, 5/4-1eps]"
    assert str(Interval(F(6, 5), F(8, 7), False, True)) == "(6/5, 8/7]"
    assert str(Interval(F(2), INF, False, True)) == "(2, inf]"
    assert str(Interval(F(1), 2 / (2 - 0.54448373), False, False)) == "(1, 1.37408)"
