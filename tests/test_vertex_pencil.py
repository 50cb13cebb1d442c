import math
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polystokes import fixtures as fx
from polystokes.geometry import VertexBound, VertexCone
from polystokes.vertex_pencil import (Interval, StripFinding, eigenfree_strip,
                                      known_exceptional, strip_condition_holds)


def _finding(poly, bc, v, override=None, **kw):
    cone = poly.vertex_cone(v)
    incident = [bc.d[k] for k in poly.incident_faces(v)]
    pairs = [bc.pair(e) for e in poly.incident_edges(v)]
    return eigenfree_strip(cone, incident, pairs, override, **kw)


def test_cube_corner_all_dirichlet(cube):
    f = _finding(cube, fx.with_conditions(cube, 0), 0)
    assert "R2" in f.rules
    assert f.free == Interval(F(-2), F(1), False, False)
    assert {v for v, _ in f.exceptional} == {-2, 1}


def test_exterior_corner_falls_back_to_generic():
    ext = fx.cube(complement=True)
    f = _finding(ext, fx.with_conditions(ext, 0), 0)
    assert f.rules == ("R1",)
    assert f.free == Interval(F(-1), F(0), True, True)


def test_dirichlet_neumann_vertex_unknown(cube):
    bc = fx.with_conditions(cube, 0, {fx.top_face(cube): 3})
    top = [v for v in range(8) if fx.top_face(cube) in cube.incident_faces(v)]
    f = _finding(cube, bc, top[0])
    assert f.unknown


def test_all_neumann_needs_lipschitz(cube):
    bc = fx.with_conditions(cube, 3)
    f = _finding(cube, bc, 0)
    assert f.unknown
    assert any("Lipschitz" in a for a in f.assumptions)
    f = _finding(cube, bc, 0, lipschitz_graph=True)
    assert f.rules == ("R3",)
    assert (f.free.lo, f.free.hi) == (-1.0, 0.0)
    assert {v for v, _ in f.exceptional} == {-2, -1, 0, 1}


def test_mixed_no_stress_gets_wide_strip(cube):
    bc = fx.with_conditions(cube, 0, {fx.top_face(cube): 2})
    top = [v for v in range(8) if fx.top_face(cube) in cube.incident_faces(v)]
    f = _finding(cube, bc, top[0])
    assert "R4" in f.rules
    assert f.free.lo == -1.0


def test_override_extends_strip(cube):
    ext = fx.cube(complement=True)
    f = _finding(ext, fx.with_conditions(ext, 0), 0,
                 override=VertexBound(0.317, "external table"))
    assert "R6" in f.rules
    assert f.free.hi == pytest.approx(0.317) and f.free.lo == pytest.approx(-1.317)
    assert not f.free.hi_closed and not f.free.lo_closed


def test_override_must_exceed_energy_line():
    with pytest.raises(ValueError):
        VertexBound(-0.6)


def test_slip_class_rule():
    fr = fx.slip_frustum()
    bc = fx.with_conditions(fr, 0, {fx.top_face(fr): 2})
    top_vertices = [v for v in range(len(fr.vertices))
                    if fx.top_face(fr) in fr.incident_faces(v)]
    f = _finding(fr, bc, top_vertices[0], slip_class=True)
    assert "R5" in f.rules
    assert f.free == Interval(F(-2), F(1), True, True)
    assert {v for v, _ in f.exceptional} == {-2, 1}


# -- strip containment ------------------------------------------------------------

def test_strip_condition_examples(cube):
    r2 = _finding(cube, fx.with_conditions(cube, 0), 0)
    ok, _ = strip_condition_holds(r2, Interval(-0.5, 1 - 3 / 4, True, True))  # any s > 0 keeps 1-3/s < 1
    assert ok
    r1 = StripFinding(0, Interval(-0.5, 0.0, True, True))
    ok, _ = strip_condition_holds(r1, Interval(-0.5, -0.25, True, True))
    assert ok
    ok, why = strip_condition_holds(r1, Interval(-0.5, 0.5, True, True))
    assert not ok and "not inside" in why


def test_exceptional_blocks_closed_endpoint(cube):
    r2 = _finding(cube, fx.with_conditions(cube, 0), 0)
    ok, _ = strip_condition_holds(r2, Interval(-0.5, 1.0, True, True))
    assert not ok  # the eigenvalue at 1 is excluded only at an open endpoint
    f = StripFinding(0, Interval(-0.5, 1.0, True, True), ((1.0, "simple"),))
    ok, why = strip_condition_holds(f, Interval(-0.5, 1.0, True, True))
    assert not ok and "exceptional" in why
    ok, _ = strip_condition_holds(f, Interval(-0.5, 0.99, True, True))
    assert ok


def test_unknown_finding_never_holds():
    f = StripFinding(3, None)
    ok, why = strip_condition_holds(f, Interval(-0.5, 0.0, True, True))
    assert not ok and "no applicable rule" in why


def test_rule_monotone_in_assumptions(cube):
    # adding the half-space predicate never shrinks the generic strip
    r2 = _finding(cube, fx.with_conditions(cube, 0), 0)
    assert r2.free.contains_interval(Interval(-0.5, 0.0, True, True))


def test_condition_monotone_in_target(cube):
    import numpy as np
    rng = np.random.default_rng(11)
    f = _finding(cube, fx.with_conditions(cube, 0), 0)
    for _ in range(50):
        a = rng.uniform(-0.5, 0.9)
        b = rng.uniform(a, 0.99)
        a2 = rng.uniform(a, b)
        b2 = rng.uniform(a2, b)
        big, _ = strip_condition_holds(f, Interval(a, b, True, True))
        small, _ = strip_condition_holds(f, Interval(a2, b2, True, True))
        if big:
            assert small


def test_known_exceptional_catalogue():
    assert known_exceptional([0, 0, 2, 0]) == (-2, 1)
    assert known_exceptional([3, 3, 3]) == (-2, -1, 0, 1)
    assert known_exceptional([0, 1, 0]) == ()


def test_catalogue_is_exact(cube):
    # every strip end and exceptional value of R1-R5 is a Fraction, so a scan
    # maps it to an exact s and prints it as a rational ([-1/2, 1), not -0.5)
    ext = fx.cube(complement=True)
    frustum = fx.slip_frustum()
    top = [v for v in range(len(frustum.vertices))
           if fx.top_face(frustum) in frustum.incident_faces(v)][0]
    findings = {
        "R1": _finding(ext, fx.with_conditions(ext, 0), 0),
        "R2": _finding(cube, fx.with_conditions(cube, 0), 0),
        "R3": _finding(cube, fx.with_conditions(cube, 3), 0, lipschitz_graph=True),
        "R4": _finding(cube, fx.with_conditions(cube, 0, {fx.top_face(cube): 2}),
                       cube.faces[fx.top_face(cube)][0]),
        "R5": _finding(frustum, fx.with_conditions(frustum, 0, {fx.top_face(frustum): 2}),
                       top, slip_class=True),
    }
    for rule, f in findings.items():
        assert rule in f.rules
        values = [f.free.lo, f.free.hi] + [v for v, _ in f.exceptional]
        assert all(type(x) is Fraction for x in values), (rule, values)
        assert "-0.5" not in f.describe()
    assert str(findings["R2"].free) == "(-2, 1)"
    for pattern in ([0], [0, 2], [3], [1, 0]):
        assert all(type(x) is Fraction for x in known_exceptional(pattern))


@given(incident=st.lists(st.integers(0, 3), min_size=3, max_size=6),
       half_space=st.booleans(), lipschitz_graph=st.booleans(), slip_class=st.booleans(),
       bound=st.none() | st.floats(-0.5, 1e6, exclude_min=True))
@settings(deadline=None)
def test_mirror_property(incident, half_space, lipschitz_graph, slip_class, bound):
    # the vertex spectra are symmetric about the energy line: every finding
    # and every guaranteed set is closed under lambda -> -1 - lambda, with
    # exact ends save the R6 user bound and its mirror
    pairs = list(zip(incident, incident[1:] + incident[:1]))
    cone = VertexCone(0, np.zeros((len(incident), 3)), half_space)
    override = None if bound is None else VertexBound(bound)
    f = eigenfree_strip(cone, incident, pairs, override,
                        lipschitz_graph=lipschitz_graph, slip_class=slip_class)
    if not f.unknown:
        lo, hi = f.free.lo, f.free.hi
        assert f.free.contains(F(-1, 2)) and type(lo) in (Fraction, float)
        if type(hi) is Fraction:
            assert type(lo) is Fraction and lo == -1 - hi
            assert f.free.lo_closed == f.free.hi_closed
        else:
            # the R6 bound; its mirror rounds toward the energy line, by less
            # than a unit in the last place
            assert hi == bound
            gap = Fraction(lo) - (-1 - Fraction(hi))
            assert 0 <= gap <= Fraction(math.ulp(-1 - hi)), (lo, hi)
    values = [v for v, _ in f.exceptional]
    assert sorted(-1 - v for v in values) == values
    assert all(type(v) is Fraction for v in values)
    guaranteed = known_exceptional(incident)
    assert sorted(-1 - v for v in guaranteed) == sorted(guaranteed)
    assert all(type(v) is Fraction for v in guaranteed)
