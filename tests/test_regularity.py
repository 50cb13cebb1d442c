import dataclasses
import json
import math
import os
import re
from fractions import Fraction as F

import numpy as np
import pytest

from polystokes import fixtures as fx
from polystokes.edge_pencil import MuValue
from polystokes.geometry import BoundaryAssignment, load_polyhedron
from polystokes.regularity import (DataFlags, Interval, ProblemSpec,
                                   RegularityQuery, RegularityReport, check,
                                   decision_table, matching_rows, max_s,
                                   vertex_findings)
from polystokes.spaces import Eps, as_eps
from polystokes.vertex_pencil import INF

from conftest import ALL_FLAGS
from test_golden_reports import library_specs

DOMAINS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "domains")


@pytest.fixture(scope="module")
def step_slip(step):
    # slip on the wall that carries the reentrant 3*pi/2 edge, velocity elsewhere
    bc_values = {}
    reentrant = [e for e in step.edges if e.theta > math.pi][0]
    slip_face = reentrant.adjacent_faces[0]
    return ProblemSpec(step, fx.with_conditions(step, 0, {slip_face: 2}), ALL_FLAGS)


# -- first-order checks --------------------------------------------------------------

def test_step_first_order_point_checks(step_dirichlet):
    assert check(step_dirichlet, RegularityQuery("W1", s=F(4))).verdict == "holds"
    assert check(step_dirichlet, RegularityQuery("W1", s=F(9, 2))).verdict == "fails"
    assert check(step_dirichlet, RegularityQuery("W1", s=F(6, 5))).verdict == "fails"


def test_report_records_every_edge_and_vertex(step_dirichlet, step):
    rep = check(step_dirichlet, RegularityQuery("W1", s=F(4)))
    assert len(rep.edges) == len(step.edges)
    assert len(rep.vertices) == len(step.vertices)
    assert all(e.satisfied for e in rep.edges)
    assert all(v.satisfied for v in rep.vertices)


def test_missing_data_flag_gives_unknown(step):
    spec = ProblemSpec(step, fx.with_conditions(step, 0), DataFlags())
    rep = check(spec, RegularityQuery("W1", s=F(4)))
    assert rep.verdict == "unknown"
    assert any("not asserted" in n for n in rep.notes)


def test_s_beyond_the_float_range_is_refused(cube_dirichlet):
    # the report carries s as a float: an s with no float value is an input error
    with pytest.raises(ValueError, match="float range"):
        RegularityQuery("W1", s=F(10) ** 309)
    assert check(cube_dirichlet, RegularityQuery("W1", s=F(10) ** 308)).verdict == "holds"


# -- second-order checks -------------------------------------------------------------

def test_step_second_order_thresholds(step_dirichlet):
    assert check(step_dirichlet, RegularityQuery("W2", s=F(137, 100))).verdict == "holds"
    assert check(step_dirichlet, RegularityQuery("W2", s=F(139, 100))).verdict == "fails"


def test_convex_second_order(cube_dirichlet):
    assert check(cube_dirichlet, RegularityQuery("W2", s=F(2))).verdict == "holds"
    # at s = 3 the required strip reaches the guaranteed eigenvalue at 1
    rep = check(cube_dirichlet, RegularityQuery("W2", s=F(3)))
    assert rep.verdict == "fails"


def test_mixed_velocity_stress_second_order(cube_neumann_top):
    assert check(cube_neumann_top, RegularityQuery("W2", s=F(8, 7))).verdict == "holds"
    rep = check(cube_neumann_top, RegularityQuery("W2", s=F(5, 4)))
    assert rep.verdict == "fails"
    assert any("numeric pencil solve may sharpen" in n for n in rep.notes)


# -- Holder checks ---------------------------------------------------------------

def test_holder_first_order_weighted(cube_dirichlet):
    sigma = F(1, 4)
    q = RegularityQuery("C1", sigma=sigma, beta=Eps(sigma, 1), delta=0)
    assert check(cube_dirichlet, q).verdict == "holds"
    # zero weights cannot work: the strip up to 1 + sigma reaches the
    # guaranteed constant-pressure eigenvalue
    assert check(cube_dirichlet, RegularityQuery("C1", sigma=sigma)).verdict == "fails"


def test_holder_sigma_capped_by_edge_exponent():
    # convex frustum with largest opening 3*pi/4: exponents reach down to 4/3,
    # so the Holder exponent must stay below 1/3
    fr = fx.slip_frustum()
    spec = ProblemSpec(fr, fx.with_conditions(fr, 0), ALL_FLAGS)
    good = RegularityQuery("C1", sigma=F(3, 10), beta=Eps(F(3, 10), 1), delta=0)
    bad = RegularityQuery("C1", sigma=F(2, 5), beta=Eps(F(2, 5), 1), delta=0)
    assert check(spec, good).verdict == "holds"
    assert check(spec, bad).verdict == "fails"


def test_holder_excluded_resonance(cube_dirichlet):
    sigma = F(1, 4)
    q = RegularityQuery("C1", sigma=sigma, beta=Eps(sigma, 1), delta=sigma)
    assert check(cube_dirichlet, q).verdict == "fails"


def test_holder_sigma_must_be_fractional(cube_dirichlet):
    with pytest.raises(ValueError):
        RegularityQuery("C1", sigma=1.0)


def test_holder_second_order(cube_dirichlet):
    sigma = F(1, 4)
    q = RegularityQuery("C2", sigma=sigma, beta=Eps(sigma, 1), delta=F(3, 2))
    # edges: 2 - mu = 0 < delta - sigma = 5/4 < 2, resonances avoided,
    # vertices: strip up to 2 + sigma - beta = 2 - eps needs more than R2 gives
    rep = check(cube_dirichlet, q)
    assert rep.verdict == "fails"
    q = RegularityQuery("C2", sigma=sigma, beta=Eps(F(5, 4), 1), delta=F(3, 2))
    assert check(cube_dirichlet, q).verdict == "holds"


# -- existence ------------------------------------------------------------------

def test_existence_velocity_everywhere(cube_dirichlet):
    assert check(cube_dirichlet, RegularityQuery("EXIST", s=F(5, 2))).verdict == "holds"
    assert check(cube_dirichlet, RegularityQuery("EXIST", s=F(7, 5))).verdict == "fails"


def test_existence_mixed_fails_at_three(step_slip):
    assert check(step_slip, RegularityQuery("EXIST", s=F(29, 10))).verdict == "holds"
    rep = check(step_slip, RegularityQuery("EXIST", s=F(3)))
    assert rep.verdict == "fails"
    bad = [e for e in rep.edges if not e.satisfied]
    assert bad and all(abs(e.mu - 1 / 3) < 1e-12 for e in bad)


def test_existence_requires_velocity_adjacency(cube):
    spec = ProblemSpec(cube, fx.with_conditions(cube, 3), ALL_FLAGS)
    with pytest.raises(ValueError, match="adjoining face"):
        check(spec, RegularityQuery("EXIST", s=F(2)))


# -- interval scans --------------------------------------------------------------

def test_step_scan_bounds(step_dirichlet):
    w1 = max_s(step_dirichlet, "W1")
    mu = 0.54448373
    assert float(w1.s_interval.hi) == pytest.approx(2 / (1 - mu), abs=1e-4)
    assert w1.s_interval.lo == F(2) and not w1.s_interval.lo_closed
    w2 = max_s(step_dirichlet, "W2")
    assert float(w2.s_interval.hi) == pytest.approx(2 / (2 - mu), abs=1e-4)
    assert float(w2.s_interval.hi) == pytest.approx(1.3740, abs=1e-4)
    assert not w2.s_interval.hi_closed
    assert w2.s_interval.lo == F(1) and not w2.s_interval.lo_closed  # no nonlinear floor
    assert "edge" in w1.binding


def test_convex_scan_unbounded(cube_dirichlet):
    w1 = max_s(cube_dirichlet, "W1")
    assert w1.s_interval.hi == INF  # no upper constraint
    # the JSON writes the unbounded end as 10**9 and reads it back unbounded
    d = json.loads(json.dumps(w1.to_dict()))
    assert d["s_interval"]["hi"] == [1000000000, 1]
    assert RegularityReport.from_dict(d).s_interval.hi == INF
    w2 = max_s(cube_dirichlet, "W2")
    assert w2.s_interval.hi == F(3) and not w2.s_interval.hi_closed


def test_convex_scan_linear_kind(cube):
    spec = ProblemSpec(cube, fx.with_conditions(cube, 0), ALL_FLAGS, kind="stokes")
    w2 = max_s(spec, "W2")
    assert w2.s_interval.lo == F(1) and w2.s_interval.hi == F(3)


def test_mixed_scan_hits_eight_thirds(step_slip):
    w1 = max_s(step_slip, "W1")
    assert w1.s_interval.hi == F(8, 3) and w1.s_interval.hi_closed


def test_mixed_existence_window(step_slip):
    ex = max_s(step_slip, "EXIST")
    assert ex.s_interval == Interval(F(3, 2), F(3), False, False)


def test_exterior_cube_generic_vertex_cap():
    # no vertex cone of an exterior domain fits a half-space, so the
    # generic strip caps the first-order scan at the closed endpoint 3
    ext = fx.cube(complement=True)
    spec = ProblemSpec(ext, fx.with_conditions(ext, 0), ALL_FLAGS)
    w1 = max_s(spec, "W1")
    assert w1.s_interval.hi == F(3) and w1.s_interval.hi_closed
    assert "vertex" in w1.binding
    assert check(spec, RegularityQuery("W1", s=F(3))).verdict == "holds"
    assert check(spec, RegularityQuery("W1", s=F(16, 5))).verdict == "fails"


def _agreement_specs():
    """Every library spec of the golden reports, the shipped domains under both
    kinds, the cube with a tangential-velocity top and the step with slip on
    face 2 (a right-angled wall).  The golden existence-only spec is left out:
    its other targets take numeric solves."""
    specs, _ = library_specs()
    for name in sorted(os.listdir(DOMAINS)):
        poly, bc, bounds = load_polyhedron(os.path.join(DOMAINS, name))
        for kind in ("navier-stokes", "stokes"):
            specs["%s:%s" % (name, kind)] = ProblemSpec(poly, bc, ALL_FLAGS, kind=kind,
                                                        vertex_bounds=bounds)
    cube, step = fx.cube(), fx.step_prism()
    specs["cube-tangential-top"] = ProblemSpec(
        cube, fx.with_conditions(cube, 0, {fx.top_face(cube): 1}), ALL_FLAGS)
    specs["step-slip-face-2"] = ProblemSpec(step, fx.with_conditions(step, 0, {2: 2}),
                                            ALL_FLAGS)
    return specs


def test_scan_matches_point_checks():
    # for every certified scan, the point check holds exactly on the interval:
    # at both ends, just inside them and above the upper end
    cases = [(name, spec, target) for name, spec in _agreement_specs().items()
             for target in ("W1", "W2", "EXIST")]
    cases += [(name, spec, "EXIST") for name, spec in library_specs()[1].items()]
    scans = 0
    for name, spec, target in cases:
        try:
            rep = max_s(spec, target)
        except ValueError:
            continue  # the existence result needs a velocity face on every edge
        if rep.verdict != "holds":
            continue
        scans += 1
        iv = rep.s_interval
        lo = F(iv.lo)
        probes = [lo, lo + F(1, 1000)]
        if iv.hi == INF:
            # unbounded above: every s holds, past 10**9 too
            far = [F(10 ** 9 + 1), F(10 ** 12)]
            assert all(iv.contains(s) for s in far), (name, target, str(iv))
            probes += far
        else:
            hi = F(iv.hi)
            probes += [hi, hi - F(1, 1000), hi + F(1, 1000), hi + F(1, 2)]
        for s in probes:
            if s > 1:
                verdict = check(spec, RegularityQuery(target, s=s)).verdict
                assert (verdict == "holds") == iv.contains(s), (name, target, str(iv), s)
    assert scans >= 40


def test_level_window_is_the_strip_condition():
    # the check decides a vertex by the level window and explains it with
    # strip_condition_holds: the two must agree at every level
    from polystokes.regularity import _level_window, _strip_for
    from polystokes.vertex_pencil import StripFinding, strip_condition_holds
    findings = {(f.free, f.exceptional) for spec in _agreement_specs().values()
                for f in vertex_findings(spec).values()}
    findings = [StripFinding(0, free, exc) for free, exc in findings]
    findings.append(StripFinding(0, None))
    # an exceptional eigenvalue on the energy line: nothing is free when the
    # strip includes the line, and it does not matter when the strip leaves it out
    findings += [StripFinding(0, Interval(F(-1), F(0), True, True), ((F(-1, 2), "on the line"),)),
                 StripFinding(0, Interval(F(-1, 2), F(1), True, False),
                              ((F(-1, 2), "on the line"), (F(1, 2), "inside")))]
    assert len(findings) >= 6
    levels = [F(k, 8) for k in range(-24, 25)] + [Eps(F(k, 2), j) for k in (-2, -1, 0, 2)
                                                  for j in (-1, 1)]
    for f in findings:
        for anchor_closed in (True, False):
            window = _level_window(f, anchor_closed)
            for level in levels:
                target = _strip_for(as_eps(level), anchor_closed)
                assert window.contains(level) == strip_condition_holds(f, target)[0], \
                    (f, anchor_closed, level)


@pytest.mark.parametrize("kind", ["navier-stokes", "stokes"])
def test_mixed_second_order_scan_is_the_class_row(step, kind):
    reentrant = [e for e in step.edges if e.theta > math.pi][0]
    spec = ProblemSpec(step, fx.with_conditions(step, 0, {reentrant.adjacent_faces[0]: 2}),
                       ALL_FLAGS, kind=kind)
    w2 = max_s(spec, "W2")
    assert w2.verdict == "holds"
    assert w2.s_interval == Interval(F(1), F(8, 7), False, True)


def test_mixed_stress_domain_second_order_scan():
    poly, bc, bounds = load_polyhedron(os.path.join(DOMAINS, "cube-mixed-stress.domain"))
    w2 = max_s(ProblemSpec(poly, bc, ALL_FLAGS, vertex_bounds=bounds), "W2")
    assert w2.verdict == "holds"
    assert w2.s_interval == Interval(F(1), F(8, 7), False, True)


def test_mixed_stress_domain_scans_start_at_an_exact_two():
    # the EXIST scan starts where the level 1 - 3/s meets the energy line
    # -1/2: at the rational 2, closed, written as W1 writes its open 2
    poly, bc, bounds = load_polyhedron(os.path.join(DOMAINS, "cube-mixed-stress.domain"))
    spec = ProblemSpec(poly, bc, ALL_FLAGS, vertex_bounds=bounds)
    exist, w1 = max_s(spec, "EXIST").s_interval, max_s(spec, "W1").s_interval
    assert exist.lo_key == (F(2), 0) and type(exist.lo) is F
    assert w1.lo_key == (F(2), 1) and type(w1.lo) is F
    assert exist.to_dict()["lo"] == w1.to_dict()["lo"] == [2, 1]


def test_tangential_velocity_top_holds_at_the_closed_end(cube):
    spec = ProblemSpec(cube, fx.with_conditions(cube, 0, {fx.top_face(cube): 1}), ALL_FLAGS)
    assert max_s(spec, "W2").s_interval == Interval(F(1), F(3, 2), False, True)
    assert check(spec, RegularityQuery("W2", s=F(3, 2))).verdict == "holds"


def test_scans_echo_missing_flags_only(cube):
    spec = ProblemSpec(cube, fx.with_conditions(cube, 0), DataFlags())
    for target in ("W1", "W2", "EXIST"):
        scan = max_s(spec, target)
        point = check(spec, RegularityQuery(target, s=F(5, 2)))
        assert scan.verdict == "unknown"
        missing = [n for n in point.notes if n.startswith("assumption not asserted: ")]
        assert missing and [n for n in scan.notes if n in missing] == missing
    asserted = ProblemSpec(cube, fx.with_conditions(cube, 0), ALL_FLAGS)
    for target in ("W1", "W2", "EXIST"):
        scan = max_s(asserted, target)
        assert not scan.assumptions
        assert not any("assumption" in n for n in scan.notes)


def test_right_angled_slip_wall_admits_two_pieces(step):
    spec = ProblemSpec(step, fx.with_conditions(step, 0, {2: 2}), ALL_FLAGS)

    def holds(s):
        return check(spec, RegularityQuery("W2", s=s)).verdict == "holds"

    # the class row (1, 8/7] below, the vertex strips from 6/5 (where the
    # level 2 - 3/s reaches -1/2) up to the reentrant edge
    assert holds(F(11, 10)) and holds(F(8, 7)) and holds(F(6, 5)) and holds(F(137, 100))
    assert not holds(F(7, 6)) and not holds(F(138, 100))
    w2 = max_s(spec, "W2")
    assert w2.verdict == "holds"
    iv = w2.s_interval
    assert iv.lo == F(6, 5) and iv.lo_closed and not iv.hi_closed
    assert float(iv.hi) == pytest.approx(1.37408, abs=1e-5)
    assert "s in (1, 8/7] is admissible too, below the reported interval" in w2.notes


def test_verdict_monotone_in_mu(step_dirichlet, monkeypatch):
    import polystokes.regularity as reg
    rng = np.random.default_rng(17)
    base_mu = reg.edge_exponent
    flips, inflated_calls = [], []
    for _ in range(50):
        s = F(int(rng.integers(21, 44)), 10)
        q = RegularityQuery("W1", s=s)
        monkeypatch.setattr(reg, "edge_exponent", base_mu)
        # a fresh spec for each check: a spec keeps the exponents it computed
        before = check(dataclasses.replace(step_dirichlet), q).verdict
        bump = float(rng.uniform(0.01, 0.8))

        def inflated(quantity, d_plus, d_minus, theta, n=32, _b=bump):
            inflated_calls.append(theta)
            mv = base_mu(quantity, d_plus, d_minus, theta, n)
            return MuValue(mv.value + _b, mv.provenance, mv.role, False, mv.note)

        monkeypatch.setattr(reg, "edge_exponent", inflated)
        after = check(dataclasses.replace(step_dirichlet), q).verdict
        if before == "holds":
            flips.append(after != "holds")
    monkeypatch.setattr(reg, "edge_exponent", base_mu)
    assert inflated_calls, "the inflated exponents were never read"
    assert not any(flips)


def test_uncertified_edge_exponent_gives_unknown(cube, monkeypatch, tmp_path, capsys):
    # cube with stress on top and bottom and slip on the sides, vertices
    # certified by user bounds (R6): only the numeric exponents of the eight
    # (2,3) edges stand between the checks and a verdict; the four slip
    # edges take the closed form
    import polystokes.edge_pencil as ep
    from polystokes.cli import main
    from polystokes.geometry import VertexBound

    def no_window(*args, **kwargs):
        raise ep.WindowError("could not certify the edge exponent up to Re = 9.83")

    monkeypatch.setattr(ep, "mu_numeric", no_window)
    bounds = {v: VertexBound(0.9, "test bound") for v in range(len(cube.vertices))}
    heights = [cube.vertices[list(loop)][:, 2].mean() for loop in cube.faces]
    bc = fx.with_conditions(cube, 2, {int(np.argmax(heights)): 3, int(np.argmin(heights)): 3})
    numeric = {e.id for e in cube.edges if 3 in bc.pair(e)}
    assert len(numeric) == 8
    spec = ProblemSpec(cube, bc, ALL_FLAGS, vertex_bounds=bounds)
    rep = check(spec, RegularityQuery("W1", s=F(5, 2)))
    assert rep.verdict == "unknown"
    assert all(v.satisfied for v in rep.vertices)
    assert all(not e.satisfied and e.mu == 0.0 and e.mu_provenance == "-"
               and "could not certify" in e.requirement for e in rep.edges if e.edge in numeric)
    assert all(e.mu_provenance == "closed-form" for e in rep.edges if e.edge not in numeric)
    scan = max_s(spec, "W1")
    assert scan.verdict == "unknown"
    assert sum("ignores this edge" in n for n in scan.notes) == len(numeric)
    # delta + 2/s < 1 needs no exponent: the lower end s > 2 stays
    assert scan.s_interval.lo == F(2) and not scan.s_interval.lo_closed
    path = tmp_path / "slip.domain"
    path.write_text(fx.domain_document(cube, bc, bounds))
    assert main(["analyze", "--input", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["w1"]["verdict"] == out["w2"]["verdict"] == "unknown"


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that logs (args, kwargs) of each call."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_exponent_per_wedge_per_spec(cube, monkeypatch, tmp_path, capsys):
    # the edges of one spec that share a wedge (the ordered pair and the exact
    # opening) share one exponent, across edges, targets and both entry points
    import polystokes.edge_pencil as ep
    from polystokes.cli import main
    roots = _counting(monkeypatch, ep, "mu_real_root")
    solves = _counting(monkeypatch, ep, "mu_numeric")
    # the exterior cube: twelve velocity edges at 3*pi/2 and the targets w1,
    # w2 (mu) and exist (lambda1), one real root per quantity
    assert main(["analyze", "--input", os.path.join(DOMAINS, "cube-exterior.domain")]) == 0
    assert [args for args, _ in roots] == [(1.5 * math.pi,)] * 2
    assert not solves
    # tangential velocity on the x and z faces, stress on the y faces: eight
    # numeric edges at pi/2, four of them (1,3) and four (3,1), one solve of
    # the sorted pair for all eight
    axis = np.argmax(np.abs(cube.face_normals), axis=1)
    bc = BoundaryAssignment(tuple(3 if a == 1 else 1 for a in axis))
    assert sorted({bc.pair(e) for e in cube.edges if 3 in bc.pair(e)}) == [(1, 3), (3, 1)]
    wedges = [(0.5 * math.pi, 1, 3)]
    path = tmp_path / "tangential-stress.domain"
    path.write_text(fx.domain_document(cube, bc))
    assert main(["analyze", "--input", str(path), "--target", "w1", "--target", "w2"]) == 0
    assert sorted(args for args, _ in solves) == wedges
    capsys.readouterr()
    # one spec, two collocation sizes: each size solved once per wedge
    solves.clear()
    spec = ProblemSpec(cube, bc, ALL_FLAGS)
    for n in (16, 24, 16, 24):
        check(spec, RegularityQuery("W1", s=F(5, 2)), numeric_n=n)
        max_s(spec, "W2", numeric_n=n)
    assert sorted((kwargs["n"], *args) for args, kwargs in solves) == sorted(
        (n, *w) for n in (16, 24) for w in wedges)
    # a window that certifies nothing is kept with its reason
    failed = []

    def no_window(*args, **kwargs):
        failed.append(args)
        raise ep.WindowError("could not certify the edge exponent up to Re = 9.83")

    monkeypatch.setattr(ep, "mu_numeric", no_window)
    spec = ProblemSpec(cube, bc, ALL_FLAGS)
    reps = [check(spec, RegularityQuery("W1", s=F(5, 2))), max_s(spec, "W1")]
    assert sorted(failed) == wedges
    uncertified = [e for rep in reps for e in rep.edges if e.mu_provenance == "-"]
    assert len(uncertified) == 16
    assert all(e.requirement == "exponent not certified: could not certify the edge "
               "exponent up to Re = 9.83" for e in uncertified)


def _by_endpoints(out, poly):
    """A JSON report with each edge named by its endpoints instead of its id,
    and the edge records in endpoint order."""
    ends = {e.id: sorted(e.endpoints) for e in poly.edges}

    def walk(x):
        if isinstance(x, dict):
            y = {k: walk(v) for k, v in x.items()}
            if isinstance(y.get("edge"), int):
                y["edge"] = ends[y["edge"]]
            if isinstance(y.get("edges"), list):
                y["edges"].sort(key=lambda r: r["edge"])
            return y
        if isinstance(x, list):
            return [walk(v) for v in x]
        # the binding names the tied edge with the lowest id, which the
        # numbering picks
        return re.sub(r"edge \d+ ", "edge ", x) if isinstance(x, str) else x

    return walk(json.loads(out))


def test_numeric_edges_ignore_the_face_order(cube, tmp_path, capsys):
    # reversing the face list renumbers the edges and swaps (1,3) and (3,1)
    # on all eight numeric edges of the tangential/stress cube; the report,
    # read by endpoints, is the same to the bit
    from polystokes.cli import main
    from polystokes.geometry import Polyhedron
    axis = np.argmax(np.abs(cube.face_normals), axis=1)
    bc = BoundaryAssignment(tuple(3 if a == 1 else 1 for a in axis))
    reversed_cube = Polyhedron(cube.vertices, cube.faces[::-1], cube.complement, cube.name)
    reversed_bc = BoundaryAssignment(tuple(bc.values())[::-1])
    pairs = {tuple(sorted(e.endpoints)): bc.pair(e) for e in cube.edges}
    swapped = [e for e in reversed_cube.edges if 3 in reversed_bc.pair(e)
               and reversed_bc.pair(e) != pairs[tuple(sorted(e.endpoints))]]
    assert len(swapped) == 8
    reports = []
    for poly, conditions in ((cube, bc), (reversed_cube, reversed_bc)):
        path = tmp_path / "domain"
        path.write_text(fx.domain_document(poly, conditions))
        assert main(["analyze", "--input", str(path), "--target", "w1", "--target", "w2",
                     "--format", "json"]) == 0
        reports.append(_by_endpoints(capsys.readouterr().out, poly))
    assert reports[0] == reports[1]
    assert [r["mu_provenance"] for r in reports[0]["w1"]["edges"]].count("numeric") == 8


def test_all_slip_cube_scan_is_exact(cube, monkeypatch):
    # the slip pair (2,2) at pi/2 has the closed form mu = 1: the W2 scan is
    # (1, 2) with rational ends, and the binding edge is named as exact, not
    # as a guaranteed bound
    import polystokes.edge_pencil as ep

    def no_solver(*args, **kwargs):
        raise AssertionError("the collocation solver was called")

    monkeypatch.setattr(ep, "eig", no_solver)
    scan = max_s(ProblemSpec(cube, fx.with_conditions(cube, 2), ALL_FLAGS), "W2")
    assert scan.s_interval == Interval(F(1), F(2), False, False)
    assert all(isinstance(x, F) for x in (scan.s_interval.lo, scan.s_interval.hi))
    assert all(e.mu_provenance == "closed-form" and e.mu == 1.0 for e in scan.edges)
    assert scan.binding.startswith("upper: edge 0 (theta=1.5708);")
    assert "guaranteed bound" not in scan.binding


@pytest.mark.parametrize("d", [2, 1])
def test_separable_tetrahedron_scan_without_solver(d, monkeypatch):
    # the all-slip and all-tangential tetrahedra: every edge opens at
    # arccos(1/3) < pi/2 and takes the second eigenvalue pi/theta - 1
    import polystokes.edge_pencil as ep

    def no_solver(*args, **kwargs):
        raise AssertionError("the collocation solver was called")

    monkeypatch.setattr(ep, "eig", no_solver)
    tet = fx.platonic("tetrahedron")
    scan = max_s(ProblemSpec(tet, fx.with_conditions(tet, d), ALL_FLAGS), "W2")
    mu = math.pi / math.acos(1 / 3) - 1
    assert all(e.mu_provenance == "closed-form" and e.mu == pytest.approx(mu, abs=1e-14)
               for e in scan.edges)
    assert scan.s_interval.hi == pytest.approx(2 / (2 - mu), abs=1e-12)


# -- the class table ------------------------------------------------------------

PINNED = {
    "velocity-any-W1": Interval(F(2), F(3), False, True),
    "velocity-convex-W2": Interval(F(1), F(2), False, True),
    "velocity-convex-W2-narrow": Interval(F(1), F(3), False, False),
    "velocity-stress-W2": Interval(F(1), F(8, 7), False, True),
    "no-stress-mixed-W1": Interval(F(2), F(8, 3), False, True),
    "existence-velocity": Interval(F(3, 2), F(3), False, False),
}


def test_table_pinned_intervals():
    table = {r.row_id: r for r in decision_table()}
    for row_id, iv in PINNED.items():
        assert table[row_id].interval == iv, row_id


def test_table_upper_endpoints_rederived():
    # independent class-bound arithmetic: the edge constraint 2/s >= order - b
    # (closed, since the exponents strictly exceed the class bound b) against
    # the vertex cap 3/(order - strip_top)
    def edge_hi(order, b):
        return F(2) / (order - b)

    table = {r.row_id: r for r in decision_table()}
    assert table["velocity-any-W1"].interval.hi == min(edge_hi(1, F(1, 2)), F(3))
    assert table["velocity-any-W2"].interval.hi == edge_hi(2, F(1, 2))
    assert table["velocity-convex-W2"].interval.hi == edge_hi(2, F(1))
    assert table["velocity-stress-W2"].interval.hi == edge_hi(2, F(1, 4))
    assert table["no-stress-mixed-W1"].interval.hi == edge_hi(1, F(1, 4))
    assert table["no-stress-mixed-W2"].interval.hi == edge_hi(2, F(1, 4))
    # convex narrow: the edge cap 2/(2-4/3) = 3 is closed, but the vertex
    # eigenvalue at 1 caps 2 - 3/s strictly below 1: open endpoint 3
    assert table["velocity-convex-W2-narrow"].interval == Interval(F(1), F(3), False, False)
    # existence: the window around the first eigenvalue with the attainable
    # class bound 1/3 must stay strict on both sides
    b = F(1, 3)
    assert table["existence-velocity"].interval == \
        Interval(F(2) / (1 + b), F(2) / (1 - b), False, False)


def test_matching_rows(cube_dirichlet, step_dirichlet, cube_neumann_top):
    ids = {r.row_id for r in matching_rows(cube_dirichlet)}
    assert {"velocity-any-W1", "velocity-convex-W1", "velocity-convex-W2",
            "velocity-convex-W2-narrow", "existence-velocity"} <= ids
    ids = {r.row_id for r in matching_rows(step_dirichlet)}
    assert "velocity-convex-W2" not in ids
    assert "velocity-any-W1" in ids
    ids = {r.row_id for r in matching_rows(cube_neumann_top)}
    assert "velocity-stress-W2" in ids


def test_slip_class_rows():
    fr = fx.slip_frustum()
    spec = ProblemSpec(fr, fx.with_conditions(fr, 0, {fx.top_face(fr): 2}), ALL_FLAGS)
    ids = {r.row_id for r in matching_rows(spec)}
    assert "slip-one-face-W2" in ids
    assert check(spec, RegularityQuery("W2", s=F(2))).verdict == "holds"


# -- report plumbing ------------------------------------------------------------

def test_report_roundtrip(step_dirichlet):
    rep = max_s(step_dirichlet, "W1")
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    back = RegularityReport.from_dict(json.loads(blob))
    assert back.to_dict() == rep.to_dict()


def test_reports_deterministic(step_dirichlet):
    a = json.dumps(check(step_dirichlet, RegularityQuery("W1", s=F(4))).to_dict(), sort_keys=True)
    b = json.dumps(check(step_dirichlet, RegularityQuery("W1", s=F(4))).to_dict(), sort_keys=True)
    assert a == b


def test_sharpness_annotations(step_dirichlet, cube_dirichlet):
    w2 = check(step_dirichlet, RegularityQuery("W2", s=F(137, 100)))
    assert any("cannot be weakened" in s for s in w2.sharp)
    w1 = check(step_dirichlet, RegularityQuery("W1", s=F(4)))
    assert any("sharp" in s for s in w1.sharp)
    ex = check(cube_dirichlet, RegularityQuery("EXIST", s=F(5, 2)))
    assert ex.sharp == []
