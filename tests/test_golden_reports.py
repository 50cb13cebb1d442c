"""Golden digests of the regularity reports.

Every case below is hashed (sha256) and compared with ``golden/reports.json``.
CLI cases hash the printed output; library cases hash
``json.dumps(report.to_dict(), sort_keys=True)`` (or the message of the
expected ``ValueError``).  A refactor of the decision code must leave every
digest unchanged.  No case may reach the QZ solver, so the digests do not
depend on the LAPACK build.

Regenerate the file only for an intended, reviewed change of the reports:

    PYTHONPATH=src python tests/test_golden_reports.py

It prints the name of every case whose digest differs from the file it
replaces, so that a visible change can list them.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from fractions import Fraction as F

import pytest

from polystokes import cli, edge_pencil
from polystokes import fixtures as fx
from polystokes.geometry import VertexBound
from polystokes.regularity import (DataFlags, ProblemSpec, RegularityQuery,
                                   check, max_s)
from polystokes.spaces import Eps

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "reports.json")
DOMAINS = sorted(f for f in os.listdir(os.path.join(REPO, "domains"))
                 if f.endswith(".domain"))

ALL_TARGETS = ["--target", "w1", "--target", "w2", "--target", "c1",
               "--target", "c2", "--target", "exist"]
FLAGS = DataFlags(data_in_required_spaces=True, compatibility_conditions_hold=True,
                  small_data=True, lipschitz_graph=True)


def _cli_cases():
    variants = {
        "scan-text": [],
        "scan-json": ["--format", "json"],
    }
    for s in ("11/10", "8/7", "3/2", "5/2", "7/2"):
        variants["point-" + s.replace("/", "_")] = ALL_TARGETS + [
            "--s", s, "--sigma", "0.5", "--format", "json"]
    variants["weighted"] = ALL_TARGETS + [
        "--s", "5/2", "--sigma", "0.3", "--beta", "1/2", "--delta", "1/4",
        "--format", "json"]
    variants["resonance"] = ["--target", "c1", "--target", "c2", "--sigma", "0.25",
                             "--delta", "0.25", "--format", "json"]
    variants["negative-delta"] = ["--target", "c1", "--sigma", "0.5",
                                  "--delta=-1/4", "--format", "json"]
    variants["stokes-lipschitz"] = ALL_TARGETS + [
        "--kind", "stokes", "--sigma", "0.5",
        "--assume", "data,compatibility,small-data,lipschitz", "--format", "json"]
    cases = {}
    for name in DOMAINS:
        path = os.path.join(REPO, "domains", name)
        for key, extra in variants.items():
            argv = ["analyze", "--input", path] + extra
            cases["cli:%s:%s" % (name[:-len(".domain")], key)] = (
                lambda argv=argv: _run_cli(argv))
    return cases


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue()


def _report(fn, *args):
    try:
        rep = fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc
    return json.dumps(rep.to_dict(), sort_keys=True)


def _spec(poly, default=0, overrides=None, flags=FLAGS, **kw):
    return ProblemSpec(poly, fx.with_conditions(poly, default, overrides), flags, **kw)


def library_specs():
    """(specs for every target, specs for the existence target only)."""
    tet = fx.platonic("tetrahedron")
    cube = fx.cube()
    ext = fx.cube(complement=True)
    step = fx.step_prism()
    reentrant = [e for e in step.edges if e.theta > math.pi][0]
    specs = {
        # rule R3: stress everywhere on a Lipschitz-graph solid
        "stress-tetrahedron": _spec(tet, 3),
        "stress-cube-no-lipschitz": _spec(cube, 3, flags=DataFlags(True, True, small_data=True)),
        # rule R6: a user bound at one exterior corner, the generic strip elsewhere
        "override-exterior-cube": _spec(ext, vertex_bounds={
            0: VertexBound(0.317, "external table"), 5: VertexBound(1.2)}),
        # class-row widening of the scan: slip on the reentrant wall
        "step-slip": _spec(step, 0, {reentrant.adjacent_faces[0]: 2}),
        "step-slip-stokes": _spec(step, 0, {reentrant.adjacent_faces[0]: 2}, kind="stokes"),
        "step-dirichlet": _spec(step),
        "cube-dirichlet": _spec(cube),
        "cube-dirichlet-no-flags": _spec(cube, flags=DataFlags()),
        "cube-stress-top": _spec(cube, 0, {fx.top_face(cube): 3}),
        "frustum-slip-top": _spec(fx.slip_frustum(), 0, {fx.top_face(fx.slip_frustum()): 2}),
    }
    # no velocity face on some edges: the existence result does not apply (the
    # other targets would need numeric exponents for the slip/stress edges)
    only_exist = {"cube-slip-stress": _spec(cube, 3, {fx.top_face(cube): 2})}
    return specs, only_exist


def _library_calls():
    """(case name, function, spec, query or target) of every library case."""
    specs, only_exist = library_specs()
    queries = {
        "W1-5_2": RegularityQuery("W1", s=F(5, 2)),
        "W1-11_10": RegularityQuery("W1", s=F(11, 10)),
        "W2-8_7": RegularityQuery("W2", s=F(8, 7)),
        "W2-7_5": RegularityQuery("W2", s=F(7, 5)),
        # weights around the second-order nonlinear weight floor
        "W2-beta-low": RegularityQuery("W2", s=F(2), beta=F(-1, 2)),
        "W2-beta-high": RegularityQuery("W2", s=F(2), beta=F(3, 2), delta=F(1, 2)),
        "W2-beta-eps": RegularityQuery("W2", s=F(3, 2), beta=Eps(F(1, 2), 1)),
        "C1-0.25": RegularityQuery("C1", sigma=F(1, 4)),
        "C1-eps": RegularityQuery("C1", sigma=F(1, 4), beta=Eps(F(1, 4), 1)),
        "C1-beta-cap": RegularityQuery("C1", sigma=F(1, 4), beta=F(2)),
        "C2-resonance": RegularityQuery("C2", sigma=F(1, 4), beta=Eps(F(5, 4), 1),
                                        delta=F(5, 4)),
        "C2-3_2": RegularityQuery("C2", sigma=F(1, 4), beta=Eps(F(5, 4), 1), delta=F(3, 2)),
        "C2-beta-cap": RegularityQuery("C2", sigma=F(1, 2), beta=F(7, 2)),
        "EXIST-5_2": RegularityQuery("EXIST", s=F(5, 2)),
        "EXIST-3": RegularityQuery("EXIST", s=F(3)),
        # the three existence floors: s > 3/2, beta + 3/s <= 2, delta + 3/s <= 2
        "EXIST-7_5": RegularityQuery("EXIST", s=F(7, 5)),
        "EXIST-floors": RegularityQuery("EXIST", s=F(2), beta=F(3, 4), delta=F(1)),
        "EXIST-weighted": RegularityQuery("EXIST", s=F(3), beta=F(1, 2), delta=F(1, 4)),
    }
    for sname, spec in list(specs.items()) + list(only_exist.items()):
        targets = ("EXIST",) if sname in only_exist else ("W1", "W2", "C1", "C2", "EXIST")
        for qname, q in queries.items():
            if q.target in targets:
                yield "lib:%s:check:%s" % (sname, qname), check, spec, q
        for target in ("W1", "W2", "EXIST"):
            if target in targets:
                yield "lib:%s:max_s:%s" % (sname, target), max_s, spec, target


def _library_cases():
    return {name: (lambda fn=fn, spec=spec, arg=arg: _report(fn, spec, arg))
            for name, fn, spec, arg in _library_calls()}


def all_cases():
    cases = _cli_cases()
    cases.update(_library_cases())
    return cases


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CASES = all_cases()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def no_qz(monkeypatch):
    calls = []
    real = edge_pencil.eig

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(edge_pencil, "eig", counting)
    yield calls
    assert not calls, "a golden case reached the QZ solver"


def test_golden_cases_match_the_file(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, golden, no_qz):
    assert digest(CASES[case]()) == golden[case], case


def test_to_dict_covers_every_field(no_qz):
    # the report builds its edge and vertex records field by field: a field
    # added later must reach the JSON too
    reports = []
    for _, fn, spec, arg in _library_calls():
        try:
            reports.append(fn(spec, arg))
        except ValueError:  # the cases whose golden digest is the error message
            pass
    records = [(x, d) for rep in reports
               for x, d in zip(rep.edges + rep.vertices,
                               rep.to_dict()["edges"] + rep.to_dict()["vertices"])]
    assert len(records) == sum(len(rep.edges) + len(rep.vertices) for rep in reports) > 0
    assert all(d == dataclasses.asdict(x) for x, d in records)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            before = json.load(fh)
    except FileNotFoundError:
        before = {}
    out = {case: digest(fn()) for case, fn in sorted(CASES.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    changed = sorted(c for c in out.keys() | before.keys() if out.get(c) != before.get(c))
    for case in changed:
        print(case)
    print("%d digests written to %s, %d differ from the file they replace"
          % (len(out), GOLDEN, len(changed)))
