import contextlib
import gc
import glob
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polystokes import edge_pencil
from polystokes import fixtures as fx
from polystokes.cli import (FixtureRow, _join_negative_weights, build_parser, main,
                            verification_rows, parse_theta, run_fixture_rows)
from polystokes.edge_pencil import DihedronPencil, pencil_residual
from polystokes.geometry import BoundaryAssignment, VertexBound


@pytest.fixture(scope="module")
def step_file(tmp_path_factory):
    step = fx.step_prism()
    mu = 0.54448373
    bounds = {v: VertexBound((3 * mu - 1) / 2,
                             "enclosing circular cone of aperture 3*pi/2")
              for v in range(len(step.vertices))}
    path = tmp_path_factory.mktemp("domains") / "step.domain"
    path.write_text(fx.domain_document(step, fx.with_conditions(step, 0), bounds))
    return str(path)


def test_parse_theta_forms():
    assert parse_theta("1.5*pi") == pytest.approx(1.5 * math.pi, abs=0)
    assert parse_theta("pi/2") == pytest.approx(math.pi / 2, abs=0)
    assert parse_theta("3*pi/2") == pytest.approx(1.5 * math.pi, abs=0)
    assert parse_theta("pi") == math.pi
    assert parse_theta("2.5") == 2.5
    with pytest.raises(ValueError):
        parse_theta("two pi")
    with pytest.raises(ValueError, match="divisor is zero"):
        parse_theta("pi/0")


def test_pencil_text_output(capsys):
    assert main(["pencil", "--theta", "1.5*pi", "--bc", "0,0", "--window", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "0.544483736" in out


def test_pencil_stress_pair_shares_root(capsys):
    assert main(["pencil", "--theta", "1.5*pi", "--bc", "3,3", "--window", "0.1,1",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    res = [row["re"] for row in data["eigenvalues"]]
    assert min(abs(r - 0.54448373) for r in res) < 1e-6


def test_pencil_rejects_zero_angle(capsys):
    cases = ([["--theta", "0"], ["--theta", "pi/0"]]
             + [["--window", w] for w in ("2,1", "1,1", "0,inf", "nan,1")]
             + [["--n", "4"]])
    for extra in cases:
        assert main(["pencil", "--theta", "pi/2", "--bc", "0,0"] + extra) == 1, extra
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("argument error: "), extra


def test_pencil_window_error_is_an_argument_error(capsys):
    # a finite window this wide puts every shift on the spectrum
    assert main(["pencil", "--theta", "1.5*pi", "--bc", "0,0", "--window", "0,1e200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("argument error: --window '0,1e200': every shift tried")


def test_pencil_overflowing_shift_is_a_window_error(capsys):
    # a finite window whose midpoint overflows: the shifted pencil is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pencil", "--theta", "1", "--bc", "0,0", "--window=1e308,1.7e308"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("argument error: --window '1e308,1.7e308': the shift inf overflows")


# the pairs whose antiplane block is solved in lam^2: at --window 0,1e160 the
# shift 5e+159 squares past the float range, which used to raise OverflowError
_SQUARED_SHIFT_PAIRS = ["0,0", "0,2", "0,3", "2,0", "2,2", "2,3", "3,0", "3,2", "3,3"]


@pytest.mark.parametrize("bc", _SQUARED_SHIFT_PAIRS)
def test_pencil_squared_shift_past_the_float_range_is_a_window_error(capsys, bc):
    assert main(["pencil", "--theta", "1.3*pi", "--bc", bc, "--window", "0,1e160"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("argument error: --window '0,1e160': the shift 5e+159 overflows "
                          "the shifted pencil")


@pytest.mark.parametrize("bc", ["1,1", "1,3", "3,1"])
def test_pencil_non_finite_inverse_is_a_window_error(capsys, bc):
    # the shifted pencil stays finite, its inverse does not: the eigensolve
    # used to refuse it, and the refusal named --theta
    assert main(["pencil", "--theta", "1.3*pi", "--bc", bc, "--window", "0,1e160"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("argument error: --window '0,1e160': the shift ")
    assert "overflows the inverted pencil" in err


# the remaining pairs at --window 0,1e160: every shift collides with values
# that rounding alone puts next to it, which used to be reported as every
# shift lying on the spectrum
@pytest.mark.parametrize("bc", ["0,1", "1,0", "1,2", "2,1"])
def test_pencil_shift_among_rounding_noise_is_a_window_error(capsys, bc):
    assert main(["pencil", "--theta", "1.3*pi", "--bc", bc, "--window", "0,1e160"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("argument error: --window '0,1e160': the shift ")
    assert err.endswith(" collides with rounding noise, not with an eigenvalue: the strip is too "
                        "far out\n")


@settings(deadline=None)
@given(theta=st.one_of(st.floats(1e-300, 2 * math.pi, exclude_max=True).map(repr),
                       st.integers(1, 1999).map(lambda k: "%d.%03d*pi" % divmod(k, 1000))),
       pair=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       ends=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True).map(sorted),
       n=st.sampled_from([8, 16]))
def test_pencil_query_names_the_faulty_argument(theta, pair, ends, n):
    # whatever the opening, pair and finite window, a pencil query answers or
    # refuses one argument: the window, or an opening too small to collocate
    argv = ["pencil", "--theta", theta, "--bc", "%d,%d" % pair,
            "--window=%r,%r" % tuple(ends), "--n", str(n), "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1), argv
    if code == 1:
        err = err.getvalue()
        assert err.startswith("argument error: --window ") or (
            err.startswith("argument error: --theta ") and "is too small" in err), (argv, err)


@pytest.mark.parametrize("extra,message", [
    (["--bc", "0,1,2"], "--bc '0,1,2': expected two values separated by a comma, got 3"),
    (["--bc", "x"], "--bc 'x': expected two values separated by a comma, got 1"),
    (["--bc", "x,1"], "--bc 'x,1': invalid literal for int() with base 10: 'x'"),
    (["--window", "0,2,3"], "--window '0,2,3': expected two values separated by a comma, got 3"),
    (["--window", "a,b"], "--window 'a,b': could not convert string to float: 'a'"),
    (["--theta", "1.2.3*pi"], "--theta '1.2.3*pi': could not convert string to float: '1.2.3'"),
    (["--theta", "two pi"], "--theta 'two pi': cannot parse angle"),
    (["--theta", "7"], "--theta '7': theta must lie in (0, 2*pi), got 7.0"),
    (["--bc", "5,0"], "--bc '5,0': condition index must be 0..3, got 5")])
def test_pencil_argument_error_names_the_option(capsys, extra, message):
    assert main(["pencil", "--theta", "1.3*pi", "--bc", "1,3"] + extra) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("argument error: " + message), err


def test_pencil_lists_each_unresolved_value_once(capsys):
    # at this opening and size copies of 0.5 and 1.5 fail to reproduce under
    # refinement, several copies of each; three copies of 1 reproduce and a
    # fourth, at 1.0000017, does not: that copy of a kept value is not listed
    # as unresolved, and the multiplicity counts the reproduced copies
    argv = ["pencil", "--theta", "6.28318", "--bc", "3,3", "--n", "8"]
    assert main(argv + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    unresolved = [complex(*z) for z in out["unresolved"]]
    assert any(abs(z - 1.5) < 1e-6 for z in unresolved)
    assert unresolved == sorted(unresolved, key=lambda z: (z.real, z.imag))
    assert all(abs(a - b) > 10 * edge_pencil._STAB_TOL for a, b in zip(unresolved, unresolved[1:]))
    kept = {complex(row["re"], row["im"]): row["multiplicity"] for row in out["eigenvalues"]}
    assert [m for z, m in kept.items() if abs(z - 1) < 1e-6] == [3]
    assert all(abs(u - k) > 10 * edge_pencil._STAB_TOL for u in unresolved for k in kept)
    assert main(argv) == 0
    assert "unresolved under refinement: 1+0j" not in capsys.readouterr().out


def test_pencil_tiny_opening_is_an_argument_error(capsys):
    # at this opening the collocated derivatives overflow to inf
    assert main(["pencil", "--theta", "1e-300", "--bc", "0,0"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("argument error: --theta '1e-300': opening 1e-300 is too small")


def test_analyze_rejects_small_collocation(tmp_path, capsys):
    # slip on five faces and stress on the top: a pair that takes the solver
    cube = fx.cube()
    path = tmp_path / "slip-stress.domain"
    bc = fx.with_conditions(cube, 2, {fx.top_face(cube): 3})
    path.write_text(fx.domain_document(cube, bc))
    assert main(["analyze", "--input", str(path), "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: --n 4 ")


def test_verify_paper_rejects_small_collocation(capsys):
    assert main(["verify-paper", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("argument error: --n 4 ")


def test_analyze_text(step_file, capsys):
    assert main(["analyze", "--input", step_file]) == 0
    out = capsys.readouterr().out
    assert "4.3906" in out
    assert "1.374" in out


def test_analyze_json_roundtrip(step_file, capsys):
    assert main(["analyze", "--input", step_file, "--format", "json"]) == 0
    blob = capsys.readouterr().out
    data = json.loads(blob)
    from polystokes.regularity import RegularityReport
    assert "class_results" in data and data["class_results"]
    for key, rep in data.items():
        if key == "class_results":
            continue
        back = RegularityReport.from_dict(rep)
        assert back.to_dict() == rep


def test_shared_parser_carries_no_state(step_file, capsys):
    from polystokes.cli import build_parser
    assert build_parser() is build_parser()
    assert main(["analyze", "--input", step_file, "--target", "w1", "--format", "json"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["class_results", "w1"]
    # the default targets, not the list the call before appended to
    assert main(["analyze", "--input", step_file, "--format", "json"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)) == ["class_results", "exist", "w1", "w2"]
    with pytest.raises(SystemExit):
        main(["analyze", "--target", "w2"])  # no --input
    assert "--input" in capsys.readouterr().err
    assert main(["analyze", "--input", step_file, "--target", "w2", "--s", "5/4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("domain: ") and "w2: " in out and "w1: " not in out


def test_analyze_point_check(step_file, capsys):
    assert main(["analyze", "--input", step_file, "--target", "w1", "--s", "4"]) == 0
    assert "holds" in capsys.readouterr().out


def test_analyze_reports_class_results(tmp_path, capsys):
    cube = fx.cube()
    path = tmp_path / "cube.domain"
    path.write_text(fx.domain_document(cube, fx.with_conditions(cube, 0)))
    assert main(["analyze", "--input", str(path), "--target", "w2"]) == 0
    out = capsys.readouterr().out
    assert "(1, 2]" in out  # the convex second-order class interval
    assert "velocity-convex-W2" in out


def test_analyze_malformed_file(tmp_path, capsys, malformed_cube_documents):
    bad = tmp_path / "bad.domain"
    for text, message in [("vertices: [[0,0,0]]\n", "missing required field")] + \
            malformed_cube_documents:
        bad.write_text(text)
        assert main(["analyze", "--input", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and message in err


def test_analyze_non_utf8_file_is_input_error(tmp_path, cube_file, capsys):
    path = tmp_path / "utf16.domain"
    with open(cube_file, encoding="utf-8") as fh:
        path.write_bytes(fh.read().encode("utf-16"))  # starts with the bytes ff fe
    assert main(["analyze", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("input error: domain file is not UTF-8 text: ")


def test_analyze_bad_mesh_diagnostic(tmp_path, capsys):
    degenerate = (
        "vertices: [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]\n"
        "faces:\n"
        "  - {loop: [0, 1], bc: dirichlet}\n"
        "  - {loop: [0, 1, 2], bc: dirichlet}\n"
        "  - {loop: [0, 2, 3], bc: dirichlet}\n"
        "  - {loop: [1, 3, 2], bc: dirichlet}\n")
    # a unit cube with an extra vertex at (0.5, 0, 0) in its bottom and front loops
    two_faced = (
        "vertices: [[0,0,0],[1,0,0],[1,1,0],[0,1,0],"
        "[0,0,1],[1,0,1],[1,1,1],[0,1,1],[0.5,0,0]]\n"
        "faces:\n"
        "  - {loop: [0, 3, 2, 1, 8], bc: dirichlet}\n"
        "  - {loop: [4, 5, 6, 7], bc: dirichlet}\n"
        "  - {loop: [0, 8, 1, 5, 4], bc: dirichlet}\n"
        "  - {loop: [3, 7, 6, 2], bc: dirichlet}\n"
        "  - {loop: [0, 4, 7, 3], bc: dirichlet}\n"
        "  - {loop: [1, 2, 6, 5], bc: dirichlet}\n")
    for text, message in ((degenerate, "degenerate"),
                          (two_faced, "vertex 8 has fewer than 3 incident faces")):
        bad = tmp_path / "bad.domain"
        bad.write_text(text)
        assert main(["analyze", "--input", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and message in err


def test_fixture_rows_closed_form_fast():
    rows = [r for r in verification_rows() if r.closed_form]
    results, ok = run_fixture_rows(rows, n=8)
    assert ok  # closed-form rows do not depend on the collocation size


def test_perturbed_fixture_detected():
    rows = [r for r in verification_rows() if r.closed_form][:3]
    rows[0] = FixtureRow(rows[0].name, rows[0].compute,
                         float(rows[0].expected) + 1e-3, rows[0].tol)
    results, ok = run_fixture_rows(rows, n=8)
    assert not ok
    assert results[0]["pass"] is False
    assert all(r["pass"] for r in results[1:])


@pytest.fixture(scope="module")
def cube_file(tmp_path_factory):
    cube = fx.cube()
    path = tmp_path_factory.mktemp("domains") / "cube.domain"
    path.write_text(fx.domain_document(cube, fx.with_conditions(cube, 0)))
    return str(path)


_BAD_QUERIES = (
    [(["--target", t, "--s", "1"], "s > 1") for t in ("w1", "w2", "exist")]
    + [(["--target", t, "--sigma", "1.5"], "sigma in (0, 1)") for t in ("c1", "c2")]
    + [(["--target", t, "--s", "abc"], "abc") for t in ("w1", "w2", "exist")]
    + [(["--target", t, "--s", "5/2", "--sigma", "0.5", "--beta", "1,2"],
        "one entry per vertex") for t in ("w1", "w2", "c1", "c2", "exist")]
    # the interval scan is unweighted: weights without --s are refused
    + [(["--target", t, "--beta", "1/2"], "--beta/--delta need --s")
       for t in ("w1", "w2", "exist")]
    + [(["--delta", "1/4"], "--beta/--delta need --s"),
       (["--target", "c1", "--target", "w1", "--sigma", "0.5", "--beta", "1/2"],
        "--beta/--delta need --s"),
       (["--target", "w1", "--beta", "1,2", "--delta", "abc"], "--delta: 'abc'"),
       (["--target", "w2", "--s", "1/0"], "--s: '1/0'"),
       (["--target", "c1", "--sigma", "abc"], "--sigma: 'abc'"),
       (["--target", "c2", "--sigma", "1/0"], "--sigma: '1/0'")]
    # a nan tolerance would pass every mesh check
    + [(["--tol", tol], "tol must be a finite number >= 0, got %s" % shown)
       for tol, shown in (("nan", "nan"), ("-1", "-1.0"), ("inf", "inf"))]
    # a misspelt assumption or target is refused, never dropped
    + [(["--assume", assume], "--assume: unknown assumption 'lipshitz' (accepted: data, "
        "compatibility, small-data, lipschitz)")
       for assume in ("lipshitz", "data, lipshitz", "lipshitz,data,bogus")]
    + [(["--target", "w1", "--target", "foo"],
        "--target: unknown target 'foo' (accepted: w1, w2, c1, c2, exist)")])


@pytest.mark.parametrize("extra,message", _BAD_QUERIES)
def test_analyze_bad_query_is_input_error(cube_file, capsys, extra, message):
    assert main(["analyze", "--input", cube_file] + extra) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and message in err


def test_analyze_assumptions_are_stripped(cube_file, capsys):
    # spaces around an entry do not matter, and an empty list asserts nothing
    outs = []
    for assume in ("data,lipschitz", " data , lipschitz ", "", ",", " "):
        assert main(["analyze", "--input", cube_file, "--target", "w1",
                     "--assume", assume, "--format", "json"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0] == outs[1] and outs[2] == outs[3] == outs[4]
    assert "assumption not asserted: data in the required spaces" not in outs[0]["w1"]["notes"]
    assert "assumption not asserted: data in the required spaces" in outs[2]["w1"]["notes"]


_UNCONFIRMED = ("vertex 8: graph-direction heuristic could not confirm the Lipschitz "
                "assumption at this vertex")


@pytest.fixture(scope="module")
def crossed_boxes_file(tmp_path_factory, crossed_boxes):
    path = tmp_path_factory.mktemp("domains") / "crossed-boxes.domain"
    path.write_text(fx.domain_document(crossed_boxes, fx.with_conditions(crossed_boxes, 3)))
    return str(path)


def test_unconfirmed_lipschitz_vertex_is_noted(crossed_boxes_file, capsys):
    # the flag is honored, so the verdicts stand, and every report names the
    # vertex (1,1,1), where the heuristic cannot confirm it
    argv = ["analyze", "--input", crossed_boxes_file, "--kind", "stokes",
            "--assume", "data,compatibility,small-data,lipschitz"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "w1: holds  admissible s in (2, 3)" in out
    assert "w2: holds  admissible s in (1, 1.37408)" in out
    assert out.count("   note: %s\n" % _UNCONFIRMED) == 2
    assert out.count("graph-direction") == 2
    assert main(argv + ["--format", "json"]) == 0
    scans = json.loads(capsys.readouterr().out)
    checks = []
    for extra in (["--target", "w1", "--target", "w2", "--s", "5/2"],
                  ["--target", "c1", "--target", "c2", "--sigma", "1/4"]):
        assert main(argv + extra + ["--format", "json"]) == 0
        checks.append(json.loads(capsys.readouterr().out))
    reports = [scans["w1"], scans["w2"], checks[0]["w1"], checks[0]["w2"],
               checks[1]["c1"], checks[1]["c2"]]
    assert [r["verdict"] for r in reports[:2]] == ["holds", "holds"]
    for r in reports:
        assert [n for n in r["notes"] if "graph-direction" in n] == [_UNCONFIRMED], r


def test_analyze_sigma_is_exact_rational(cube_file, capsys):
    # --sigma 1/4 is the rational 1/4, so delta = 1/4 is the resonance delta = sigma
    assert main(["analyze", "--input", cube_file, "--target", "c1", "--sigma", "1/4",
                 "--delta", "1/4", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)["c1"]
    assert rep["verdict"] == "fails" and rep["sigma"] == 0.25
    assert {e["requirement"] for e in rep["edges"]} == {
        "delta equals an excluded resonance value"}


@pytest.mark.parametrize("sigma, delta", [("0.1", "1/10"), ("1/10", "0.1")])
def test_analyze_decimals_are_exact_rationals(cube_file, capsys, sigma, delta):
    # a decimal is the rational it writes: 0.1 meets 1/10 at the resonance delta = sigma
    def report(sigma_text, delta_text):
        assert main(["analyze", "--input", cube_file, "--target", "c1", "--sigma", sigma_text,
                     "--delta", delta_text, "--format", "json"]) == 0
        return capsys.readouterr().out

    out = report(sigma, delta)
    assert out == report("1/10", "1/10")
    assert {e["requirement"] for e in json.loads(out)["c1"]["edges"]} == {
        "delta equals an excluded resonance value"}


@pytest.mark.parametrize("text", ["inf", "nan"])
def test_analyze_non_finite_s_is_input_error(cube_file, capsys, text):
    assert main(["analyze", "--input", cube_file, "--target", "w1", "--s", text]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: --s: %r" % text)


@pytest.mark.parametrize("text", ["1e-10000",
                                  "0." + "0" * (sys.get_int_max_str_digits() - 1) + "1"])
def test_analyze_overlong_number_is_input_error(cube_file, capsys, text):
    # the reports print every number: a denominator past the int-string limit
    # is refused up front, not a traceback from the report text
    assert main(["analyze", "--input", cube_file, "--target", "c1", "--sigma", text,
                 "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: --sigma: ") and "int-string limit" in err


def test_analyze_overlong_decimal_is_echoed_short(cube_file, capsys):
    # a digit string past the limit fails inside Fraction itself: the message
    # names the limit and echoes a prefix and the length, not the whole text
    text = "0." + "0" * 4400 + "1"
    assert main(["analyze", "--input", cube_file, "--target", "c1", "--sigma", text]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err) < 200
    assert err.startswith("input error: --sigma: '0.000")
    assert "(%d characters)" % len(text) in err
    assert "int-string limit (%d)" % sys.get_int_max_str_digits() in err


SHIPPED_CUBE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "domains", "cube.domain")


@pytest.mark.parametrize("target", ["w1", "exist"])
@pytest.mark.parametrize("s", ["1000000001", "1000000000000", "1e308"])
def test_analyze_unbounded_scan_holds_far_up(capsys, target, s):
    # the cube scans W1 as (2, inf] and EXIST as (3/2, inf]: the point check
    # agrees however large s is, as long as it has a float value
    assert main(["analyze", "--input", SHIPPED_CUBE, "--target", target, "--s", s]) == 0
    assert "%s: holds  at s=" % target in capsys.readouterr().out


def test_analyze_s_beyond_the_float_range_is_input_error(capsys):
    assert main(["analyze", "--input", SHIPPED_CUBE, "--target", "w1", "--s", "1e309"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and "float range" in err


_ALL_TARGETS = ["--target", "w1", "--target", "w2", "--target", "c1", "--target", "c2",
                "--target", "exist", "--s", "5/2", "--sigma", "1/4"]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _reports_digest(capsys, weights):
    """Exit code and sha256 of the JSON reports (class results left out) of
    every target on the shipped cube at s = 5/2, sigma = 1/4 with ``weights``."""
    rc = main(["analyze", "--input", SHIPPED_CUBE, "--format", "json"] + _ALL_TARGETS + weights)
    payload = json.loads(capsys.readouterr().out)
    payload.pop("class_results")
    return rc, _sha256(json.dumps(payload, sort_keys=True))


# the stdout and the reports as the per-vertex and per-edge evaluation wrote them
@pytest.mark.parametrize("weights, text, reports", [
    (["--beta", "1e400"], "2f8b3df9bea0091f5fb766f56737b24eccb981204f12cfc0158f1a3ee3c1ebdb",
     "abde04fe531aae2aa2761defb1df4651dbac7bff9b38df8e745f3fc9ad160a41"),
    (["--delta", "1e400"], "b2d213de83ebbd02822606ba66b8a1e645c83817ac1b275afe7b28eddd5b4438",
     "8fad564ae2137ab4b3c8434baff509b120ce04c173faf461e5405fdf5904b397"),
    (["--beta=-1e400"], "a8d8c56a08d95e4462b912ab0e9fa230b2801b225ccadc2022b02e76fccec271",
     "3f05f089ef9ec21c9280bbebaeebb2f46b805f49aa5fa6d9c3ff9d7e65f86918"),
    (["--delta=-1e400"], "a8d8c56a08d95e4462b912ab0e9fa230b2801b225ccadc2022b02e76fccec271",
     "a10a217c7203fbae500757650ec12ab3589ea1603d9f6485fb34bccdb7588cea")])
def test_analyze_weights_beyond_the_float_range(capsys, weights, text, reports):
    # the decided conditions are keyed on the exact weighted values: a weight
    # that has no float value is a key like any other
    assert main(["analyze", "--input", SHIPPED_CUBE] + _ALL_TARGETS + weights) == 0
    assert _sha256(capsys.readouterr().out) == text
    assert _reports_digest(capsys, weights) == (0, reports)


@pytest.mark.parametrize("option, value", [
    ("--beta", "-1/2"), ("--beta", "-1/2,0,0,0,0,0,0,0"), ("--beta", "-1e400"),
    ("--delta", "-1e400"), ("--delta", "-1/4"), ("--beta", "-0.5"), ("--delta", "-.25")])
def test_analyze_negative_weight_reads_like_its_equals_form(capsys, option, value):
    assert _reports_digest(capsys, [option, value]) == \
        _reports_digest(capsys, ["%s=%s" % (option, value)])


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "x", "--s", "2", "--beta", "-0.5", "--delta", "-1"],
    ["analyze", "--input", "x", "--s", "2", "--beta=-1/2", "--delta=-1e400,0"],
    ["analyze", "--input", "x", "--s", "2", "--beta", "1/2", "--delta", "1e400"],
    ["analyze", "--input", "x", "--beta", "-1", "--beta", "-2"],
    ["pencil", "--theta", "-1", "--bc", "0,0", "--window=-1,2"]])
def test_joining_negative_weights_keeps_what_parsed(argv):
    # every argv argparse already read reads the same after the join
    parser = build_parser()
    assert parser.parse_args(_join_negative_weights(argv)) == parser.parse_args(argv)


@pytest.mark.parametrize("argv", [["--beta", "-x"], ["--beta", "--delta", "1"],
                                  ["--beta", "-h"], ["--beta"]])
def test_joining_leaves_options_alone(argv):
    assert _join_negative_weights(argv) == argv


@pytest.mark.parametrize("argv, error", [
    (["analyze", "--input", SHIPPED_CUBE], "input error"),
    (["pencil", "--theta", "1.5*pi", "--bc", "0,0"], "argument error"),
    (["verify-paper"], "argument error")])
def test_collocation_size_is_capped(monkeypatch, capsys, argv, error):
    # an --n past the cap is refused before any pencil is assembled
    def no_assembly(*args, **kwargs):
        raise AssertionError("a pencil was assembled")
    monkeypatch.setattr(edge_pencil, "_blocks", no_assembly)
    assert main(argv + ["--n", "100000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("%s: --n 100000 " % error)
    if argv[0] == "analyze":  # the cap itself is accepted: the cube needs no solve
        assert main(argv + ["--n", "256"]) == 0


def test_analyze_exist_without_velocity_edge_warns(tmp_path, capsys):
    cube = fx.cube()
    path = tmp_path / "slip.domain"
    path.write_text(fx.domain_document(cube, fx.with_conditions(cube, 2)))
    assert main(["analyze", "--input", str(path), "--target", "exist", "--s", "5/2"]) == 0
    assert "warning: existence check not applicable" in capsys.readouterr().out


def test_pencil_residuals_from_one_assembly(capsys):
    assert main(["pencil", "--theta", "1.3*pi", "--bc", "1,3", "--window", "0,2",
                 "--n", "16", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    p = DihedronPencil(1.3 * math.pi, 1, 3)
    assert out["eigenvalues"]
    for row in out["eigenvalues"]:
        assert row["residual"] == pencil_residual(p, complex(row["re"], row["im"]), 16)


def test_pencil_collocates_each_size_once(monkeypatch, capsys):
    # the residuals at n are read from the collocation of the solve, and no
    # collocation outlives the command
    sizes = []
    real = edge_pencil._blocks

    def counting(p, n):
        sizes.append(n)
        return real(p, n)

    monkeypatch.setattr(edge_pencil, "_blocks", counting)
    for _ in range(2):
        assert main(["pencil", "--theta", "1.3*pi", "--bc", "3,3", "--n", "16"]) == 0
        assert "residual" in capsys.readouterr().out
    assert sizes == [16, 32, 16, 32]
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, edge_pencil._Collocation)]


# the ops of the lean start-up tests: the cube exterior's 3*pi/2 edges take
# the real-root closed form, the lipschitz flag reaches the vertex rules, the
# all-slip tetrahedron's edges take the separated closed form of (2,2), and
# on the all-neumann cube the flag reaches R3 and the graph-direction check
_LEAN_OPS = """
import contextlib, io, json, sys
from polystokes import cli, edge_pencil
ops = [["analyze", "--input", sys.argv[1]],
       ["analyze", "--input", sys.argv[2], "--assume", "lipschitz"],
       ["analyze", "--input", sys.argv[3], "--target", "w2", "--format", "json"],
       ["analyze", "--input", sys.argv[5], "--assume", "lipschitz", "--kind", "stokes"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in ops]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def numpy_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
"""


def _fresh_interpreter(script, tmp_path):
    """Run ``_LEAN_OPS`` and then ``script`` in a new interpreter, and return
    the JSON its last line prints."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tetrahedron = fx.platonic("tetrahedron")
    slip = tmp_path / "tetrahedron-slip.domain"
    slip.write_text(fx.domain_document(tetrahedron, fx.with_conditions(tetrahedron, 2)))
    # tangential velocity on the x and z faces, stress on the y faces
    cube = fx.cube()
    axis = np.argmax(np.abs(cube.face_normals), axis=1)
    stress = tmp_path / "cube-tangential-stress.domain"
    stress.write_text(fx.domain_document(
        cube, BoundaryAssignment(tuple(3 if a == 1 else 1 for a in axis))))
    neumann = tmp_path / "cube-neumann.domain"
    neumann.write_text(fx.domain_document(cube, fx.with_conditions(cube, 3)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _LEAN_OPS + script,
         os.path.join(root, "perfbench", "data", "cube-exterior.domain"), SHIPPED_CUBE, str(slip),
         str(stress), str(neumann)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_analyze_on_closed_forms_loads_no_scipy(tmp_path):
    # no edge of these domains takes the collocation solver, and the
    # graph-direction check at the stress-only vertices is a closed form
    got = _fresh_interpreter('print(json.dumps({"codes": codes, "loaded": scipy_modules()}))',
                             tmp_path)
    assert got == {"codes": [0, 0, 0, 0], "loaded": []}


_NUMERIC_OPS = """
solver = {name: vars(edge_pencil).get(name) for name in ("eig", "svdvals", "solve")}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["pencil", "--theta", "1.3*pi", "--bc", "1,3", "--n", "8"])]
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.main(["analyze", "--input", sys.argv[4], "--target", "w1", "--format", "json"]))
report = json.loads(out.getvalue())
print(json.dumps({"codes": codes, "loaded": scipy_modules(),
                  "numeric": [e["mu_provenance"] for e in report["w1"]["edges"]].count("numeric"),
                  "solver": sorted(name for name, fn in solver.items() if callable(fn)),
                  "same": all(vars(edge_pencil)[name] is fn for name, fn in solver.items())}))
"""


def test_collocation_solves_load_no_scipy(tmp_path):
    # a pencil query and the eight numeric (1,3) edges of the tangential/
    # stress cube run the collocation solver on numpy alone, whose routines
    # stay module attributes, where the benchmark's tracer and the tests
    # patch them
    got = _fresh_interpreter(_NUMERIC_OPS, tmp_path)
    assert got == {"codes": [0, 0], "loaded": [], "numeric": 8,
                   "solver": ["eig", "solve", "svdvals"], "same": True}


_FIXTURE_OPS = """
from polystokes import fixtures
meshes = [fixtures.platonic(name, complement) for name in fixtures.PLATONIC_NAMES
          for complement in (False, True)]
meshes += [fixtures.slip_frustum(), fixtures.step_prism()]
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["verify-paper"]))
print(json.dumps({"codes": codes, "meshes": len(meshes), "loaded": scipy_modules()}))
"""


def test_fixtures_and_verify_paper_load_no_scipy(tmp_path):
    # the fixture solids are literal face tables
    got = _fresh_interpreter(_FIXTURE_OPS, tmp_path)
    assert got == {"codes": [0, 0, 0, 0, 0], "meshes": 12, "loaded": []}


_NUMPY_FREE_OPS = """
paths = json.loads(%r)
with contextlib.redirect_stdout(io.StringIO()):
    codes += [cli.main(["analyze", "--input", path]) for path in paths]
    codes.append(cli.main(["analyze", "--input", sys.argv[5], "--assume",
                           "data,compatibility,small-data,lipschitz", "--format", "json"]))
print(json.dumps({"codes": codes, "loaded": numpy_modules()}))
"""


def test_analyze_on_closed_forms_loads_no_numpy(tmp_path):
    # geometry is pure Python and the collocation solver imports numpy on
    # its first solve: the shipped domains, the lean ops and the all-neumann
    # cube under every assumption take closed forms and class bounds only
    paths = sorted(glob.glob(os.path.join(os.path.dirname(SHIPPED_CUBE), "*.domain")))
    assert len(paths) == 5
    got = _fresh_interpreter(_NUMPY_FREE_OPS % json.dumps(paths), tmp_path)
    assert got == {"codes": [0] * 10, "loaded": []}


_PENCIL_OPS = """
before = numpy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["pencil", "--theta", "1.3*pi", "--bc", "1,3", "--n", "8"]))
print(json.dumps({"codes": codes, "before": before, "numpy": "numpy" in sys.modules}))
"""


def test_pencil_loads_numpy(tmp_path):
    # the collocation solver still runs on numpy, imported where it is needed
    got = _fresh_interpreter(_PENCIL_OPS, tmp_path)
    assert got == {"codes": [0] * 5, "before": [], "numpy": True}
