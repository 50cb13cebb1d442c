import json
import math

import pytest

from polystokes import fixtures as fx
from polystokes.cli import (FixtureRow, main, verification_rows, parse_theta,
                            run_fixture_rows)
from polystokes.edge_pencil import DihedronPencil, pencil_residual
from polystokes.geometry import VertexBound


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
    assert main(["pencil", "--theta", "0", "--bc", "0,0"]) == 1


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


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.domain"
    bad.write_text("vertices: [[0,0,0]]\n")
    assert main(["analyze", "--input", str(bad)]) == 1
    assert "missing required field" in capsys.readouterr().err


def test_analyze_bad_mesh_diagnostic(tmp_path, capsys):
    bad = tmp_path / "degenerate.domain"
    bad.write_text(
        "vertices: [[0,0,0],[1,0,0],[0,1,0],[0,0,1]]\n"
        "faces:\n"
        "  - {loop: [0, 1], bc: dirichlet}\n"
        "  - {loop: [0, 1, 2], bc: dirichlet}\n"
        "  - {loop: [0, 2, 3], bc: dirichlet}\n"
        "  - {loop: [1, 3, 2], bc: dirichlet}\n")
    assert main(["analyze", "--input", str(bad)]) == 1
    assert "degenerate" in capsys.readouterr().err


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
       (["--target", "c2", "--sigma", "1/0"], "--sigma: '1/0'")])


@pytest.mark.parametrize("extra,message", _BAD_QUERIES)
def test_analyze_bad_query_is_input_error(cube_file, capsys, extra, message):
    assert main(["analyze", "--input", cube_file] + extra) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ") and message in err


def test_analyze_sigma_is_exact_rational(cube_file, capsys):
    # --sigma 1/4 is the rational 1/4, so delta = 1/4 is the resonance delta = sigma
    assert main(["analyze", "--input", cube_file, "--target", "c1", "--sigma", "1/4",
                 "--delta", "1/4", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)["c1"]
    assert rep["verdict"] == "fails" and rep["sigma"] == 0.25
    assert {e["requirement"] for e in rep["edges"]} == {
        "delta equals an excluded resonance value"}


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
