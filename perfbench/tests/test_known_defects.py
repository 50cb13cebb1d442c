"""Open defects of the program that the benchmark's workloads keep clear of.

The ops of a benchmark run must not fail, so the ``domains`` workload moves
its meshes only by exact motions, and draws its point-check exponents above
the 6/5 floor of the W2 scan and off the ends of the scanned intervals
(``workloads.py``).  Each defect it steers around is reproduced here as an
expected failure with the oracle's label.  When the program is fixed, the
test passes, pytest reports a strict XPASS as a failure, and the restriction
in the workload can go.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import execute  # noqa: E402

known_defect = pytest.mark.xfail(raises=oracle.Failure, strict=True)


def _item(label):
    return next(it for it in workloads.domain_items(1) if it["label"] == label)


def _run(argv, doc, tmp_path):
    from polystokes import cli
    path = tmp_path / "input.domain"
    path.write_text(doc, encoding="utf-8")
    _, rc, out, err, exc = execute(cli, workloads.resolve_argv({"argv": argv}, str(path)))
    assert rc == 0 and exc is None, (rc, exc, err)
    return out


def _expect(label, check, *args):
    """Run an oracle check; a failure must carry the defect's label."""
    try:
        check(*args)
    except oracle.Failure as f:
        assert f.label == label, "%s: %s" % (f.label, f)
        raise


def _plain(it):
    return workloads.plain_document(it["poly"], it["bc"], it["bounds"])


@known_defect
def test_threshold_flip(tmp_path):
    """The step file under a uniform rotation: its right-angled openings move
    off pi/2 by rounding, and the exist and c1 results change."""
    it = _item("file:step")
    moved = workloads.moved_document(it["poly"], it["bc"], it["bounds"],
                                     workloads._rng(7, "domains", "motion", 1, 4), exact=False)
    reference = _run(workloads.scan_argv("{input}"), _plain(it), tmp_path)
    out = _run(workloads.scan_argv("{input}"), moved, tmp_path)
    _expect("threshold-flip", oracle.check_moved, out, reference)


def test_exact_motion_keeps_the_step_result(tmp_path):
    """The same domain under an exact motion, as the workload moves it."""
    it = _item("file:step")
    moved = workloads.moved_document(it["poly"], it["bc"], it["bounds"],
                                     workloads._rng(7, "domains", "motion", 1, 4))
    reference = _run(workloads.scan_argv("{input}"), _plain(it), tmp_path)
    oracle.check_moved(_run(workloads.scan_argv("{input}"), moved, tmp_path), reference)


@known_defect
def test_w2_floor(tmp_path):
    """The point check certifies W2 at s = 8/7, below the scan's 6/5 floor."""
    doc = _plain(_item("file:step"))
    scan = _run(workloads.scan_argv("{input}"), doc, tmp_path)
    point = _run(workloads.point_argv("{input}", "8/7", "0.5"), doc, tmp_path)
    _expect("w2-floor", oracle.check_agreement, point, scan, "8/7")


@known_defect
def test_interval_end(tmp_path):
    """The cube with one tangential-velocity face: the scan certifies W2 on
    (6/5, 3/2], the point check fails it at s = 3/2."""
    doc = _plain(_item("cube"))
    scan = _run(workloads.scan_argv("{input}"), doc, tmp_path)
    point = _run(workloads.point_argv("{input}", "3/2", "0.5"), doc, tmp_path)
    _expect("interval-end", oracle.check_agreement, point, scan, "3/2")
