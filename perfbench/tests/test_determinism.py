"""The benchmark's own checks: seeded inputs repeat, and the oracles hold.

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import execute  # noqa: E402


def _op_list(workload, seed, cycles=3):
    items = workloads.items_for(workload, seed)
    ops = [workloads.warmup_op(workload, seed, items)]
    for k in range(cycles):
        ops += workloads.cycle_ops(workload, seed, k, items)
    return ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = _op_list(workload, 7)
    assert _op_list(workload, 7) == first
    assert _op_list(workload, 8) != first


def test_cycles_keep_their_structure():
    """Every cycle after the first has the same kinds of op in the same order."""
    for workload in workloads.WORKLOADS:
        items = workloads.items_for(workload, 3)
        shapes = [[(op["argv"][0], op["meta"].get("kind"), op["meta"].get("item"))
                   for op in workloads.cycle_ops(workload, 3, k, items)] for k in (1, 2, 5)]
        assert shapes[0] == shapes[1] == shapes[2]


def test_pencil_wedges_never_repeat():
    items = workloads.items_for("pencils", 5)
    wedges = [(op["meta"]["theta"], tuple(sorted(op["meta"]["pair"])))
              for k in range(20) for op in workloads.cycle_ops("pencils", 5, k, items)]
    assert len(set(wedges)) == len(wedges)


def test_same_seed_same_references():
    """The references of the domain workload are the outputs of the unmoved
    copies in cycle 0; they must repeat byte for byte."""
    from polystokes import cli
    path = os.path.join(BENCH, ".work", "test-ref-%d.domain" % os.getpid())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    outs = []
    try:
        for _ in range(2):
            items = workloads.items_for("domains", 11)
            run = []
            for op in workloads.cycle_ops("domains", 11, 0, items)[:8]:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(op["doc"])
                _, rc, out, _, exc = execute(cli, workloads.resolve_argv(op, path))
                assert rc == 0 and exc is None
                run.append(out)
            outs.append(run)
    finally:
        os.remove(path)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("a", [0.5, 0.8, 1.3])
@pytest.mark.parametrize("pair", [(1, 1), (2, 2), (1, 2)])
def test_separable_spectra_match_the_solver(a, pair):
    """The separable formulas the pencils oracle relies on, confirmed against
    the collocation solver at three openings."""
    from polystokes import cli
    theta = a * math.pi
    argv = workloads.pencil_argv("%g*pi" % a, pair)
    _, rc, out, _, exc = execute(cli, argv)
    assert rc == 0 and exc is None
    oracle.check_pencil({"theta": theta, "pair": list(pair)}, out, workloads.PENCIL_WINDOW)


def test_separable_exponents_of_the_slip_meshes():
    tet = math.acos(1.0 / 3.0)
    assert oracle.separable_mu(tet, (2, 2)) == pytest.approx(1.55215, abs=1e-5)
    assert oracle.separable_mu(0.5 * math.pi, (2, 2)) == pytest.approx(1.0)


def test_oracle_rejects_a_wrong_spectrum():
    out = ('{"theta": %r, "bc": [1, 1], "eigenvalues": [{"re": 0.7, "im": 0.0}], '
           '"unresolved": []}' % (0.8 * math.pi))
    with pytest.raises(oracle.Failure):
        oracle.check_pencil({"theta": 0.8 * math.pi, "pair": [1, 1]}, out,
                            workloads.PENCIL_WINDOW)
