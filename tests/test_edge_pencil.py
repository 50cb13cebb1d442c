import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from polystokes import fixtures as fx
from polystokes import edge_pencil as ep
from polystokes.edge_pencil import (DihedronPencil, MU_THRESHOLD_TWO_THIRDS,
                                    MuValue, WindowError, assemble_pencil,
                                    class_bound, dd_nn_residual, edge_exponent,
                                    mu_numeric, mu_of_edge_point, mu_real_root,
                                    pencil_residual, solve_spectrum)

THETA_GRID = [k * 0.2 * math.pi for k in range(2, 10)] + [0.3 * math.pi]


# -- transcendental characteristic function -----------------------------------------

def test_residual_first_factor_zero():
    assert dd_nn_residual(2.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_lambda_one_always_a_zero():
    for theta in (0.4 * math.pi, 1.1 * math.pi, 1.9 * math.pi):
        assert abs(dd_nn_residual(1.0, theta)) < 1e-14


def test_residual_at_step_root():
    assert abs(dd_nn_residual(0.54448373, 1.5 * math.pi)) < 1e-7


# -- real-root exponent ----------------------------------------------------------

def test_mu_below_pi_is_pi_over_theta():
    assert mu_real_root(math.pi / 2) == 2.0
    assert mu_real_root(math.pi / 3) == 3.0
    assert mu_real_root(math.pi) == 1.0


def test_mu_step_value():
    assert mu_real_root(1.5 * math.pi) == pytest.approx(0.54448373, abs=1e-8)


def test_threshold_identity_two_thirds():
    # independent oracle: with c = cos(a) = 1/4, s = sin(a) = sqrt(15)/4,
    # sin(2a) = 2*s*c = sqrt(15)/8 and sin(3a) = s*(3 - 4 s^2) = -3*sqrt(15)/16,
    # so sin(2a) + (2/3) sin(3a) = 0 exactly: mu = 2/3 at theta = 3a.
    s = math.sqrt(15.0) / 4.0
    oracle = 2 * s * 0.25 + (2.0 / 3.0) * (s * (3 - 4 * s * s))
    assert abs(oracle) < 1e-15
    assert mu_real_root(3 * math.acos(0.25)) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert MU_THRESHOLD_TWO_THIRDS == pytest.approx(1.2587 * math.pi, abs=2e-4)


def test_mu_tetrahedron_exterior():
    theta = 2 * math.pi - math.acos(1.0 / 3.0)
    assert mu_real_root(theta) == pytest.approx(0.52033360, abs=1e-8)


def test_mu_monotone_decreasing_above_pi():
    thetas = np.linspace(math.pi + 1e-6, 2 * math.pi - 1e-6, 100)
    vals = [mu_real_root(t) for t in thetas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mu_threshold_bounds():
    grid = np.linspace(0.05 * math.pi, 1.99 * math.pi, 120)
    for t in grid:
        mu = mu_real_root(t)
        assert mu > 0.5
        assert (mu > 2.0 / 3.0) == (t < MU_THRESHOLD_TWO_THIRDS)
        assert (mu > 1.0) == (t < math.pi)
        assert (mu > 4.0 / 3.0) == (t < 0.75 * math.pi)


def test_mu_rejects_invalid_theta():
    with pytest.raises(ValueError):
        mu_real_root(0.0)
    with pytest.raises(ValueError):
        mu_real_root(2 * math.pi)


# -- assembled pencil -----------------------------------------------------------

def test_dirichlet_rows_are_velocity_traces():
    p = DihedronPencil(1.2 * math.pi, 0, 0)
    n = 12
    T = assemble_pencil(p, 0.37, n)
    m = n + 1
    # the six boundary rows are the last ones; for the velocity condition they
    # pick single nodal values of the three components
    for r in range(4 * m - 6, 4 * m):
        row = T[r]
        assert np.count_nonzero(np.abs(row) > 1e-14) == 1


def test_stress_pair_singular_at_one():
    p = DihedronPencil(0.8 * math.pi, 3, 3)
    assert pencil_residual(p, 1.0, 24) < 1e-10


def test_third_component_decouples():
    n = 16
    m = n + 1
    for pair in ((0, 0), (1, 2), (3, 3), (0, 3)):
        p = DihedronPencil(1.3 * math.pi, *pair)
        T = assemble_pencil(p, 0.731 + 0.2j, n)
        u3 = slice(2 * m, 3 * m)
        rows_mom3 = slice(2 * (n - 1), 3 * (n - 1))  # third momentum block
        other_cols = np.r_[0:2 * m, 3 * m:4 * m]
        assert np.max(np.abs(T[rows_mom3][:, other_cols])) == 0.0
        rows_div = slice(3 * (n - 1), 3 * (n - 1) + m)
        assert np.max(np.abs(T[rows_div][:, u3])) == 0.0


def test_minimum_collocation_size():
    with pytest.raises(ValueError):
        assemble_pencil(DihedronPencil(math.pi / 2, 0, 0), 1.0, 4)


# -- spectra ------------------------------------------------------------------

def test_spectrum_step_window():
    spec = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0), (0.0, 1.0), n=32)
    res = spec.real_parts()
    assert np.min(np.abs(res - 0.54448373)) < 1e-6
    assert not spec.unresolved


def test_spectrum_step_complete_real_set():
    # the full real spectrum in (0, 1]: the smallest root of each sign of the
    # characteristic factor plus pi/theta and the ubiquitous eigenvalue 1
    spec = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0), (0.0, 1.001), n=32)
    got = sorted(ev.real for ev in spec.eigenvalues if abs(ev.imag) < 1e-9)
    expected = [0.5444837368, 2.0 / 3.0, 0.9085291898, 1.0]
    assert len(got) == len(expected)
    assert np.allclose(got, expected, atol=1e-7)


def test_spectrum_right_angle():
    spec = solve_spectrum(DihedronPencil(0.5 * math.pi, 0, 0), (0.0, 3.0), n=32)
    res = sorted(ev.real for ev in spec.eigenvalues if abs(ev.imag) < 1e-9)
    assert res[0] == pytest.approx(1.0, abs=1e-8)
    assert any(abs(r - 2.0) < 1e-8 for r in res)


def test_spectrum_conjugate_symmetry():
    spec = solve_spectrum(DihedronPencil(0.7 * math.pi, 0, 0), (0.0, 4.0), n=32)
    evs = np.array(spec.eigenvalues)
    complex_evs = evs[np.abs(evs.imag) > 1e-9]
    assert len(complex_evs) > 0  # the window does contain complex pairs
    for ev in complex_evs:
        assert np.min(np.abs(evs - np.conj(ev))) < 1e-9


def test_nu_invariance():
    base = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0, nu=1.0), (0.0, 1.2), n=24)
    for nu in (2.0, 10.0):
        other = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0, nu=nu), (0.0, 1.2), n=24)
        a = np.sort_complex(np.array(base.eigenvalues))
        b = np.sort_complex(np.array(other.eigenvalues))
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) < 1e-9


def test_lambda_one_for_even_pairs():
    for pair in ((0, 0), (3, 3), (0, 2), (1, 1), (1, 3), (2, 2)):
        p = DihedronPencil(1.1 * math.pi, *pair)
        assert pencil_residual(p, 1.0, 24) < 1e-8


def test_window_must_be_bounded():
    with pytest.raises(ValueError):
        solve_spectrum(DihedronPencil(math.pi / 2, 0, 0), (1.0, 0.0))


# -- exponent selection -------------------------------------------------------------

def test_selection_rules():
    spec = solve_spectrum(DihedronPencil(0.5 * math.pi, 0, 0), (0.0, 3.0), n=32)
    mv = mu_of_edge_point(0.5 * math.pi, 0, 0, spec)
    assert mv.role == "lambda2" and mv.value == pytest.approx(2.0, abs=1e-8)
    spec = solve_spectrum(DihedronPencil(1.5 * math.pi, 0, 0), (0.0, 1.2), n=32)
    mv = mu_of_edge_point(1.5 * math.pi, 0, 0, spec)
    assert mv.role == "lambda1" and mv.value == pytest.approx(0.54448373, abs=1e-6)


def test_selection_needs_wide_window():
    spec = solve_spectrum(DihedronPencil(0.5 * math.pi, 0, 0), (0.0, 1.5), n=24)
    with pytest.raises(WindowError):
        mu_of_edge_point(0.5 * math.pi, 0, 0, spec)


def test_mixed_slip_pair_above_third():
    mv = mu_numeric(1.4 * math.pi, 0, 2)
    assert mv.value > 1.0 / 3.0
    assert mv.role == "lambda1"


def test_mixed_slip_pair_narrow_takes_second_eigenvalue():
    # even condition sum with m = 2: openings below pi/2 select the second
    # eigenvalue
    mv = mu_numeric(math.pi / 3, 0, 2)
    assert mv.role == "lambda2"
    assert mv.value > 1.0


def test_mu_k_dispatch(cube):
    bc = fx.with_conditions(cube, 0)
    for e in cube.edges:
        mv = edge_exponent("mu", *bc.pair(e), e.theta)
        assert mv.provenance == "closed-form"
        assert mv.value == pytest.approx(2.0, abs=0)


def test_mu_k_platonic_pipeline():
    expected = {"tetrahedron": 0.52033360, "cube": 0.54448373,
                "octahedron": 0.58489758, "dodecahedron": 0.60487306,
                "icosahedron": 0.68835272}
    for name, value in expected.items():
        poly = fx.platonic(name, complement=True)
        bc = fx.with_conditions(poly, 0)
        mu = min(edge_exponent("mu", *bc.pair(e), e.theta).value for e in poly.edges)
        assert mu == pytest.approx(value, abs=1e-7)


def test_mu_lower_bounds_catalogue():
    assert class_bound("mu", 0, 3, math.pi).value == 0.25
    assert class_bound("mu", 0, 2, 1.4 * math.pi).value == pytest.approx(1 / 3)
    assert class_bound("mu", 0, 2, 0.4 * math.pi).value == 1.0
    assert class_bound("mu", 0, 1, 1.6 * math.pi).value == 0.25
    assert class_bound("mu", 1, 2, math.pi) is None


def test_lambda1_catalogue():
    assert edge_exponent("lambda1", 0, 0, 0.5 * math.pi).value == 1.0
    assert edge_exponent("lambda1", 0, 0, 1.5 * math.pi).value == pytest.approx(
        0.54448373, abs=1e-8)
    lb = edge_exponent("lambda1", 0, 2, 1.5 * math.pi)
    assert lb.is_lower_bound and lb.value == pytest.approx(1 / 3)


# openings at which a class bound changes, each taken itself and on both sides
_THRESHOLDS = (0.375 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi, 1.5 * math.pi,
               MU_THRESHOLD_TWO_THIRDS, 0.5 * MU_THRESHOLD_TWO_THIRDS)


def _documented_route(quantity, pair, theta):
    """The route order the README states for ``edge_exponent``."""
    if pair in ((0, 0), (1, 1), (2, 2), (1, 2)) or (pair == (3, 3) and quantity == "mu"):
        return "closed-form"
    if pair == (0, 3) or (pair in ((0, 1), (0, 2))
                          and (quantity == "mu" or theta <= 1.5 * math.pi)):
        return "class-bound"
    return "numeric"


def test_edge_exponent_route_table(monkeypatch):
    # the numeric route is replaced by a stub that records its quantity, so
    # the table needs no solver
    calls = []

    def numeric(theta, d_plus, d_minus, n=32, quantity="mu"):
        calls.append(quantity)
        return MuValue(1.0, "numeric", "lambda1")

    monkeypatch.setattr(ep, "mu_numeric", numeric)
    openings = [t + dt for t in _THRESHOLDS for dt in (-1e-6, 0.0, 1e-6)]
    for quantity in ("mu", "lambda1"):
        for pair in ((a, b) for a in range(4) for b in range(a, 4)):
            for theta in openings:
                mv = edge_exponent(quantity, *pair, theta)
                assert mv.provenance == _documented_route(quantity, pair, theta), \
                    (quantity, pair, theta)
                assert edge_exponent(quantity, *reversed(pair), theta) == mv
                if mv.provenance == "class-bound":
                    assert mv == class_bound(quantity, *pair, theta)
    assert calls and set(calls) == {"mu", "lambda1"}
    with pytest.raises(ValueError):
        edge_exponent("mu1", 0, 2, math.pi)


def test_numeric_lambda1_route():
    # slip against velocity beyond 3*pi/2: no class bound; the first
    # eigenvalue is pi/(2*theta)
    theta = 1.6 * math.pi
    mv = edge_exponent("lambda1", 0, 2, theta)
    assert mv.provenance == "numeric" and mv.role == "lambda1"
    assert mv.value == pytest.approx(math.pi / (2 * theta), abs=1e-8)


def test_dd_below_pi_has_no_eigenvalue_under_one():
    # the closed-form selection relies on the first eigenvalue being 1 there
    for theta in (0.5 * math.pi, 0.75 * math.pi):
        spec = solve_spectrum(DihedronPencil(theta, 0, 0), (0.0, 1.05), n=32)
        pos = [ev.real for ev in spec.eigenvalues if ev.real > 1e-3]
        assert min(pos) == pytest.approx(1.0, abs=1e-8)


# -- the separable pairs ----------------------------------------------------------

_SEPARABLE = ((1, 1), (2, 2), (1, 2), (2, 1))


def _separable_openings():
    grid = [k / 24 * math.pi for k in (9, 12, 24, 36)]
    near = [t + dt for t in (0.5 * math.pi, math.pi, 1.5 * math.pi) for dt in (-1e-6, 1e-6)]
    rng = random.Random(20061)
    return grid + near + [rng.uniform(0.1, 1.9) * math.pi for _ in range(3)]


# Just below pi/2 the second eigenvalue of the even pairs, pi/theta - 1, lies
# within the solver's clustering width (10 * _STAB_TOL) of the eigenvalue 1;
# the solver merges the two and selects the next eigenvalue, near 2.
_SOLVER_MERGES = [(pair, "mu", 0.5 * math.pi - 1e-6) for pair in ((1, 1), (2, 2))]


@pytest.mark.parametrize("pair", _SEPARABLE, ids="{0[0]}{0[1]}".format)
def test_separable_closed_form_matches_solver(pair, monkeypatch):
    # both quantities select from one spectrum: solve each strip once
    spectra = {}

    def solve_once(p, window, n):
        if (p, window, n) not in spectra:
            spectra[p, window, n] = solve_spectrum(p, window, n)
        return spectra[p, window, n]

    monkeypatch.setattr(ep, "solve_spectrum", solve_once)
    for theta, quantity in ((t, q) for t in _separable_openings() for q in ("mu", "lambda1")):
        mv = edge_exponent(quantity, *pair, theta)
        assert mv.provenance == "closed-form" and not mv.is_lower_bound
        assert edge_exponent(quantity, *reversed(pair), theta) == mv
        k = round(theta / math.pi * 24)
        if theta == k / 24 * math.pi:
            assert isinstance(mv.bound, Fraction) and float(mv.bound) == mv.value
        else:
            assert mv.bound is None
        if (tuple(sorted(pair)), quantity, theta) in _SOLVER_MERGES:
            assert mv.value == pytest.approx(math.pi / theta - 1, abs=1e-15)
            continue
        num = mu_numeric(theta, *pair, n=32, quantity=quantity)
        assert abs(num.value - mv.value) <= ep._STAB_TOL and num.role == mv.role, \
            (quantity, theta)


@pytest.mark.xfail(strict=True, reason="the solver merges pi/theta - 1 into the eigenvalue 1")
@pytest.mark.parametrize("pair, quantity, theta", _SOLVER_MERGES)
def test_separable_solver_below_right_angle(pair, quantity, theta):
    mv = edge_exponent(quantity, *pair, theta)
    assert abs(mu_numeric(theta, *pair, quantity=quantity).value - mv.value) <= ep._STAB_TOL


def test_separable_exact_on_the_grid():
    # pi/theta = 24/k: (2,2) at pi/3 takes the second eigenvalue 3 - 1
    assert edge_exponent("mu", 2, 2, 8 / 24 * math.pi).bound == 2
    assert edge_exponent("lambda1", 2, 2, 8 / 24 * math.pi).bound == 1
    assert edge_exponent("mu", 1, 2, math.pi).bound == Fraction(1, 2)
    assert edge_exponent("mu", 1, 1, 1.5 * math.pi).bound == Fraction(1, 3)
    assert edge_exponent("mu", 2, 1, 0.5 * math.pi).bound == 1


# -- the shift-invert eigensolve ----------------------------------------------------

def _doubled_companion(blocks, window):
    """Reference eigenvalues: QZ on the companion pencil of doubled size."""
    A, B, C = blocks
    I, Z = np.eye(A.shape[0]), np.zeros_like(A)
    w = scipy.linalg.eig(np.block([[A, B], [Z, I]]), np.block([[Z, -C], [I, Z]]), right=False)
    return w[np.isfinite(w)]


def _separable_spectrum(pair, theta, hi):
    """{k*pi/theta} u {|1 +- k*pi/theta|} in (0, hi], k over the half-integers
    for (1,2), as value -> multiplicity."""
    half = 0.5 if pair[0] != pair[1] else 0.0
    values = [1.0] if half else []
    for k in range(40):
        x = (k + half) * math.pi / theta
        values += [abs(1 - x), 1 + x] + ([x] if x else [])
    spectrum = {}
    for v in sorted(v for v in values if 1e-3 < v <= hi):
        key = next((u for u in spectrum if abs(u - v) <= ep._STAB_TOL), v)
        spectrum[key] = spectrum.get(key, 0) + 1
    return spectrum


def _collisions():
    sigma = ep._shift((0.0, 2.4))
    return [((2, 2), math.pi / (sigma + 1)),   # pi/theta - 1 = sigma
            ((2, 2), math.pi / sigma),         # pi/theta = sigma
            ((1, 2), math.pi / sigma),
            ((1, 2), math.pi / (2 * sigma))]   # pi/(2 theta) = sigma


@pytest.fixture
def eig_calls(monkeypatch):
    calls = []
    real = ep.eig

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ep, "eig", counting)
    return calls


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("pair, theta", _collisions())
def test_shift_on_an_eigenvalue_moves(pair, theta, eig_calls):
    spec = solve_spectrum(DihedronPencil(theta, *pair), (0.0, 2.4), n=32)
    got = [(ev, m) for ev, m in zip(spec.eigenvalues, spec.multiplicities) if abs(ev) > ep._RE_MIN]
    expected = _separable_spectrum(pair, theta, 2.4)
    assert len(got) == len(expected), (got, expected)
    for (ev, m), (value, count) in zip(got, sorted(expected.items())):
        assert abs(ev - value) <= ep._STAB_TOL and m == count, (ev, m, value, count)
    if pair == (2, 2):
        assert expected[1.0] == 2
    sigma = ep._shift((0.0, 2.4))
    if any(abs(v - sigma) < 1e-12 for v in expected):
        assert len(eig_calls) > 2  # the guard fired on both sizes


def test_one_eigensolve_per_size(eig_calls):
    solve_spectrum(DihedronPencil(1.3 * math.pi, 1, 3), (0.0, 2.4), n=16)
    assert len(eig_calls) == 2


def _zero_pivots(count):
    """``lu_factor`` that reports a zero pivot on its first ``count`` calls."""
    real, calls = ep.lu_factor, []

    def lu_factor(a):
        calls.append(1)
        if len(calls) <= count:
            warnings.warn("Diagonal number 1 is exactly zero. Singular matrix.",
                          scipy.linalg.LinAlgWarning)
        return real(a)

    return lu_factor


def test_zero_pivot_moves_the_shift(monkeypatch, eig_calls):
    p = DihedronPencil(1.3 * math.pi, 1, 3)
    base = solve_spectrum(p, (0.0, 2.4), n=16)
    monkeypatch.setattr(ep, "lu_factor", _zero_pivots(1))
    moved = solve_spectrum(p, (0.0, 2.4), n=16)
    assert len(eig_calls) == 4  # two per solve: no eigensolve follows a zero pivot
    assert len(moved.eigenvalues) == len(base.eigenvalues)
    assert max(abs(a - b) for a, b in zip(moved.eigenvalues, base.eigenvalues)) <= ep._STAB_TOL
    monkeypatch.setattr(ep, "lu_factor", _zero_pivots(ep._SHIFT_MOVES + 1))
    with pytest.raises(WindowError):
        solve_spectrum(p, (0.0, 2.4), n=16)


def _equivalence_cases():
    rng = random.Random(80817)
    cases = []
    for i, pair in enumerate((a, b) for a in range(4) for b in range(a, 4)):
        openings = [0.5 * math.pi, 1.5 * math.pi, math.pi, 0.1 * math.pi]
        openings += [rng.uniform(0.1, 1.9) * math.pi for _ in range(2)]
        for j, theta in enumerate(openings):
            # the strips mu_numeric tries, its first one widened 0..3 times;
            # the default size on the first strip of one opening per pair
            hi = max(2.4, math.pi / theta + 0.8)
            if j == 4:
                cases.append((pair, theta, hi, 32))
            else:
                cases.append((pair, theta, hi * 1.6 ** ((i + j) % 4), 16))
    return cases


@pytest.mark.parametrize("pair, theta, hi, n", _equivalence_cases())
def test_shift_invert_matches_doubled_companion(pair, theta, hi, n, monkeypatch):
    p = DihedronPencil(theta, *pair)
    spec = solve_spectrum(p, (0.0, hi), n=n)
    monkeypatch.setattr(ep, "_raw_eigenvalues", _doubled_companion)
    ref = solve_spectrum(p, (0.0, hi), n=n)

    # the zero eigenvalue is defective: both solvers split its copies by up
    # to ~5e-5, so they are left out of the comparison
    def nonzero(s):
        return [(ev, m) for ev, m in zip(s.eigenvalues, s.multiplicities) if abs(ev) > 1e-4]

    got, want = nonzero(spec), nonzero(ref)
    assert len(got) == len(want)
    for ev, m in got:
        near = min(want, key=lambda r: abs(r[0] - ev))
        assert abs(near[0] - ev) <= ep._STAB_TOL and near[1] == m, (ev, m, near)
