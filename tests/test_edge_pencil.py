import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

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


def test_mu_real_root_is_scipy_brentq_to_the_bit(monkeypatch):
    # the same bracket scan, with scipy's Brent iteration at the same settings
    from scipy.optimize import brentq
    thetas = list(np.linspace(math.pi, 2 * math.pi, 2001)[1:-1]) + [
        1.5 * math.pi - 1e-12, 1.5 * math.pi + 1e-12, 2 * math.pi - 1e-9,
        MU_THRESHOLD_TWO_THIRDS, 2 * math.pi - math.acos(1.0 / 3.0)]
    ours = [mu_real_root(t) for t in thetas]
    monkeypatch.setattr(ep, "_brentq", lambda f, a, b: brentq(
        f, a, b, xtol=ep._ROOT_XTOL, rtol=4 * np.finfo(float).eps, maxiter=100))
    assert [float.hex(m) for m in ours] == [float.hex(mu_real_root(t)) for t in thetas]


def test_brent_needs_a_sign_change():
    with pytest.raises(ep.BracketingError, match="same sign"):
        ep._brentq(lambda x: x * x + 1.0, 0.0, 1.0)
    assert ep._brentq(lambda x: x - 0.25, 0.0, 0.25) == 0.25  # an end that is a root


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
    # the six boundary rows are the last ones, three per side; for the velocity
    # condition they act on the three velocity values at that side's endpoint
    # only, and determine all three
    for side, e in enumerate((0, n)):
        rows = T[4 * m - 6 + 3 * side:4 * m - 3 + 3 * side]
        nodes = [j * m + e for j in range(3)]
        assert not np.delete(rows, nodes, axis=1).any()
        assert np.linalg.matrix_rank(rows[:, nodes]) == 3


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


@pytest.mark.parametrize("n", (8, 16, 32))
def test_plane_and_antiplane_blocks_decouple(n):
    # the split named by the assembly is exact: nothing outside the two
    # diagonal blocks is nonzero, and their singular values give the
    # residual of the whole matrix
    size = 4 * (n + 1)
    for pair in ((a, b) for a in range(4) for b in range(4)):
        for f in (0.1, 0.6, 1.0, 1.45, 1.9):
            p = DihedronPencil(f * math.pi, *pair)
            pencil = ep._blocks(p, n)
            (rows, cols), (z_rows, z_cols) = pencil.split
            assert sorted(np.r_[rows, z_rows]) == list(range(size))
            assert sorted(np.r_[cols, z_cols]) == list(range(size))
            assert len(z_rows) == len(z_cols) == n + 1
            for X in pencil.full:
                assert not X[np.ix_(rows, z_cols)].any() and not X[np.ix_(z_rows, cols)].any()
            for lam in (0.37, 1.0, 0.731 + 0.2j, 2.1 - 0.4j):
                sv = scipy.linalg.svdvals(assemble_pencil(p, lam, n))
                assert abs(pencil_residual(p, lam, n) - sv[-1] / sv[0]) <= 1e-14, (pair, f, lam)


@pytest.mark.parametrize("theta", [f * math.pi for f in (0.1, 0.35, 0.9, 1.55, 1.9)])
def test_antiplane_block_is_the_closed_form(theta):
    # u_z solves the Laplace problem: Dirichlet on a side that carries the
    # velocity trace along e_z (d = 0, 1), Neumann on the others (d = 2, 3).
    # Equal kinds give {k pi/theta}, mixed ones {(k + 1/2) pi/theta}.
    hi = 3.25 * math.pi / theta  # a quarter step off the nearest values
    for pair in ((a, b) for a in range(4) for b in range(4)):
        assert [("z" in ep._VELOCITY_TRACES[d]) for d in pair] == [d < 2 for d in pair]
        half = 0.5 if (pair[0] < 2) != (pair[1] < 2) else 0.0
        want = [(k + half) * math.pi / theta for k in range(4)]
        want = [v for v in want if ep._RE_MIN < v <= hi]
        # the plane block comes first, as its two mirror halves when the
        # faces carry equal conditions; the antiplane block or its halves follow
        antiplane = ep._blocks(DihedronPencil(theta, *pair), 32).blocks[1 + (pair[0] == pair[1]):]
        lam = np.concatenate([ep._shift_invert(block, (0.0, hi)) for block in antiplane])
        got = np.sort_complex(lam[(lam.real > ep._RE_MIN) & (lam.real <= hi)])
        assert len(got) == len(want), (pair, got, want)
        assert np.max(np.abs(got - want)) <= ep._STAB_TOL, (pair, got, want)


def test_minimum_collocation_size():
    with pytest.raises(ValueError):
        assemble_pencil(DihedronPencil(math.pi / 2, 0, 0), 1.0, 4)


def _row_by_row_blocks(p, n):
    """Reference assembly: every row built by its own ``derivative`` calls, one
    node at a time, as the assembly did before its interior rows were built
    as arrays."""
    D1, x = ep._cheb(n)
    half = p.theta / 2.0
    phi = half * x
    D = D1 / half
    D2 = D @ D
    m = n + 1
    size = 4 * m
    A, B, C = np.zeros((size, size)), np.zeros((size, size)), np.zeros((size, size))
    U = (slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m))
    P = slice(3 * m, 4 * m)
    cos, sin = np.cos(phi), np.sin(phi)
    nu = p.nu
    axes = np.eye(3)

    def derivative(r, k, w, cols, coef=1.0, degree=0):
        w_r = w[0] * cos[k] + w[1] * sin[k]
        w_phi = w[1] * cos[k] - w[0] * sin[k]
        A[r, cols] += coef * w_phi * D[k]
        A[r, cols.start + k] += coef * degree * w_r
        B[r, cols.start + k] += coef * w_r

    r = 0
    antiplane = []
    for i in range(3):
        if i == 2:
            antiplane.extend(range(r, r + n - 1))
        for k in range(1, n):
            A[r, U[i]] -= nu * D2[k, :]
            C[r, U[i].start + k] -= nu
            derivative(r, k, axes[i], P, degree=-1)
            r += 1
    for k in range(m):
        for j in range(3):
            derivative(r, k, axes[j], U[j])
        r += 1
    for e, d, sgn in ((0, p.d_plus, 1.0), (n, p.d_minus, -1.0)):
        normal = np.array([-sgn * sin[e], sgn * cos[e], 0.0])
        frame = {"n": normal, "r": np.array([cos[e], sin[e], 0.0]), "z": axes[2]}
        for key, v in frame.items():
            if key == "z":
                antiplane.append(r)
            if key in ep._VELOCITY_TRACES[d]:
                for j in range(3):
                    A[r, U[j].start + e] = v[j]
            else:
                for j in range(3):
                    derivative(r, e, v, U[j], nu * normal[j])
                    derivative(r, e, normal, U[j], nu * v[j])
                A[r, P.start + e] -= v @ normal
            r += 1
    scale = np.abs(A).max(axis=1) + np.abs(B).max(axis=1) + np.abs(C).max(axis=1)
    scale[scale == 0] = 1.0
    A /= scale[:, None]
    B /= scale[:, None]
    C /= scale[:, None]
    z_cols = np.arange(U[2].start, U[2].stop)
    split = ((np.delete(np.arange(size), antiplane), np.delete(np.arange(size), z_cols)),
             (np.array(antiplane), z_cols))
    blocks = tuple(tuple(X[np.ix_(rows, cols)] for X in (A, B, C)) for rows, cols in split)
    return ep._Collocation((A, B, C), split, blocks)


def _unsplit(c):
    """The plane and antiplane blocks of a collocation, whole."""
    return tuple(tuple(X[np.ix_(rows, cols)] for X in c.full) for rows, cols in c.split)


def _assert_same_assembly(p, n):
    # to the bit, zero signs included: tobytes() tells -0.0 from 0.0; the
    # reference's blocks are the plane and antiplane blocks, unsplit
    def arrays(c, blocks):
        return [*c.full, *(X for part in (*c.split, *blocks) for X in part)]

    got = ep._blocks(p, n)
    want = _row_by_row_blocks(p, n)
    got, want = arrays(got, _unsplit(got)), arrays(want, want.blocks)
    assert len(got) == len(want) == 13
    for i, (X, Y) in enumerate(zip(got, want)):
        assert (X.dtype, X.shape, X.tobytes()) == (Y.dtype, Y.shape, Y.tobytes()), (p, n, i)


_ASSEMBLY_OPENINGS = (0.5 * math.pi, math.pi, 1.5 * math.pi, 1e-3, 2 * math.pi - 1e-9,
                      random.Random(2000).uniform(0.1, 1.9) * math.pi)


@pytest.mark.parametrize("n", (8, 16, 32, 64))
@pytest.mark.parametrize("theta", _ASSEMBLY_OPENINGS)
def test_assembly_is_the_row_by_row_reference(theta, n):
    for pair in ((a, b) for a in range(4) for b in range(4)):
        _assert_same_assembly(DihedronPencil(theta, *pair), n)


@given(st.integers(0, 3), st.integers(0, 3),
       st.floats(1e-3, 2 * math.pi, exclude_max=True),
       st.sampled_from((8, 9, 16, 31, 32, 64)), st.sampled_from((1.0, 0.3, 7.0)))
@settings(deadline=None)
def test_assembly_property(d_plus, d_minus, theta, n, nu):
    _assert_same_assembly(DihedronPencil(theta, d_plus, d_minus, nu), n)


# the condition pairs with a mirror-symmetric block: both faces fix u_z or
# neither does (the antiplane block), and d+ = d- (the plane block too)
_MIRRORED = [(a, b) for a in range(4) for b in range(4) if (a < 2) == (b < 2)]


def _mirror(n):
    """The mirror phi -> -phi of the collocation as (partner, sign) of its
    rows and of its columns, from the layout of ``_row_by_row_blocks``: node k
    goes to node n - k, u_y and the y-momentum rows change sign, and each
    plus-side boundary row goes to the minus-side row of its frame vector."""
    m = n + 1
    rows, row_signs, cols, col_signs = [], [], [], []
    for i, sign in enumerate((1.0, -1.0, 1.0)):
        for k in range(1, n):
            rows.append(i * (n - 1) + (n - k) - 1)
            row_signs.append(sign)
    rows += [3 * (n - 1) + (n - k) for k in range(m)]
    rows += [3 * (n - 1) + m + (t + 3) % 6 for t in range(6)]
    row_signs += [1.0] * (m + 6)
    for j, sign in enumerate((1.0, -1.0, 1.0, 1.0)):
        cols += [j * m + (n - k) for k in range(m)]
        col_signs += [sign] * m
    return (np.array(rows), np.array(row_signs)), (np.array(cols), np.array(col_signs))


@given(st.sampled_from(_MIRRORED), st.floats(0.01 * math.pi, 1.99 * math.pi),
       st.integers(8, 64), st.sampled_from((1.0, 0.3, 7.0)),
       st.complex_numbers(max_magnitude=4.0))
@settings(deadline=None)
def test_mirror_halves_property(pair, theta, n, nu, lam):
    p = DihedronPencil(theta, *pair, nu)
    c = ep._blocks(p, n)
    (rows, row_signs), (cols, col_signs) = _mirror(n)
    symmetric = (pair[0] == pair[1], True)  # plane, antiplane
    halves = iter(c.blocks)
    for (block_rows, block_cols), whole, mirrored in zip(c.split, _unsplit(c), symmetric):
        # the mirror maps the block's rows and columns to themselves and
        # the coefficients to themselves, to rounding
        if mirrored:
            assert set(rows[block_rows]) == set(block_rows)
            assert set(cols[block_cols]) == set(block_cols)
            for X in c.full:
                Y = X[np.ix_(rows[block_rows], cols[block_cols])]
                Y = Y * row_signs[block_rows, None] * col_signs[None, block_cols]
                Z = X[np.ix_(block_rows, block_cols)]
                assert np.abs(Y - Z).max() <= 1e-12 * np.abs(Z).max(), (pair, theta, n)
        # square halves whose sizes add up to the block, and whose singular
        # values are the block's
        parts = [next(halves) for _ in range(2 if mirrored else 1)]
        assert all(X.shape == (len(part[0]),) * 2 for part in parts for X in part)
        assert sum(len(part[0]) for part in parts) == len(block_rows) == len(block_cols)
        sv = np.sort(np.concatenate([scipy.linalg.svdvals(ep._evaluate(part, lam))
                                     for part in parts]))
        want = np.sort(scipy.linalg.svdvals(ep._evaluate(whole, lam)))
        assert np.abs(sv - want).max() <= 1e-12 * want[-1], (pair, theta, n, lam)
        if mirrored:
            assert _tobytes(parts) == _tobytes(_halves_of_the_whole_block(
                whole, block_rows, block_cols, (rows, row_signs), (cols, col_signs)))
    assert next(halves, None) is None


def _tobytes(parts):
    return [(X.shape, X.tobytes()) for part in parts for X in part]


def _halves_of_the_whole_block(whole, block_rows, block_cols, row_mirror, col_mirror):
    """The mirror halves built as before they were gathered from the full
    coefficients: from a copy of the whole block, in its own indices."""
    def local(index, mirror):
        position = np.empty(len(mirror[0]), dtype=int)
        position[index] = np.arange(len(index))
        return np.arange(len(index)), position[mirror[0][index]], mirror[1][index]

    (r, r_partner, r_sign), (c, c_partner, c_sign) = (local(block_rows, row_mirror),
                                                      local(block_cols, col_mirror))
    halves = []
    for parity in (1.0, -1.0):
        ri, rj, ra, rb = ep._mirror_basis(r, r_partner, parity * r_sign)
        ci, cj, ca, cb = ep._mirror_basis(c, c_partner, parity * c_sign)
        half = []
        for X in whole:
            Y = ra[:, None] * X[ri] + rb[:, None] * X[rj]
            half.append(Y[:, ci] * ca + Y[:, cj] * cb)
        halves.append(half)
    return halves


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


@pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 3), (2, 3), (3, 3)],
                         ids="{0[0]}{0[1]}".format)
def test_spectrum_residuals_are_the_pencil_residuals(pair):
    # read from the collocation the solve kept, to the bit, conjugates too
    for f in (0.35, 0.9, 1.3, 1.55):
        p = DihedronPencil(f * math.pi, *pair)
        spec = solve_spectrum(p, (0.0, 2.4), n=16)
        assert spec.eigenvalues and len(spec.residuals) == len(spec.eigenvalues)
        assert list(spec.residuals) == [pencil_residual(p, lam, 16) for lam in spec.eigenvalues]
        # the kept collocation is not part of the value
        assert spec == ep.Spectrum(spec.eigenvalues, spec.multiplicities, spec.window,
                                   spec.n, spec.unresolved)
        assert repr(spec) == repr(ep.Spectrum(spec.eigenvalues, spec.multiplicities,
                                              spec.window, spec.n, spec.unresolved))


def test_exponents_never_read_the_residuals(monkeypatch):
    # the residual SVDs are paid for only where the residuals are read
    def unread(self):
        raise AssertionError("residuals read")
    monkeypatch.setattr(ep.Spectrum, "residuals", property(unread))
    for pair, f in (((0, 1), 0.7), ((1, 3), 0.7), ((1, 3), 1.3), ((0, 3), 1.3)):
        assert mu_numeric(f * math.pi, *pair, n=16).provenance == "numeric"


def test_window_must_be_bounded():
    with pytest.raises(ValueError):
        solve_spectrum(DihedronPencil(math.pi / 2, 0, 0), (1.0, 0.0))


# -- the non-separable pairs --------------------------------------------------------

_MIXED = [(a, b) for a in range(4) for b in range(a + 1, 4)]
_OPENINGS = (0.35, 0.9, 1.55)  # fractions of pi


def _nonzero_spectrum(p):
    spec = solve_spectrum(p, (0.0, 2.4), n=16)
    return [(ev, m) for ev, m in zip(spec.eigenvalues, spec.multiplicities) if abs(ev) > 1e-3]


@pytest.mark.parametrize("pair", _MIXED, ids="{0[0]}{0[1]}".format)
def test_swapping_the_faces_keeps_the_spectrum(pair):
    for f in _OPENINGS:
        got = _nonzero_spectrum(DihedronPencil(f * math.pi, *pair))
        swapped = _nonzero_spectrum(DihedronPencil(f * math.pi, *reversed(pair)))
        assert [m for _, m in got] == [m for _, m in swapped], f
        assert max(abs(a - b) for (a, _), (b, _) in zip(got, swapped)) <= 1e-8, f


# Spectra in the strip 0 <= Re <= 2.4 at n = 16 without the zero eigenvalue.
# They were computed with the boundary rows stated per Cartesian component,
# an assembly independent of the frame-vector rows they now check.  A real
# value is listed once per copy; a complex value stands for itself and its
# conjugate.
_PINNED = {
    ((0, 1), 0.35): [1.0, 2.00402871316+0.51073261572j],
    ((0, 1), 0.9): [
        0.50252992037, 1.0, 1.11111111111, 1.2583329234, 1.48007750164, 2.22222222222],
    ((0, 1), 1.55): [
        0.31264490791, 0.64516129032, 0.66646053422, 0.93756036132, 1.0, 1.29032258065,
        1.33394970631, 1.56120984179, 1.93548387097, 2.00405761454, 2.18207924486],
    ((0, 2), 0.35): [1.0, 1.0, 1.42857142857],
    ((0, 2), 0.9): [
        0.55555555556, 0.62171044903, 1.0, 1.0, 1.66666666667,
        1.92683674619+0.09193327557j],
    ((0, 2), 1.55): [
        0.32258064516, 0.33317094255, 0.6251981922, 0.96774193548, 1.0, 1.0,
        1.24961419728, 1.61290322581, 1.66852647174, 1.87213853275, 2.25806451613,
        2.34111014806],
    ((0, 3), 0.35): [0.75619988998, 1.0, 1.42857142857, 2.32153215663+1.41998981386j],
    ((0, 3), 0.9): [
        0.50062087402, 0.55555555556, 0.62420692286, 1.0, 1.49662132414, 1.66666666667,
        1.88682839258],
    ((0, 3), 1.55): [
        0.267641212, 0.32258064516, 0.40768876053, 0.78540569004, 0.96774193548, 1.0,
        1.25169595877+0.14464635263j, 1.61290322581, 1.90295913626+0.25860486226j,
        2.25806451613],
    ((1, 3), 0.35): [1.0, 1.0, 1.42857142857],
    ((1, 3), 0.9): [
        0.55555555556, 0.62171044903, 1.0, 1.0, 1.66666666667,
        1.92683674619+0.09193327557j],
    ((1, 3), 1.55): [
        0.32258064516, 0.33317094255, 0.6251981922, 0.96774193548, 1.0, 1.0,
        1.24961419728, 1.61290322581, 1.66852647174, 1.87213853275, 2.25806451613,
        2.34111014806],
    ((2, 3), 0.35): [1.0, 2.00402871316+0.51073261572j],
    ((2, 3), 0.9): [
        0.50252992037, 1.0, 1.11111111111, 1.2583329234, 1.48007750164, 2.22222222222],
    ((2, 3), 1.55): [
        0.31264490791, 0.64516129032, 0.66646053422, 0.93756036132, 1.0, 1.29032258065,
        1.33394970631, 1.56120984179, 1.93548387097, 2.00405761454, 2.18207924486],
}


def _sorted(values):
    return sorted(values, key=lambda z: (round(z.real, 6), z.imag))


@pytest.mark.parametrize("pair, f", [pytest.param(pair, f, id="%d%d-%g" % (*pair, f))
                                     for pair, f in sorted(_PINNED)])
def test_pinned_spectrum(pair, f):
    got = [ev for ev, m in _nonzero_spectrum(DihedronPencil(f * math.pi, *pair))
           for _ in range(m)]
    want = [complex(v) for v in _PINNED[pair, f]]
    want += [v.conjugate() for v in want if v.imag]
    got, want = _sorted(got), _sorted(want)
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8


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


# Within 3.1e-5 of pi the eigenvalues near 1/2 and 1 of these pairs lie
# within the solver's clustering width of each other: pi/theta and 1, and
# (1/2) pi/theta and 1 - (1/2) pi/theta.  The solver lists each group as one
# value with the summed multiplicity.  The (0,0) values are 1 and the roots
# k pi/theta of its factor sin(lam theta).
_NEAR_HALF_SPACE = [((1, 2), math.pi - 1e-5), ((1, 2), math.pi + 1e-5),
                    ((1, 1), math.pi - 1e-5), ((1, 1), math.pi + 1e-5),
                    ((0, 0), math.pi - 1e-5)]


@pytest.mark.xfail(strict=True, reason="the solver merges eigenvalues less than 1e-5 apart")
@pytest.mark.parametrize("pair, theta", _NEAR_HALF_SPACE)
def test_spectrum_near_the_half_space(pair, theta):
    hi = 2.4
    if pair == (0, 0):
        expected = [1.0] + [k * math.pi / theta for k in (1, 2)]
    else:
        expected = list(_separable_spectrum(pair, theta, hi))
    spec = solve_spectrum(DihedronPencil(theta, *pair), (0.0, hi), n=32)
    missing = [v for v in expected if not any(abs(z - v) <= 1e-6 for z in spec.eigenvalues)]
    assert not missing, (missing, spec.eigenvalues)


def test_separable_exact_on_the_grid():
    # pi/theta = 24/k: (2,2) at pi/3 takes the second eigenvalue 3 - 1
    assert edge_exponent("mu", 2, 2, 8 / 24 * math.pi).bound == 2
    assert edge_exponent("lambda1", 2, 2, 8 / 24 * math.pi).bound == 1
    assert edge_exponent("mu", 1, 2, math.pi).bound == Fraction(1, 2)
    assert edge_exponent("mu", 1, 1, 1.5 * math.pi).bound == Fraction(1, 3)
    assert edge_exponent("mu", 2, 1, 0.5 * math.pi).bound == 1


# -- the shift-invert eigensolve ----------------------------------------------------

def _doubled_companion(pencil, window):
    """Reference eigenvalues: QZ on the companion pencil of doubled size, of
    the whole coupled matrices rather than of the plane and antiplane blocks."""
    A, B, C = pencil.full
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
        # without a collision: one eigensolve per block and size
        assert len(eig_calls) > 2 * len(ep._blocks(DihedronPencil(theta, *pair), 32).blocks)


def test_one_eigensolve_per_size(eig_calls):
    # one per block (plane and antiplane) and size (n and 2n)
    solve_spectrum(DihedronPencil(1.3 * math.pi, 1, 3), (0.0, 2.4), n=16)
    assert len(eig_calls) == 4


@pytest.mark.parametrize("pair, blocks", [((2, 3), 3), ((3, 2), 3), ((0, 1), 3), ((3, 3), 4)])
def test_one_eigensolve_per_mirror_half(pair, blocks, eig_calls):
    # one per block and size, a mirror-symmetric block counting as its two
    # halves: the antiplane block of (2,3) and (0,1), both blocks of (3,3)
    solve_spectrum(DihedronPencil(1.3 * math.pi, *pair), (0.0, 2.4), n=16)
    assert len(eig_calls) == 2 * blocks


def _zero_pivots(count):
    """``solve`` that reports a zero pivot on its first ``count`` calls."""
    real, calls = ep.solve, []

    def solve(a, b):
        calls.append(1)
        if len(calls) <= count:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(a, b)

    return solve


def test_zero_pivot_moves_the_shift(monkeypatch, eig_calls):
    p = DihedronPencil(1.3 * math.pi, 1, 3)
    base = solve_spectrum(p, (0.0, 2.4), n=16)
    monkeypatch.setattr(ep, "solve", _zero_pivots(1))
    moved = solve_spectrum(p, (0.0, 2.4), n=16)
    # four per solve, one per block and size: no eigensolve follows a zero pivot
    assert len(eig_calls) == 8
    assert len(moved.eigenvalues) == len(base.eigenvalues)
    assert max(abs(a - b) for a, b in zip(moved.eigenvalues, base.eigenvalues)) <= ep._STAB_TOL
    monkeypatch.setattr(ep, "solve", _zero_pivots(ep._SHIFT_MOVES + 1))
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


def _ordered_cases():
    """``_equivalence_cases`` with the mixed pairs taken in both orders."""
    return [pytest.param(pair, theta, hi, n, id="%d%d-%.6g-%.4g-%d" % (*pair, theta, hi, n))
            for case, theta, hi, n in _equivalence_cases()
            for pair in dict.fromkeys((case, case[::-1]))]


@pytest.mark.parametrize("pair, theta, hi, n", _ordered_cases())
def test_mirror_halves_keep_the_spectrum(pair, theta, hi, n, monkeypatch):
    # the solver on the mirror halves against the solver on the unsplit plane
    # and antiplane blocks of the row-by-row reference: apart from the
    # defective zero eigenvalue, the same values to rounding, the same
    # multiplicities and the same unresolved values
    p = DihedronPencil(theta, *pair)
    spec = solve_spectrum(p, (0.0, hi), n=n)
    monkeypatch.setattr(ep, "_blocks", _row_by_row_blocks)
    _assert_same_nonzero_spectrum(spec, solve_spectrum(p, (0.0, hi), n=n))


def _assert_same_nonzero_spectrum(spec, ref, rtol=0.0, largest=math.inf):
    """Apart from the defective zero eigenvalue and values of modulus above
    ``largest``, the same values within 1e-9 + ``rtol`` |lam|, the same
    multiplicities and the same unresolved values."""
    def kept(z):
        return ep._RE_MIN < abs(z) <= largest

    def same(got, want):
        got, want = [z for z in got if kept(z)], [z for z in want if kept(z)]
        assert len(got) == len(want), (got, want)
        assert all(abs(a - b) <= 1e-9 + rtol * abs(b) for a, b in zip(got, want)), (got, want)

    same(spec.eigenvalues, ref.eigenvalues)
    assert [m for z, m in zip(spec.eigenvalues, spec.multiplicities) if kept(z)] \
        == [m for z, m in zip(ref.eigenvalues, ref.multiplicities) if kept(z)]
    same(spec.unresolved, ref.unresolved)


def _compact_shift_invert(coefficients, window):
    """Reference eigensolve: the shift-invert solve on the compact
    linearization, a companion unknown w = lam u for each interior velocity
    node, with scipy's LU and eigensolver, as before the deflation."""
    A, B, C = coefficients
    cols = np.flatnonzero(C.any(axis=0))
    size, k = A.shape[0], len(cols)
    L = np.zeros((size + k, size + k))
    M = np.zeros_like(L)
    L[:size, :size] = A
    L[size:, size:] = np.eye(k)
    M[:size, :size] = -B
    M[:size, size:] = -C[:, cols]
    M[size + np.arange(k), cols] = 1.0
    sigma = ep._shift(window)
    for _ in range(ep._SHIFT_MOVES + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = L - sigma * M
        if not np.isfinite(shifted).all():
            raise WindowError("the shift %r overflows the shifted pencil: the strip is too far out"
                              % (sigma,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                lu = scipy.linalg.lu_factor(shifted)
            except scipy.linalg.LinAlgWarning:  # a zero pivot: sigma is an eigenvalue
                lu = None
        if lu is not None:
            mu = scipy.linalg.eig(scipy.linalg.lu_solve(lu, M), right=False)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                lam = sigma + 1.0 / mu
            lam = lam[np.isfinite(lam)]
            if not np.any(np.abs(lam - sigma) <= ep._SHIFT_GAP * max(1.0, abs(sigma))):
                return lam
        sigma += ep._SHIFT_STEP * (window[1] - window[0])
    raise WindowError("every shift tried in the window lies on the spectrum")


def _finite_orders(p, n):
    """The order of each eigensolve at size n, plane block first: the finite
    spectrum of the plane block, 4n, or 2n for each of its mirror halves,
    and of the antiplane block in lam^2, its n - 1 interior nodes, or n/2
    and n/2 - 1 for its halves."""
    plane = [4 * n] if p.d_plus != p.d_minus else [2 * n, 2 * n]
    fixes_z = ["z" in ep._VELOCITY_TRACES[d] for d in (p.d_plus, p.d_minus)]
    antiplane = [n - 1] if fixes_z[0] != fixes_z[1] else [n // 2, n // 2 - 1]
    return plane + antiplane


def _runs(values):
    """``values`` with each run of equal neighbours taken once."""
    return [v for i, v in enumerate(values) if i == 0 or values[i - 1] != v]


def _deflation_and_reference(p, window, n, monkeypatch):
    """The spectrum, the order of each eigensolve behind it, and the
    spectrum of the :func:`_compact_shift_invert` reference."""
    orders = []
    real_eig = ep.eig

    def recording(a, *args, **kwargs):
        orders.append(len(a))
        return real_eig(a, *args, **kwargs)

    monkeypatch.setattr(ep, "eig", recording)
    spec = solve_spectrum(p, window, n=n)
    monkeypatch.setattr(ep, "eig", real_eig)
    monkeypatch.setattr(ep, "_shift_invert", _compact_shift_invert)
    return spec, orders, solve_spectrum(p, window, n=n)


@pytest.mark.parametrize("pair, theta, hi, n", _ordered_cases())
def test_deflated_linearization_keeps_the_spectrum(pair, theta, hi, n, monkeypatch):
    # each block solved at the order of its finite spectrum, against the
    # compact linearization with scipy's LAPACK: apart from the defective
    # zero eigenvalue, the same spectrum to rounding
    p = DihedronPencil(theta, *pair)
    spec, orders, ref = _deflation_and_reference(p, (0.0, hi), n, monkeypatch)
    assert orders == _finite_orders(p, n) + _finite_orders(p, 2 * n)
    _assert_same_nonzero_spectrum(spec, ref)


@given(st.integers(0, 3), st.integers(0, 3), st.floats(0.1 * math.pi, 1.9 * math.pi),
       st.sampled_from((8, 12, 16, 24)), st.integers(0, 3))
@settings(deadline=None)
def test_deflated_linearization_property(d_plus, d_minus, theta, n, widenings):
    # the strips mu_numeric tries, at sizes up to its default.  A moved
    # shift repeats an eigensolve at the same order.  A coarse collocation's
    # eigenvalues are accurate to about 1e-8 relative in either
    # linearization, and values above 1e6 are infinite eigenvalues that
    # rounding moved into the strip, which the companion form can list and
    # the deflated one cannot
    p = DihedronPencil(theta, d_plus, d_minus)
    window = (0.0, max(2.4, math.pi / theta + 0.8) * 1.6 ** widenings)
    with pytest.MonkeyPatch.context() as monkeypatch:
        spec, orders, ref = _deflation_and_reference(p, window, n, monkeypatch)
    assert _runs(orders) == _runs(_finite_orders(p, n) + _finite_orders(p, 2 * n))
    _assert_same_nonzero_spectrum(spec, ref, rtol=1e-8, largest=1e6)


# -- the residual stage --------------------------------------------------------------

def _complex_residuals(pencil, lams):
    """Reference residuals: one complex SVD of the whole coupled matrix per
    candidate, as before the split and before real candidates were scored in
    real arithmetic."""
    out = []
    for lam in lams:
        sv = scipy.linalg.svdvals(ep._evaluate(pencil.full, complex(lam)))
        out.append(float(sv[-1] / sv[0]))
    return out


def _svd_decision(pencil, lam):
    """The residual test decided by the SVDs of every candidate, as before the
    LU bound settled it."""
    return ep._residual(pencil, lam) <= ep._RES_TOL


def _complex_decision(pencil, lam):
    return _complex_residuals(pencil, [lam])[0] <= ep._RES_TOL


def _same_spectrum(a, b):
    assert a.eigenvalues == b.eigenvalues
    assert a.multiplicities == b.multiplicities
    assert a.unresolved == b.unresolved


@pytest.mark.parametrize("theta", [f * math.pi for f in (0.1, 0.35, 0.5, 1.0, 1.55, 1.9)])
@pytest.mark.parametrize("pair", [(a, b) for a in range(4) for b in range(a, 4)])
def test_real_residuals_keep_the_decisions(pair, theta, monkeypatch):
    p, window = DihedronPencil(theta, *pair), (0.0, max(2.4, math.pi / theta + 0.8))
    raw, svd_inputs = [], []
    real_raw, real_svdvals = ep._raw_eigenvalues, ep.svdvals

    def recording_raw(pencil, win):
        raw.append(real_raw(pencil, win))
        return raw[-1]

    def counting_svdvals(a, *args, **kwargs):
        svd_inputs.append(a.dtype)
        return real_svdvals(a, *args, **kwargs)

    monkeypatch.setattr(ep, "_raw_eigenvalues", recording_raw)
    monkeypatch.setattr(ep, "svdvals", counting_svdvals)
    spec = solve_spectrum(p, window, n=16)
    fine = raw[-1]
    sel = fine[(fine.real >= window[0] - 1e-12) & (fine.real <= window[1] + 1e-12)]
    upper = {complex(z) for z in sel if z.imag > 0}
    assert {complex(z).conjugate() for z in sel if z.imag < 0} == upper
    # no SVD at 2n for a candidate the bound settles: one per block (plane
    # and antiplane, or their mirror halves) for each other one, once per
    # conjugate pair, in real arithmetic for a real candidate
    fine_pencil = ep._blocks(p, 32)
    blocks = len(fine_pencil.blocks)
    bounds = {ep._upper(z): ep._residual_bound(fine_pencil, z) for z in sel}
    left_open = [lam for lam, bound in bounds.items() if bound > ep._RES_TOL / 2]
    assert len(svd_inputs) == blocks * len(left_open)
    real = sum(isinstance(lam, float) for lam in left_open)
    assert svd_inputs.count(np.float64) == blocks * real
    for lam, bound in bounds.items():
        assert ep._residual(fine_pencil, lam) <= bound + 1e-13, (lam, bound)

    monkeypatch.setattr(ep, "_residual_passes", _svd_decision)
    _same_spectrum(spec, solve_spectrum(p, window, n=16))
    monkeypatch.setattr(ep, "_residual_passes", _complex_decision)
    _same_spectrum(spec, solve_spectrum(p, window, n=16))


@pytest.mark.parametrize("pair, theta, hi, n", _equivalence_cases())
def test_residual_bound_matches_the_svd_decision(pair, theta, hi, n, monkeypatch):
    p = DihedronPencil(theta, *pair)
    spec = solve_spectrum(p, (0.0, hi), n=n)
    monkeypatch.setattr(ep, "_residual_passes", _svd_decision)
    _same_spectrum(spec, solve_spectrum(p, (0.0, hi), n=n))


def test_residual_bound_falls_back_on_the_svds(monkeypatch):
    pencil = ep._blocks(DihedronPencil(1.3 * math.pi, 1, 3), 32)
    calls = []
    real_svdvals = ep.svdvals

    def counting_svdvals(a, *args, **kwargs):
        calls.append(1)
        return real_svdvals(a, *args, **kwargs)

    monkeypatch.setattr(ep, "svdvals", counting_svdvals)
    # off the spectrum the bound settles nothing, and the SVDs refuse
    for lam in (0.37, 0.731 + 0.2j, 2.1 - 0.4j):
        assert ep._residual_bound(pencil, lam) > ep._RES_TOL / 2
        calls.clear()
        assert ep._residual_passes(pencil, lam) is False
        assert len(calls) == 2  # one SVD per block
        assert (ep._residual(pencil, lam) <= ep._RES_TOL) is False
    # an eigenvalue moved until its residual sits between the bound's cut
    # and the tolerance: the bound cannot settle it, the SVDs accept it
    spec = solve_spectrum(DihedronPencil(1.3 * math.pi, 1, 3), (0.0, 2.4), n=16)
    lam0 = next(ev for ev in spec.eigenvalues if ev.real > 0.1 and ev.imag == 0)
    slope = ep._residual(pencil, lam0.real + 1e-6) / 1e-6
    lam = lam0.real + 0.75 * ep._RES_TOL / slope
    assert ep._RES_TOL / 2 < ep._residual(pencil, lam) <= ep._RES_TOL
    assert ep._residual_bound(pencil, lam) > ep._RES_TOL / 2
    calls.clear()
    assert ep._residual_passes(pencil, lam) is True
    assert len(calls) == 2
